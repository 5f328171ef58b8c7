(* Synthetic design generator.

   The paper's testbed (proprietary IBM designs, ISPD-2006 netlists) is not
   redistributable, so the harness substitutes deterministic synthetic
   instances (see DESIGN.md).  The generator reproduces the structural knobs
   that drive placement difficulty:

   - a clustered "golden" placement from which net locality is derived
     (placers can rediscover good placements, so HPWL comparisons are
     meaningful rather than noise over random graphs);
   - a Rent-style net-degree distribution (many 2-3 pin nets, a tail of
     wider nets) with mostly-local, occasionally-global connections;
   - fixed macros acting as blockages, boundary pads, standard-cell rows of
     height 1.0, and a target density.

   Everything is driven by a SplitMix64 seed: the same parameters always
   yield the same design, on any machine. *)

open Fbp_geometry
open Fbp_util

type params = {
  name : string;
  n_cells : int;
  utilization : float;  (* movable area / chip capacity *)
  n_macros : int;
  macro_fraction : float;  (* fraction of chip area covered by macros *)
  n_pads : int;
  avg_net_degree : float;  (* controls #nets = n_cells * 4 / avg_degree *)
  locality : float;  (* probability that a net pin stays in-cluster *)
  cluster_size : int;
  target_density : float;
  seed : int;
}

let default_params =
  {
    name = "synthetic";
    n_cells = 1000;
    utilization = 0.7;
    n_macros = 2;
    macro_fraction = 0.08;
    n_pads = 32;
    avg_net_degree = 3.4;
    locality = 0.8;
    cluster_size = 48;
    target_density = 0.97;
    seed = 1;
  }

(* Net degree sampler: geometric-ish tail capped at 12 pins, matching the
   classic 2-3 pin dominance of standard-cell netlists. *)
let sample_degree rng =
  let r = Rng.float rng in
  if r < 0.55 then 2
  else if r < 0.78 then 3
  else if r < 0.89 then 4
  else if r < 0.94 then 5
  else 6 + Rng.int rng 7

let generate (p : params) =
  if p.n_cells < 2 then invalid_arg "Generator.generate: need at least 2 cells";
  let rng = Rng.create p.seed in
  let row_height = 1.0 in
  (* Cell shapes: widths 1..5 rows wide, height one row. *)
  let widths = Array.init p.n_cells (fun _ -> 1.0 +. float_of_int (Rng.int rng 4)) in
  let heights = Array.make p.n_cells row_height in
  let movable_area = Array.fold_left ( +. ) 0.0 widths in
  (* Chip area sized so movable cells fill [utilization] of the non-macro,
     density-scaled capacity. *)
  let free_needed = movable_area /. p.utilization /. p.target_density in
  let chip_area = free_needed /. (1.0 -. p.macro_fraction) in
  let side = sqrt chip_area in
  let n_rows = max 4 (int_of_float (Float.round (side /. row_height))) in
  let chip_h = float_of_int n_rows *. row_height in
  let chip_w = chip_area /. chip_h in
  let chip = Rect.of_corner ~x:0.0 ~y:0.0 ~w:chip_w ~h:chip_h in
  (* Macros: non-overlapping fixed blocks, placed by rejection sampling. *)
  let macro_area_each =
    if p.n_macros = 0 then 0.0 else chip_area *. p.macro_fraction /. float_of_int p.n_macros
  in
  let macros = ref [] in
  let attempts = ref 0 in
  while List.length !macros < p.n_macros && !attempts < 1000 do
    incr attempts;
    let aspect = Rng.range rng 0.6 1.7 in
    let w = sqrt (macro_area_each *. aspect) and h = sqrt (macro_area_each /. aspect) in
    if w < chip_w /. 2.0 && h < chip_h /. 2.0 then begin
      let x = Rng.range rng 0.0 (chip_w -. w) in
      (* snap to row grid so rows are cleanly blocked *)
      let y = Float.round (Rng.range rng 0.0 (chip_h -. h)) in
      let r = Rect.of_corner ~x ~y ~w ~h in
      if Rect.contains chip r && not (List.exists (Rect.overlaps (Rect.inflate r 2.0)) !macros)
      then macros := r :: !macros
    end
  done;
  let macros = !macros in
  (* Golden placement: clusters of [cluster_size] cells around random
     centers avoiding macros. *)
  let n_clusters = max 1 ((p.n_cells + p.cluster_size - 1) / p.cluster_size) in
  let free_center () =
    let rec try_ k =
      let pt = Point.make (Rng.range rng 0.0 chip_w) (Rng.range rng 0.0 chip_h) in
      if k = 0 || not (List.exists (fun m -> Rect.contains_point m pt) macros) then pt
      else try_ (k - 1)
    in
    try_ 20
  in
  let cluster_centers = Array.init n_clusters (fun _ -> free_center ()) in
  let cluster_radius = sqrt (chip_area /. float_of_int n_clusters) *. 0.6 in
  let cluster_of = Array.init p.n_cells (fun _ -> Rng.int rng n_clusters) in
  let clamp lo hi v = Float.max lo (Float.min hi v) in
  let x = Array.make p.n_cells 0.0 and y = Array.make p.n_cells 0.0 in
  for c = 0 to p.n_cells - 1 do
    let ctr = cluster_centers.(cluster_of.(c)) in
    x.(c) <- clamp (widths.(c) /. 2.0) (chip_w -. (widths.(c) /. 2.0))
               (ctr.Point.x +. (Rng.normal rng *. cluster_radius));
    y.(c) <- clamp (row_height /. 2.0) (chip_h -. (row_height /. 2.0))
               (ctr.Point.y +. (Rng.normal rng *. cluster_radius))
  done;
  (* Cells grouped per cluster, for local pin selection. *)
  let members = Array.make n_clusters [] in
  Array.iteri (fun c k -> members.(k) <- c :: members.(k)) cluster_of;
  let members = Array.map Array.of_list members in
  (* Pads on the chip boundary. *)
  let pad_position i =
    let t = float_of_int i /. float_of_int (max 1 p.n_pads) in
    let perim = 2.0 *. (chip_w +. chip_h) in
    let d = t *. perim in
    if d < chip_w then (d, 0.0)
    else if d < chip_w +. chip_h then (chip_w, d -. chip_w)
    else if d < (2.0 *. chip_w) +. chip_h then ((2.0 *. chip_w) +. chip_h -. d, chip_h)
    else (0.0, perim -. d)
  in
  (* Nets.  Pins go into growable columns in generation order, [ends]
     closing each kept net.  A seed's design lists the nets, and each
     net's pins, newest first: reversing the whole pin sequence gives
     exactly that order. *)
  let n_nets =
    max 1 (int_of_float (float_of_int p.n_cells *. 4.0 /. p.avg_net_degree))
  in
  let g_cell = ref (Array.make (4 * n_nets) 0) in
  let g_dx = ref (Array.make (4 * n_nets) 0.0) in
  let g_dy = ref (Array.make (4 * n_nets) 0.0) in
  let count = ref 0 in
  let push c dx dy =
    let k = !count in
    if k = Array.length !g_cell then begin
      let grow a fill =
        let a' = Array.make (2 * k) fill in
        Array.blit a 0 a' 0 k;
        a'
      in
      g_cell := grow !g_cell 0;
      g_dx := grow !g_dx 0.0;
      g_dy := grow !g_dy 0.0
    end;
    !g_cell.(k) <- c;
    !g_dx.(k) <- dx;
    !g_dy.(k) <- dy;
    count := k + 1
  in
  let ends = Array.make n_nets 0 and n_kept = ref 0 in
  for _ = 0 to n_nets - 1 do
    let deg = sample_degree rng in
    let anchor = Rng.int rng p.n_cells in
    let home = cluster_of.(anchor) in
    let first = !count in
    let pin_of_cell c =
      let dx = Rng.range rng (-.widths.(c) /. 2.0) (widths.(c) /. 2.0) in
      push c dx 0.0
    in
    pin_of_cell anchor;
    for _ = 2 to deg do
      if p.n_pads > 0 && Rng.float rng < 0.02 then begin
        (* occasional IO connection *)
        let px, py = pad_position (Rng.int rng p.n_pads) in
        push (-1) px py
      end
      else begin
        let c =
          if Rng.float rng < p.locality && Array.length members.(home) > 1 then
            Rng.choose rng members.(home)
          else Rng.int rng p.n_cells
        in
        pin_of_cell c
      end
    done;
    (* Drop degenerate nets where all pins landed on the anchor. *)
    let distinct = ref false in
    for k = first + 1 to !count - 1 do
      if !g_cell.(k) <> !g_cell.(first) then distinct := true
    done;
    if !distinct then begin
      ends.(!n_kept) <- !count;
      incr n_kept
    end
    else count := first
  done;
  let n_pins = !count and m = !n_kept in
  let reversed a = Array.init n_pins (fun k -> a.(n_pins - 1 - k)) in
  let netlist =
    Netlist.make
      ~names:(Array.init p.n_cells (Printf.sprintf "c%d"))
      ~widths ~heights
      ~fixed:(Array.make p.n_cells false)
      ~movebound:(Array.make p.n_cells (-1))
      ~net_start:
        (Array.init (m + 1) (fun j ->
             if j = m then n_pins else n_pins - ends.(m - 1 - j)))
      ~net_weight:(Array.make m 1.0)
      ~pin_cell:(reversed !g_cell) ~pin_dx:(reversed !g_dx)
      ~pin_dy:(reversed !g_dy)
  in
  let initial = { Placement.x; y } in
  {
    Design.name = p.name;
    chip;
    row_height;
    netlist;
    blockages = macros;
    initial;
    target_density = p.target_density;
  }

(* Convenience: a small design keyed only by size and seed, used heavily by
   tests and examples. *)
let quick ?(seed = 1) ?(name = "quick") n_cells =
  generate { default_params with n_cells; seed; name }
