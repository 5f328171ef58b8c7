(* Movebound scenario generation for Tables III-VI.

   The paper's movebounds come from three methodologies (Section I): timing/
   voltage islands, clock-domain control, and flattened hierarchies.  The
   generator reproduces those shapes deterministically:

   - [Flatten]: recursive guillotine slicing of the chip into |M| leaves —
     the "(F) movebounds obtained from flattening hierarchy" designs;
   - [Overlapping]: the same slicing with each leaf inflated so neighbours
     overlap, plus a few nested sub-bounds — the "(O)" designs (infeasible
     when exclusive, as the paper notes);
   - [Islands]: a few disjoint voltage-island rectangles.

   Cells are bound to the movebound containing their golden position (so
   instances stay meaningful and feasible) until the requested coverage and
   the per-movebound density cap (Table III "max mb. dens") are hit. *)

open Fbp_geometry
open Fbp_netlist
open Fbp_util

type shape =
  | Islands of int
  | Flatten of int
  | Overlapping of int

type scenario = {
  design : string;  (* Designs spec name *)
  shape : shape;
  coverage : float;  (* fraction of cells bound (Table III "% cells") *)
  max_density : float;  (* per-movebound density cap *)
  kind : Fbp_movebound.Movebound.kind;
}

(* Table III rows (inclusive case; Table V reuses 5 of them as exclusive). *)
let table3_scenarios =
  [
    { design = "rabe"; shape = Islands 2; coverage = 0.043; max_density = 0.67;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "ashraf"; shape = Flatten 12; coverage = 0.22; max_density = 0.80;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "erhard"; shape = Flatten 16; coverage = 0.80; max_density = 0.74;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "tomoku"; shape = Overlapping 14; coverage = 0.012; max_density = 0.74;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "trips"; shape = Overlapping 16; coverage = 0.80; max_density = 0.81;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "andre"; shape = Overlapping 12; coverage = 0.038; max_density = 0.73;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "ludwig"; shape = Overlapping 10; coverage = 0.027; max_density = 0.70;
      kind = Fbp_movebound.Movebound.Inclusive };
    { design = "erik"; shape = Flatten 12; coverage = 0.70; max_density = 0.85;
      kind = Fbp_movebound.Movebound.Inclusive };
  ]

(* Table V designs: the non-nested scenarios, switched to exclusive. *)
let table5_designs = [ "rabe"; "ashraf"; "erhard"; "andre"; "erik" ]

let shape_count = function Islands n | Flatten n | Overlapping n -> n

let is_overlapping = function Overlapping _ -> true | Islands _ | Flatten _ -> false
let is_flattened = function Flatten _ | Overlapping _ -> true | Islands _ -> false

(* Recursive guillotine slicing into [n] leaves, deterministic. *)
let rec slice rng (r : Rect.t) n =
  if n <= 1 then [ r ]
  else begin
    let n1 = n / 2 in
    let n2 = n - n1 in
    let frac = 0.35 +. (0.3 *. Rng.float rng) in
    let vertical =
      if Rect.width r > 1.4 *. Rect.height r then true
      else if Rect.height r > 1.4 *. Rect.width r then false
      else Rng.bool rng
    in
    if vertical then begin
      let xm = r.Rect.x0 +. (frac *. Rect.width r) in
      slice rng (Rect.make ~x0:r.Rect.x0 ~y0:r.Rect.y0 ~x1:xm ~y1:r.Rect.y1) n1
      @ slice rng (Rect.make ~x0:xm ~y0:r.Rect.y0 ~x1:r.Rect.x1 ~y1:r.Rect.y1) n2
    end
    else begin
      let ym = r.Rect.y0 +. (frac *. Rect.height r) in
      slice rng (Rect.make ~x0:r.Rect.x0 ~y0:r.Rect.y0 ~x1:r.Rect.x1 ~y1:ym) n1
      @ slice rng (Rect.make ~x0:r.Rect.x0 ~y0:ym ~x1:r.Rect.x1 ~y1:r.Rect.y1) n2
    end
  end

let movebound_rects rng (chip : Rect.t) shape =
  match shape with
  | Islands n ->
    (* disjoint islands: slice then shrink each leaf *)
    List.map
      (fun (r : Rect.t) ->
        let dx = 0.12 *. Rect.width r and dy = 0.12 *. Rect.height r in
        Rect.make ~x0:(r.Rect.x0 +. dx) ~y0:(r.Rect.y0 +. dy) ~x1:(r.Rect.x1 -. dx)
          ~y1:(r.Rect.y1 -. dy))
      (slice rng chip n)
  | Flatten n -> slice rng chip n
  | Overlapping n ->
    (* inflate leaves so neighbours overlap, nest an extra bound inside the
       largest leaf *)
    let leaves = slice rng chip (n - 1) in
    let inflated =
      List.map
        (fun (r : Rect.t) ->
          let dx = 0.05 *. Rect.width r and dy = 0.05 *. Rect.height r in
          match Rect.intersect chip (Rect.inflate r (Float.min dx dy)) with
          | Some clipped -> clipped
          | None -> r)
        leaves
    in
    let largest =
      List.fold_left
        (fun acc r -> if Rect.area r > Rect.area acc then r else acc)
        (List.hd inflated) inflated
    in
    let nested =
      Rect.make
        ~x0:(largest.Rect.x0 +. (0.25 *. Rect.width largest))
        ~y0:(largest.Rect.y0 +. (0.25 *. Rect.height largest))
        ~x1:(largest.Rect.x1 -. (0.25 *. Rect.width largest))
        ~y1:(largest.Rect.y1 -. (0.25 *. Rect.height largest))
    in
    inflated @ [ nested ]

(* Attach a scenario to a design: mutates the netlist's movebound column and
   returns the instance.  Deterministic in (design seed, scenario). *)
let attach (scenario : scenario) (design : Design.t) =
  let rng = Rng.create (Hashtbl.hash (scenario.design, shape_count scenario.shape)) in
  let rects = movebound_rects rng design.Design.chip scenario.shape in
  (* Shrink rects so the per-movebound density approaches the scenario's
     "max mb dens" (Table III): low-coverage scenarios would otherwise bind
     a few cells inside huge areas and the density column would read ~0. *)
  let movable = Netlist.total_movable_area design.Design.netlist in
  let demand_per_mb =
    scenario.coverage *. movable /. float_of_int (max 1 (List.length rects))
  in
  let rects =
    List.map
      (fun (r : Rect.t) ->
        let target_area = demand_per_mb /. Float.max 0.05 (0.85 *. scenario.max_density) in
        if Rect.area r > 2.0 *. target_area then begin
          let f = Float.max 0.15 (sqrt (target_area /. Rect.area r)) in
          let c = Rect.center r in
          Rect.of_center ~cx:c.Point.x ~cy:c.Point.y ~w:(f *. Rect.width r)
            ~h:(f *. Rect.height r)
        end
        else r)
      rects
  in
  let movebounds =
    Array.of_list
      (List.mapi
         (fun i r ->
           Fbp_movebound.Movebound.make ~id:i
             ~name:(Printf.sprintf "%s_mb%d" scenario.design i)
             ~kind:scenario.kind [ r ])
         rects)
  in
  let nl = design.Design.netlist in
  let n = Netlist.n_cells nl in
  (* per-movebound area budget honoring the density cap *)
  (* budget against *row-usable* capacity: the legalizer can only use full
     rows inside a movebound, so the density cap must be measured there *)
  let density_model = Fbp_core.Density.create design in
  let budget =
    Array.map
      (fun (m : Fbp_movebound.Movebound.t) ->
        let usable =
          Fbp_core.Density.usable_rows_area density_model ~chip:design.Design.chip
            ~row_height:design.Design.row_height m.Fbp_movebound.Movebound.area
        in
        scenario.max_density *. Rect_set.area usable *. design.Design.target_density)
      movebounds
  in
  let used = Array.make (Array.length movebounds) 0.0 in
  (* bind cells whose golden position lies in a movebound, deterministic
     order, until coverage is reached *)
  let want = scenario.coverage *. float_of_int n in
  let bound = ref 0 in
  Array.iteri (fun c _ -> nl.Netlist.movebound.(c) <- -1) nl.Netlist.movebound;
  let order = Array.init n (fun c -> c) in
  Rng.shuffle rng order;
  Array.iter
    (fun c ->
      if float_of_int !bound < want && not nl.Netlist.fixed.(c) then begin
        let p = Placement.get design.Design.initial c in
        (* innermost (smallest) movebound containing the golden position *)
        let best = ref (-1) and best_area = ref infinity in
        Array.iteri
          (fun i (m : Fbp_movebound.Movebound.t) ->
            if Rect_set.contains_point m.Fbp_movebound.Movebound.area p then begin
              let a = Rect_set.area m.Fbp_movebound.Movebound.area in
              if a < !best_area then begin
                best_area := a;
                best := i
              end
            end)
          movebounds;
        if !best >= 0 && used.(!best) +. Netlist.size nl c <= budget.(!best) then begin
          nl.Netlist.movebound.(c) <- !best;
          used.(!best) <- used.(!best) +. Netlist.size nl c;
          incr bound
        end
      end)
    order;
  { Fbp_movebound.Instance.design; movebounds }

(* Table III statistics of an attached instance. *)
type stats = {
  n_movebounds : int;
  n_cells : int;
  pct_bound : float;
  max_mb_density : float;
  overlapping : bool;
  flattened : bool;
}

let stats_of (scenario : scenario) (inst : Fbp_movebound.Instance.t) =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let n = Netlist.n_cells nl in
  let bound = ref 0 in
  let area_per_mb = Array.make (Fbp_movebound.Instance.n_movebounds inst) 0.0 in
  for c = 0 to n - 1 do
    let mb = nl.Netlist.movebound.(c) in
    if mb >= 0 then begin
      incr bound;
      area_per_mb.(mb) <- area_per_mb.(mb) +. Netlist.size nl c
    end
  done;
  let max_density = ref 0.0 in
  Array.iteri
    (fun i (m : Fbp_movebound.Movebound.t) ->
      let cap = Rect_set.area m.Fbp_movebound.Movebound.area in
      if cap > 0.0 then max_density := Float.max !max_density (area_per_mb.(i) /. cap))
    inst.Fbp_movebound.Instance.movebounds;
  {
    n_movebounds = Fbp_movebound.Instance.n_movebounds inst;
    n_cells = n;
    pct_bound = float_of_int !bound /. float_of_int (max 1 n);
    max_mb_density = !max_density;
    overlapping = is_overlapping scenario.shape;
    flattened = is_flattened scenario.shape;
  }

(* Attach with a feasibility guarantee: if the scenario is infeasible under
   the row-aware capacity model (possible for exclusive bounds, which steal
   capacity from everyone else), back off the coverage until the Theorem-2
   check passes.  Returns the instance and the coverage actually used. *)
let attach_feasible (scenario : scenario) (design : Design.t) =
  let density_model = Fbp_core.Density.create design in
  (* 0.90: leave legalization headroom beyond the fractional bound —
     integral cells at >93% fill strand wide stragglers *)
  let capacity_of (r : Fbp_movebound.Regions.region) =
    0.90 *. design.Design.target_density
    *. Rect_set.area
         (Fbp_core.Density.usable_rows_area density_model ~chip:design.Design.chip
            ~row_height:design.Design.row_height r.Fbp_movebound.Regions.area)
  in
  let rec go coverage tries =
    let inst = attach { scenario with coverage } design in
    if tries = 0 then (inst, coverage)
    else
      match Fbp_movebound.Feasibility.check_instance ~capacity_of inst with
      | Ok (Fbp_movebound.Feasibility.Feasible, _) -> (inst, coverage)
      | Ok (Fbp_movebound.Feasibility.Infeasible _, _) | Error _ ->
        go (coverage *. 0.75) (tries - 1)
  in
  go scenario.coverage 6
