(* Tests for fbp_core: density/capacity model, window grids, QP optimality,
   the FBP flow model invariants (Theorem 3 behaviour, conservation, size
   linearity), realization invariants, and the full placer. *)

open Fbp_geometry
open Fbp_netlist
open Fbp_core

let check_float = Alcotest.(check (float 1e-6))

(* A netlist over cells of the given [widths] (unit height, movable and
   unbounded unless said otherwise); each net is its weight and its
   (cell, dx, dy) pins. *)
let netlist ?names ?heights ?fixed ?movebound ~widths
    (nets : (float * (int * float * float) array) array) =
  let n = Array.length widths in
  let net_start = Array.make (Array.length nets + 1) 0 in
  Array.iteri
    (fun i (_, pins) -> net_start.(i + 1) <- net_start.(i) + Array.length pins)
    nets;
  let pins = Array.concat (Array.to_list (Array.map snd nets)) in
  let default v = Option.value ~default:v in
  Netlist.make
    ~names:(default (Array.init n (Printf.sprintf "c%d")) names)
    ~widths
    ~heights:(default (Array.make n 1.0) heights)
    ~fixed:(default (Array.make n false) fixed)
    ~movebound:(default (Array.make n (-1)) movebound)
    ~net_start ~net_weight:(Array.map fst nets)
    ~pin_cell:(Array.map (fun (c, _, _) -> c) pins)
    ~pin_dx:(Array.map (fun (_, dx, _) -> dx) pins)
    ~pin_dy:(Array.map (fun (_, _, dy) -> dy) pins)

(* ---------- Density ---------- *)

let test_density_capacity () =
  let density =
    Density.of_parts
      ~blockages:[ Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0 ]
      ~density:0.5
  in
  let r = Rect.make ~x0:0.0 ~y0:0.0 ~x1:4.0 ~y1:4.0 in
  (* (16 - 4) * 0.5 *)
  check_float "capacity with blockage" 6.0 (Density.capacity_rect density r);
  let all_blocked = Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0 in
  check_float "fully blocked" 0.0 (Density.capacity_rect density all_blocked)

let test_density_bins () =
  let d = Generator.quick ~seed:8 300 in
  let usage, cap = Density.bin_utilization d d.Design.initial ~nx:4 ~ny:4 in
  let total_usage = Array.fold_left ( +. ) 0.0 usage in
  Alcotest.(check (float 1.0)) "usage sums to movable area"
    (Netlist.total_movable_area d.Design.netlist) total_usage;
  Alcotest.(check bool) "caps positive somewhere" true (Array.exists (fun c -> c > 0.0) cap)

(* ---------- Grid ---------- *)

let fixture_regions () =
  Fbp_movebound.Regions.decompose
    ~chip:(Rect.make ~x0:0.0 ~y0:0.0 ~x1:8.0 ~y1:8.0)
    [| Fbp_movebound.Movebound.make ~id:0 ~name:"m" ~kind:Fbp_movebound.Movebound.Inclusive
         [ Rect.make ~x0:1.0 ~y0:1.0 ~x1:5.0 ~y1:5.0 ] |]

let test_grid_windows_tile () =
  let regions = fixture_regions () in
  let density = Density.of_parts ~blockages:[] ~density:1.0 in
  let chip = Rect.make ~x0:0.0 ~y0:0.0 ~x1:8.0 ~y1:8.0 in
  let g = Grid.create ~chip ~nx:4 ~ny:2 ~regions ~density () in
  Alcotest.(check int) "n windows" 8 (Grid.n_windows g);
  let total = Array.fold_left (fun acc (w : Grid.window) -> acc +. Rect.area w.Grid.rect) 0.0 g.Grid.windows in
  check_float "windows tile chip" 64.0 total;
  (* pieces tile the chip too, and capacities sum to chip capacity *)
  let ptotal =
    Array.fold_left (fun acc (p : Grid.piece) -> acc +. Rect_set.area p.Grid.area) 0.0 g.Grid.pieces
  in
  check_float "pieces tile chip" 64.0 ptotal;
  let ctotal = Array.fold_left (fun acc (p : Grid.piece) -> acc +. p.Grid.capacity) 0.0 g.Grid.pieces in
  check_float "capacities = chip capacity" 64.0 ctotal

let test_grid_lookup () =
  let regions = fixture_regions () in
  let density = Density.of_parts ~blockages:[] ~density:1.0 in
  let chip = Rect.make ~x0:0.0 ~y0:0.0 ~x1:8.0 ~y1:8.0 in
  let g = Grid.create ~chip ~nx:4 ~ny:4 ~regions ~density () in
  Alcotest.(check int) "window at origin" 0 (Grid.window_at g (Point.make 0.1 0.1));
  Alcotest.(check int) "window at far corner" 15 (Grid.window_at g (Point.make 7.9 7.9));
  Alcotest.(check int) "clamped outside" 0 (Grid.window_at g (Point.make (-3.0) (-3.0)));
  (* boundary points sit on the window frame *)
  let bp = Grid.boundary_point g 0 1 in
  check_float "east boundary x" 2.0 bp.Point.x;
  Alcotest.(check int) "opposite of N is S" 2 (Grid.opposite_dir 0);
  Alcotest.(check int) "4 neighbors in the middle" 4 (List.length (Grid.neighbors g 5));
  Alcotest.(check int) "2 neighbors in the corner" 2 (List.length (Grid.neighbors g 0))

(* ---------- QP ---------- *)

(* two movable cells on a line between two pads: optimum is equidistant *)
let test_qp_spring_chain () =
  let nl =
    netlist ~widths:[| 1.0; 1.0 |]
      [|
        (1.0, [| (-1, 0.0, 0.0); (0, 0.0, 0.0) |]);
        (1.0, [| (0, 0.0, 0.0); (1, 0.0, 0.0) |]);
        (1.0, [| (1, 0.0, 0.0); (-1, 9.0, 0.0) |]);
      |]
  in
  let pos = Placement.create 2 in
  let st = Qp.solve_global Config.default nl pos ~anchor:(fun _ -> None) () in
  Alcotest.(check bool) "solved" true (st.Qp.residual < 1e-4);
  Alcotest.(check (float 1e-3)) "x0 at 3" 3.0 pos.Placement.x.(0);
  Alcotest.(check (float 1e-3)) "x1 at 6" 6.0 pos.Placement.x.(1)

let test_qp_anchor_pulls () =
  let nl = netlist ~widths:[| 1.0 |] [||] in
  let pos = Placement.create 1 in
  ignore
    (Qp.solve_global Config.default nl pos
       ~anchor:(fun _ -> Some (1.0, 4.0, 1.0, -2.0)) ());
  Alcotest.(check (float 1e-4)) "anchored x" 4.0 pos.Placement.x.(0);
  Alcotest.(check (float 1e-4)) "anchored y" (-2.0) pos.Placement.y.(0)

let test_qp_star_matches_small_clique_roughly () =
  (* a 6-pin net between a fixed pad and 5 movable cells: star model must
     pull all cells toward the pad symmetrically *)
  let pins =
    Array.init 6 (fun i ->
        if i = 0 then (-1, 10.0, 10.0) else (i - 1, 0.0, 0.0))
  in
  let nl = netlist ~widths:(Array.make 5 1.0) [| (1.0, pins) |] in
  let pos = Placement.create 5 in
  ignore (Qp.solve_global Config.default nl pos ~anchor:(fun _ -> None) ());
  for c = 0 to 4 do
    Alcotest.(check (float 1e-2)) "pulled to pad x" 10.0 pos.Placement.x.(c);
    Alcotest.(check (float 1e-2)) "pulled to pad y" 10.0 pos.Placement.y.(c)
  done

(* ---------- Netmodel workspace ---------- *)

let local_system_inputs design ~lo ~hi =
  let nl = design.Design.netlist in
  let movable = Array.init (hi - lo) (fun i -> lo + i) in
  let nets =
    Array.to_list movable
    |> List.concat_map (fun c ->
           let lo = nl.Netlist.cell_net_start.(c) in
           Array.to_list
             (Array.sub nl.Netlist.cell_net lo (nl.Netlist.cell_net_start.(c + 1) - lo)))
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  (movable, nets)

let assemble ?workspace design ~movable ~nets ~anchor =
  Netmodel.assemble design.Design.netlist design.Design.initial ?workspace
    ~movable ~nets ~clique_max_degree:3 ~anchor ()

let system_bits (sys : Netmodel.system) =
  let entries a =
    let l = ref [] in
    Fbp_linalg.Csr.iter_entries a (fun r c v ->
        l := (r, c, Int64.bits_of_float v) :: !l);
    List.rev !l
  in
  (* a reused workspace's arrays run past [n_vars] by design *)
  let n = sys.Netmodel.n_vars in
  let bits a = Array.map Int64.bits_of_float (Array.sub a 0 n) in
  ( n,
    Array.sub sys.Netmodel.cells 0 n,
    entries sys.Netmodel.ax,
    (bits sys.Netmodel.bx, bits sys.Netmodel.by) )

(* A reused workspace must give the fresh workspace's system bit for bit,
   whatever it assembled before: a larger netlist, another movable set of
   the same netlist, or a call whose [anchor] raised half-way. *)
let test_netmodel_workspace_reuse () =
  let design = Generator.quick ~seed:5 300 in
  let movable, nets = local_system_inputs design ~lo:40 ~hi:100 in
  let pull = Some (1e-4, 50.0, 1e-4, 40.0) in
  let anchor _ = pull in
  let fresh = system_bits (assemble design ~movable ~nets ~anchor) in
  let n_vars, _, _, _ = fresh in
  Alcotest.(check bool) "the local system has star vars" true
    (n_vars > Array.length movable);
  let same_after label prior =
    let workspace = Netmodel.create_workspace () in
    prior workspace;
    let reused = assemble ~workspace design ~movable ~nets ~anchor in
    Alcotest.(check bool) label true (system_bits reused = fresh)
  in
  same_after "after a larger netlist" (fun workspace ->
      let big = Generator.quick ~seed:9 800 in
      let all = Qp.all_movable big.Design.netlist in
      ignore
        (Netmodel.assemble big.Design.netlist big.Design.initial ~workspace
           ~movable:all ~clique_max_degree:3 ~anchor ()));
  same_after "after another movable set" (fun workspace ->
      let movable, nets = local_system_inputs design ~lo:150 ~hi:260 in
      ignore (assemble ~workspace design ~movable ~nets ~anchor));
  same_after "after an anchor that raised" (fun workspace ->
      let calls = ref 0 in
      let raising c =
        incr calls;
        if !calls > 30 then raise Exit else anchor c
      in
      match assemble ~workspace design ~movable ~nets ~anchor:raising with
      | _ -> Alcotest.fail "anchor must raise"
      | exception Exit -> ());
  same_after "after an anchor with unequal weights" (fun workspace ->
      let unequal c =
        if c = movable.(30) then Some (1e-4, 50.0, 2e-4, 40.0) else anchor c
      in
      match assemble ~workspace design ~movable ~nets ~anchor:unequal with
      | _ -> Alcotest.fail "unequal anchor weights must raise"
      | exception Invalid_argument _ -> ())

(* The level-0 global system of [design]: every movable cell, anchored at
   the chip centre as the placer's first QP is. *)
let global_system ?cache design =
  let nl = design.Design.netlist in
  let c = Rect.center design.Design.chip in
  Netmodel.assemble nl design.Design.initial ?cache
    ~movable:(Qp.all_movable nl)
    ~clique_max_degree:Config.default.Config.clique_max_degree
    ~anchor:(fun _ -> Some (1e-6, c.Point.x, 1e-6, c.Point.y)) ()

(* Both axes share one Laplacian, so an assembly freezes one matrix and
   hands it out under both names, and a cached global assembly keeps one
   symbolic structure: one refreeze event per assembly. *)
let test_netmodel_one_matrix () =
  let module Obs = Fbp_obs.Obs in
  let design = Generator.quick ~seed:5 300 in
  let movable, nets = local_system_inputs design ~lo:40 ~hi:100 in
  let pull = Some (1e-4, 50.0, 1e-4, 40.0) in
  let local = assemble design ~movable ~nets ~anchor:(fun _ -> pull) in
  Alcotest.(check bool) "the local system has star vars" true
    (local.Netmodel.n_vars > Array.length movable);
  Alcotest.(check bool) "local: ax == ay" true
    (local.Netmodel.ax == local.Netmodel.ay);
  let cache = Netmodel.create_cache () in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      Obs.enable ();
      List.iter
        (fun label ->
          let sys = global_system ~cache design in
          Alcotest.(check bool) label true (sys.Netmodel.ax == sys.Netmodel.ay))
        [ "global: ax == ay"; "refrozen global: ax == ay" ];
      Alcotest.(check (pair int int)) "one miss, then one hit" (1, 1)
        ( Obs.counter_value "netmodel.refreeze_misses",
          Obs.counter_value "netmodel.refreeze_hits" ))

(* MD5 over the entries of the shared matrix and the bits of both
   right-hand sides. *)
let system_digest (sys : Netmodel.system) =
  let b = Buffer.create 65536 in
  Fbp_linalg.Csr.iter_entries sys.Netmodel.ax (fun r c v ->
      Printf.bprintf b "%d %d %Lx\n" r c (Int64.bits_of_float v));
  let bits label a =
    Buffer.add_string b label;
    Array.iter (fun v -> Printf.bprintf b " %Lx" (Int64.bits_of_float v)) a;
    Buffer.add_char b '\n'
  in
  bits "bx" sys.Netmodel.bx;
  bits "by" sys.Netmodel.by;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The digests were taken from the two-builder assembly, whose x and y
   matrices had equal entries: any change to the spring, anchor or
   regularizer arithmetic or to the triplet order shows here. *)
let test_netmodel_system_bits_pinned () =
  let design = Generator.quick ~seed:5 300 in
  let movable, nets = local_system_inputs design ~lo:40 ~hi:100 in
  let pull = Some (1e-4, 50.0, 1e-4, 40.0) in
  let local = assemble design ~movable ~nets ~anchor:(fun _ -> pull) in
  Alcotest.(check string) "local system" "685ea267e61c7328bec4609dfe3efc13"
    (system_digest local);
  Alcotest.(check string) "level-0 global system"
    "11da7b6ea0089c1bbaf67f628c813028"
    (system_digest (global_system design))

(* Words allocated by [f ()], counted exactly: the minor counter plus
   direct major allocations (arrays over 256 words skip the minor heap). *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  (r, int_of_float (w1 -. w0))

(* A warmed workspace owns the system it hands out, so an assembly
   allocates only closures, option boxes and the system record, and
   [~nets:[||]] assembles no net at all, whatever the size of the
   netlist. *)
let test_netmodel_allocation_budget () =
  let slack = 256 in
  let design = Generator.quick ~seed:5 300 in
  let movable, nets = local_system_inputs design ~lo:40 ~hi:100 in
  let pull = Some (1e-4, 50.0, 1e-4, 40.0) in
  let anchor _ = pull in
  let workspace = Netmodel.create_workspace () in
  ignore (assemble ~workspace design ~movable ~nets ~anchor);
  let sys, words =
    allocated_words (fun () -> assemble ~workspace design ~movable ~nets ~anchor)
  in
  if words > slack then
    Alcotest.failf "a warmed local assembly allocated %d words (%d vars)" words
      sys.Netmodel.n_vars;
  (* cell 0 has no net; every other cell hangs off a pad by [n_nets] nets *)
  let no_nets_words n_nets =
    let n_cells = 50 in
    let nl =
      netlist ~widths:(Array.make n_cells 1.0)
        (Array.init n_nets (fun i ->
             (1.0, [| (-1, 0.0, 0.0); (1 + (i mod (n_cells - 1)), 0.0, 0.0) |])))
    in
    let pos = Placement.create n_cells in
    let workspace = Netmodel.create_workspace () in
    let run () =
      Netmodel.assemble nl pos ~workspace ~movable:[| 0 |] ~nets:[||]
        ~clique_max_degree:3 ~anchor:(fun _ -> None) ()
    in
    ignore (run ());
    let sys, words = allocated_words run in
    Alcotest.(check int) "only the regularizer" 1
      (Fbp_linalg.Csr.nnz sys.Netmodel.ax);
    words
  in
  let small = no_nets_words 10_000 and large = no_nets_words 40_000 in
  if small > slack || large > small then
    Alcotest.failf "~nets:[||] allocated %d words at 10k nets, %d at 40k" small
      large

(* ---------- FBP model ---------- *)

let small_instance ?(n_cells = 400) ?(seed = 3) () =
  let d = Generator.quick ~seed ~name:"t" n_cells in
  Fbp_movebound.Instance.unconstrained d

let build_model ?(nx = 4) inst =
  let design = inst.Fbp_movebound.Instance.design in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:design.Design.chip
      inst.Fbp_movebound.Instance.movebounds
  in
  let density = Density.create design in
  let grid = Grid.create ~chip:design.Design.chip ~nx ~ny:nx ~regions ~density () in
  let model = Fbp_model.build inst regions grid design.Design.initial in
  (regions, grid, model)

let test_fbp_model_size_linear () =
  (* |V| and |E| must not scale with the number of cells (paper Table I) *)
  let _, _, m1 = build_model (small_instance ~n_cells:300 ()) in
  let _, _, m2 = build_model (small_instance ~n_cells:1200 ()) in
  Alcotest.(check bool) "node count cell-independent" true
    (abs (m1.Fbp_model.n_nodes - m2.Fbp_model.n_nodes) * 10 < m1.Fbp_model.n_nodes + 10);
  Alcotest.(check bool) "edges within 2x" true
    (m2.Fbp_model.n_edges < 2 * m1.Fbp_model.n_edges + 32)

let test_fbp_model_feasible_and_conserving () =
  let inst = small_instance () in
  let _, grid, model = build_model inst in
  let sol = Fbp_model.solve model in
  (match sol.Fbp_model.verdict with
   | Fbp_flow.Mcf.Feasible _ -> ()
   | Fbp_flow.Mcf.Infeasible _ -> Alcotest.fail "expected feasible");
  (* prescriptions cover all movable area *)
  let total_allot = Array.fold_left ( +. ) 0.0 sol.Fbp_model.allot in
  let movable = Netlist.total_movable_area inst.Fbp_movebound.Instance.design.Design.netlist in
  Alcotest.(check (float 0.5)) "allotments = movable area" movable total_allot;
  (* no piece over capacity *)
  Array.iter
    (fun (p : Grid.piece) ->
      let assigned = ref 0.0 in
      for m = 0 to model.Fbp_model.n_classes - 1 do
        assigned := !assigned +. Fbp_model.allotment sol ~piece:p.Grid.id ~m
      done;
      if !assigned > p.Grid.capacity +. 1e-4 then
        Alcotest.failf "piece %d over capacity: %.3f > %.3f" p.Grid.id !assigned p.Grid.capacity)
    grid.Grid.pieces

let test_fbp_model_infeasible_detected () =
  (* an inclusive movebound far too small for its cells *)
  let d = Generator.quick ~seed:5 ~name:"t" 300 in
  let nl = d.Design.netlist in
  for c = 0 to 99 do
    nl.Netlist.movebound.(c) <- 0
  done;
  let tiny = Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:2.0 in
  let inst =
    { Fbp_movebound.Instance.design = d;
      movebounds =
        [| Fbp_movebound.Movebound.make ~id:0 ~name:"tiny"
             ~kind:Fbp_movebound.Movebound.Inclusive [ tiny ] |] }
  in
  let _, _, model = build_model inst in
  let sol = Fbp_model.solve model in
  match sol.Fbp_model.verdict with
  | Fbp_flow.Mcf.Infeasible _ -> ()
  | Fbp_flow.Mcf.Feasible _ -> Alcotest.fail "expected infeasible (Theorem 3)"

let test_fbp_flow_min_cost () =
  (* the solved FBP flow is a min-cost flow (no negative residual cycle)
     and prescribes all movable area *)
  let inst = small_instance ~n_cells:500 ~seed:19 () in
  let _, _, model = build_model ~nx:4 inst in
  let sol = Fbp_model.solve model in
  (match sol.Fbp_model.verdict with
   | Fbp_flow.Mcf.Feasible _ -> ()
   | Fbp_flow.Mcf.Infeasible _ -> Alcotest.fail "expected feasible");
  let movable =
    Netlist.total_movable_area inst.Fbp_movebound.Instance.design.Design.netlist
  in
  Alcotest.(check (float 0.5)) "prescribed area = movable area" movable
    (Array.fold_left ( +. ) 0.0 sol.Fbp_model.allot);
  Alcotest.(check bool) "min-cost" true
    (Fbp_flow.Mcf.check_optimal model.Fbp_model.graph)

(* the external flow graph must be a DAG per class *)
let check_externals_acyclic (sol : Fbp_model.solution) =
  let edges = Hashtbl.create 64 in
  List.iter
    (fun (e : Fbp_model.external_flow) ->
      Hashtbl.replace edges (e.Fbp_model.xm, e.Fbp_model.from_w)
        (e.Fbp_model.to_w
        :: (try Hashtbl.find edges (e.Fbp_model.xm, e.Fbp_model.from_w) with Not_found -> [])))
    sol.Fbp_model.externals;
  let state = Hashtbl.create 64 in
  let rec visit m w =
    match Hashtbl.find_opt state (m, w) with
    | Some `Doing -> Alcotest.fail "cycle among flow-carrying external arcs"
    | Some `Done -> ()
    | None ->
      Hashtbl.replace state (m, w) `Doing;
      List.iter (visit m) (try Hashtbl.find edges (m, w) with Not_found -> []);
      Hashtbl.replace state (m, w) `Done
  in
  Hashtbl.iter (fun (m, w) _ -> visit m w) edges

let test_fbp_externals_acyclic () =
  let inst = small_instance ~n_cells:800 ~seed:11 () in
  let _, _, model = build_model ~nx:8 inst in
  check_externals_acyclic (Fbp_model.solve model);
  (* movebound-heavy: 70% of the cells in nine flattened-hierarchy bounds,
     so many classes share windows and route through transit nodes *)
  let spec = Option.get (Fbp_workloads.Designs.find_spec "rabe") in
  let d = Fbp_workloads.Designs.instantiate ~scale:1.0 spec in
  let inst =
    Fbp_workloads.Mb_gen.attach
      { Fbp_workloads.Mb_gen.design = "rabe";
        shape = Fbp_workloads.Mb_gen.Flatten 9;
        coverage = 0.7; max_density = 0.8;
        kind = Fbp_movebound.Movebound.Inclusive }
      d
  in
  let _, _, model = build_model ~nx:8 inst in
  let sol = Fbp_model.solve model in
  (match sol.Fbp_model.verdict with
   | Fbp_flow.Mcf.Feasible _ -> ()
   | Fbp_flow.Mcf.Infeasible _ -> Alcotest.fail "movebound model must be feasible");
  Alcotest.(check bool) "movebound model routes externally" true
    (sol.Fbp_model.externals <> []);
  check_externals_acyclic sol

(* ---------- flat flow model vs the list/Hashtbl reference ---------- *)

(* The per-window piece lists that [Grid.create] used to keep: each
   window's piece ids, ascending. *)
let old_pieces_of_window (grid : Grid.t) =
  let lists = Array.make (Grid.n_windows grid) [] in
  for p = Grid.n_pieces grid - 1 downto 0 do
    let w = grid.Grid.pieces.(p).Grid.window in
    lists.(w) <- p :: lists.(w)
  done;
  lists

type ref_arc = {
  ra_src : int;
  ra_dst : int;
  ra_cap : float;
  ra_cost : float;
  ra_kind : Fbp_model.arc_kind;
}

type ref_model = {
  r_groups : (int * int * int list * float * Point.t) array;  (* w m cells total cog *)
  r_nodes : int;
  r_supply : float array;
  r_arcs : ref_arc array;
}

(* The builder the flat one replaced, kept as the reference: tuple-keyed
   tables, a cell list and a [Point] per group, a boxed kind per arc. *)
let reference_build ?relax_penalty (inst : Fbp_movebound.Instance.t)
    (regions : Fbp_movebound.Regions.t) (grid : Grid.t) (pos : Placement.t) =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let k = Fbp_movebound.Instance.n_movebounds inst in
  let n_classes = k + 1 in
  let nw = Grid.n_windows grid in
  let pieces_of_window = old_pieces_of_window grid in
  let group_cells : (int * int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then begin
      let w = Grid.window_at grid (Placement.get pos c) in
      let mb = nl.Netlist.movebound.(c) in
      let m = if mb < 0 then k else mb in
      match Hashtbl.find_opt group_cells (w, m) with
      | Some l -> l := c :: !l
      | None -> Hashtbl.add group_cells (w, m) (ref [ c ])
    end
  done;
  let groups =
    Hashtbl.fold
      (fun (w, m) cells acc ->
        let cells = !cells in
        let total = List.fold_left (fun a c -> a +. Netlist.size nl c) 0.0 cells in
        let cog =
          match Placement.center_of_gravity nl pos cells with
          | Some p -> p
          | None -> Rect.center grid.Grid.windows.(w).Grid.rect
        in
        (w, m, cells, total, cog) :: acc)
      group_cells []
    |> List.sort (fun (wa, ma, _, _, _) (wb, mb, _, _, _) ->
           match Int.compare wa wb with 0 -> Int.compare ma mb | c -> c)
    |> Array.of_list
  in
  let cell_windows = Array.make n_classes [] in
  Array.iter (fun (w, m, _, _, _) -> cell_windows.(m) <- w :: cell_windows.(m)) groups;
  let ranges =
    Array.init n_classes (fun m ->
        let x0 = ref max_int and x1 = ref min_int in
        let y0 = ref max_int and y1 = ref min_int in
        let add w =
          let win = grid.Grid.windows.(w) in
          x0 := min !x0 win.Grid.wx; x1 := max !x1 win.Grid.wx;
          y0 := min !y0 win.Grid.wy; y1 := max !y1 win.Grid.wy
        in
        if m = k then begin
          x0 := 0; x1 := grid.Grid.nx - 1; y0 := 0; y1 := grid.Grid.ny - 1
        end
        else begin
          let bb =
            Rect_set.bbox
              inst.Fbp_movebound.Instance.movebounds.(m).Fbp_movebound.Movebound.area
          in
          add (Grid.window_at grid (Point.make bb.Rect.x0 bb.Rect.y0));
          add (Grid.window_at grid (Point.make bb.Rect.x1 bb.Rect.y1))
        end;
        List.iter add cell_windows.(m);
        (!x0, !x1, !y0, !y1))
  in
  let in_range m w =
    let x0, x1, y0, y1 = ranges.(m) and win = grid.Grid.windows.(w) in
    win.Grid.wx >= x0 && win.Grid.wx <= x1 && win.Grid.wy >= y0 && win.Grid.wy <= y1
  in
  let present = Array.map (fun ws -> ws <> []) cell_windows in
  let n_groups = Array.length groups in
  let transit = Hashtbl.create 256 in
  let next = ref n_groups in
  for w = 0 to nw - 1 do
    for m = 0 to n_classes - 1 do
      if present.(m) && in_range m w then
        for dir = 0 to 3 do
          Hashtbl.add transit (w, m, dir) !next;
          incr next
        done
    done
  done;
  let piece_base = !next in
  let n_nodes = piece_base + Grid.n_pieces grid in
  let supply = Array.make n_nodes 0.0 in
  Array.iteri (fun i (_, _, _, total, _) -> supply.(i) <- total) groups;
  Array.iter
    (fun (p : Grid.piece) -> supply.(piece_base + p.Grid.id) <- -.p.Grid.capacity)
    grid.Grid.pieces;
  let big = 1.0 +. Array.fold_left (fun a (_, _, _, t, _) -> a +. t) 0.0 groups in
  let arcs = ref [] in
  let add u v cost kind =
    arcs := { ra_src = u; ra_dst = v; ra_cap = big; ra_cost = cost; ra_kind = kind } :: !arcs
  in
  let piece_cost m (p : Grid.piece) base =
    let mb = if m = k then -1 else m in
    if
      Fbp_movebound.Regions.admissible
        regions.Fbp_movebound.Regions.regions.(p.Grid.region) ~mb
    then Some base
    else Option.map (fun pen -> base +. pen) relax_penalty
  in
  Array.iteri
    (fun gi (w, m, _, _, cog) ->
      List.iter
        (fun pid ->
          let p = grid.Grid.pieces.(pid) in
          match piece_cost m p (Point.dist_l1 cog p.Grid.centroid) with
          | Some cost ->
            add gi (piece_base + pid) cost (Fbp_model.Cell_to_piece { group = gi; piece = pid })
          | None -> ())
        pieces_of_window.(w);
      for dir = 0 to 3 do
        match Hashtbl.find_opt transit (w, m, dir) with
        | Some tn ->
          add gi tn
            (Point.dist_l1 cog (Grid.boundary_point grid w dir))
            (Fbp_model.Cell_to_transit { group = gi; dir })
        | None -> ()
      done)
    groups;
  for w = 0 to nw - 1 do
    for m = 0 to n_classes - 1 do
      if present.(m) && in_range m w then begin
        for d1 = 0 to 3 do
          for d2 = 0 to 3 do
            if d1 <> d2 then
              add (Hashtbl.find transit (w, m, d1)) (Hashtbl.find transit (w, m, d2))
                (Point.dist_l1 (Grid.boundary_point grid w d1) (Grid.boundary_point grid w d2))
                (Fbp_model.Transit_to_transit { w; m; from_dir = d1; to_dir = d2 })
          done
        done;
        for dir = 0 to 3 do
          List.iter
            (fun pid ->
              let p = grid.Grid.pieces.(pid) in
              match
                piece_cost m p (Point.dist_l1 (Grid.boundary_point grid w dir) p.Grid.centroid)
              with
              | Some cost ->
                add (Hashtbl.find transit (w, m, dir)) (piece_base + pid) cost
                  (Fbp_model.Transit_to_piece { w; m; dir; piece = pid })
              | None -> ())
            pieces_of_window.(w)
        done;
        List.iter
          (fun (dir, w') ->
            if in_range m w' then
              add (Hashtbl.find transit (w, m, dir))
                (Hashtbl.find transit (w', m, Grid.opposite_dir dir))
                0.0
                (Fbp_model.External { m; from_w = w; to_w = w'; from_dir = dir }))
          (Grid.neighbors grid w)
      end
    done
  done;
  { r_groups = groups; r_nodes = n_nodes; r_supply = supply;
    r_arcs = Array.of_list (List.rev !arcs) }

(* Designs with and without movebounds, on square and oblong grids. *)
let model_cases () =
  let plain seed n = Fbp_movebound.Instance.unconstrained (Generator.quick ~seed ~name:"t" n) in
  let bound seed n shape kind =
    let d = Generator.quick ~seed ~name:"t" n in
    Fbp_workloads.Mb_gen.attach
      { Fbp_workloads.Mb_gen.design = Printf.sprintf "t%d" seed; shape;
        coverage = 0.6; max_density = 0.8; kind }
      d
  in
  [
    ("plain 4x4", plain 3 400, 4, 4);
    ("plain 5x3", plain 8 700, 5, 3);
    ("flatten 5x5", bound 4 600 (Fbp_workloads.Mb_gen.Flatten 5) Fbp_movebound.Movebound.Inclusive, 5, 5);
    ("islands 6x4", bound 5 800 (Fbp_workloads.Mb_gen.Islands 3) Fbp_movebound.Movebound.Exclusive, 6, 4);
    ("overlapping 3x7", bound 6 500 (Fbp_workloads.Mb_gen.Overlapping 4) Fbp_movebound.Movebound.Inclusive, 3, 7);
  ]

let case_grid inst nx ny =
  let design = inst.Fbp_movebound.Instance.design in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:design.Design.chip
      inst.Fbp_movebound.Instance.movebounds
  in
  let density = Density.create design in
  (regions, Grid.create ~chip:design.Design.chip ~nx ~ny ~regions ~density ())

let test_grid_piece_ranges () =
  List.iter
    (fun (name, inst, nx, ny) ->
      let _, grid = case_grid inst nx ny in
      let ps = grid.Grid.piece_start in
      Alcotest.(check int) (name ^ ": one start per window, plus the end")
        (Grid.n_windows grid + 1) (Array.length ps);
      Alcotest.(check int) (name ^ ": the last range ends at the last piece")
        (Grid.n_pieces grid) ps.(Grid.n_windows grid);
      Array.iteri
        (fun w old ->
          Alcotest.(check (list int)) (Printf.sprintf "%s: window %d" name w) old
            (List.init (ps.(w + 1) - ps.(w)) (fun i -> ps.(w) + i)))
        (old_pieces_of_window grid))
    (model_cases ())

let test_fbp_model_matches_reference () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (name, inst, nx, ny) ->
      let regions, grid = case_grid inst nx ny in
      let pos = inst.Fbp_movebound.Instance.design.Design.initial in
      List.iter
        (fun relax_penalty ->
          let name =
            name ^ match relax_penalty with Some _ -> ", relaxed" | None -> ""
          in
          let r = reference_build ?relax_penalty inst regions grid pos in
          let m = Fbp_model.build ?relax_penalty inst regions grid pos in
          Alcotest.(check int) (name ^ ": nodes") r.r_nodes m.Fbp_model.n_nodes;
          Alcotest.(check (array int64)) (name ^ ": supply bits")
            (Array.map bits r.r_supply) (Array.map bits m.Fbp_model.supply);
          Alcotest.(check int) (name ^ ": groups") (Array.length r.r_groups)
            (Array.length m.Fbp_model.groups);
          Array.iteri
            (fun gi (w, cls, cells, total, (cog : Point.t)) ->
              let g = m.Fbp_model.groups.(gi) in
              let ctx = Printf.sprintf "%s: group %d" name gi in
              Alcotest.(check (pair int int)) (ctx ^ " (w, m)") (w, cls)
                (g.Fbp_model.w, g.Fbp_model.m);
              Alcotest.(check (list int)) (ctx ^ " cells") cells
                (Array.to_list (Array.sub m.Fbp_model.cells g.Fbp_model.first g.Fbp_model.len));
              Alcotest.(check (list int64)) (ctx ^ " total and cog bits")
                [ bits total; bits cog.Point.x; bits cog.Point.y ]
                [ bits g.Fbp_model.total; bits g.Fbp_model.cog.Point.x;
                  bits g.Fbp_model.cog.Point.y ])
            r.r_groups;
          Alcotest.(check int) (name ^ ": edges") (Array.length r.r_arcs)
            m.Fbp_model.n_edges;
          Alcotest.(check int) (name ^ ": graph arcs") (2 * Array.length r.r_arcs)
            (Fbp_flow.Graph.n_arcs m.Fbp_model.graph);
          let g = m.Fbp_model.graph in
          Array.iteri
            (fun e ra ->
              let a = 2 * e in
              let ctx = Printf.sprintf "%s: arc %d" name e in
              Alcotest.(check (list int)) (ctx ^ " endpoints") [ ra.ra_src; ra.ra_dst ]
                [ Fbp_flow.Graph.src g a; Fbp_flow.Graph.dst g a ];
              Alcotest.(check (list int64)) (ctx ^ " cap and cost bits")
                [ bits ra.ra_cap; bits ra.ra_cost ]
                [ bits (Fbp_flow.Graph.original_capacity g a);
                  bits (Fbp_flow.Graph.cost g a) ];
              if Fbp_model.arc_kind m a <> ra.ra_kind then
                Alcotest.failf "%s: decoded kind differs" ctx)
            r.r_arcs)
        [ None; Some 25.0 ])
    (model_cases ())

(* [Fbp_model.build] allocates the arc arena once, at its exact size (12
   words per edge), plus O(1) words per cell, per group and per (window,
   class): the list-and-table builder it replaced took about 100 words
   per edge. *)
let test_fbp_model_allocation_budget () =
  List.iter
    (fun (name, inst, nx, ny) ->
      let regions, grid = case_grid inst nx ny in
      let pos = inst.Fbp_movebound.Instance.design.Design.initial in
      ignore (Fbp_model.build inst regions grid pos);
      let m, words =
        allocated_words (fun () -> Fbp_model.build inst regions grid pos)
      in
      let n_cells = Netlist.n_cells inst.Fbp_movebound.Instance.design.Design.netlist in
      let budget =
        (16 * m.Fbp_model.n_edges) + (4 * n_cells)
        + (3 * Grid.n_windows grid * m.Fbp_model.n_classes)
        + (16 * Array.length m.Fbp_model.groups) + 4096
      in
      if words > budget then
        Alcotest.failf "%s: build allocated %d words, budget %d (%d edges, %d cells)"
          name words budget m.Fbp_model.n_edges n_cells)
    (model_cases ())

(* ---------- Realization + placer ---------- *)

let test_realization_assigns_everything () =
  let inst = small_instance ~n_cells:600 ~seed:13 () in
  let design = inst.Fbp_movebound.Instance.design in
  let regions, grid, model = build_model ~nx:4 inst in
  let sol = Fbp_model.solve model in
  let pos = Placement.copy design.Design.initial in
  let r = Realization.realize Config.default inst regions sol pos in
  let nl = design.Design.netlist in
  for c = 0 to Netlist.n_cells nl - 1 do
    if not nl.Netlist.fixed.(c) then begin
      let pid = r.Realization.piece_of_cell.(c) in
      if pid < 0 then Alcotest.failf "cell %d unassigned" c;
      (* position is inside the assigned piece *)
      let piece = grid.Grid.pieces.(pid) in
      if not (Rect_set.contains_point piece.Grid.area (Placement.get pos c)) then
        Alcotest.failf "cell %d outside its piece" c
    end
  done;
  (* per-piece load close to capacity (one-cell slack) *)
  let load = Array.make (Grid.n_pieces grid) 0.0 in
  for c = 0 to Netlist.n_cells nl - 1 do
    let pid = r.Realization.piece_of_cell.(c) in
    if pid >= 0 then load.(pid) <- load.(pid) +. Netlist.size nl c
  done;
  let max_cell = Array.fold_left Float.max 0.0 nl.Netlist.widths in
  Array.iter
    (fun (p : Grid.piece) ->
      if load.(p.Grid.id) > p.Grid.capacity +. (3.0 *. max_cell) then
        Alcotest.failf "piece %d badly overfull: %.2f vs %.2f" p.Grid.id load.(p.Grid.id)
          p.Grid.capacity)
    grid.Grid.pieces

(* Realization's node pipeline is flat and its local solves run out of
   the per-domain scratch: per wave-touched cell it allocates a bounded
   number of words (node inputs, the net ids, the transportation problem
   and [dest]), not the local system, the iterates or the transport
   set-up, let alone a tuple, boxed floats and hash-table entries per
   cell.  The second call at one domain is measured, with the cells
   counted by [realization.snapshot_cells]; it takes 77 words per cell. *)
let test_realization_allocation_budget () =
  let budget = 56 in
  let inst = small_instance ~n_cells:600 ~seed:13 () in
  let design = inst.Fbp_movebound.Instance.design in
  let regions, _, model = build_model ~nx:4 inst in
  let sol = Fbp_model.solve model in
  let cfg = { Config.default with domains = 1 } in
  let module Obs = Fbp_obs.Obs in
  let realize () =
    let pos = Placement.copy design.Design.initial in
    fun () -> ignore (Realization.realize cfg inst regions sol pos)
  in
  realize () ();
  let run = realize () in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      Obs.enable ();
      let (), words = allocated_words run in
      let cells = Obs.counter_value "realization.snapshot_cells" in
      Alcotest.(check bool) "cells were realized" true (cells > 0);
      if words > budget * cells then
        Alcotest.failf "realization allocated %d words for %d cells (%d per cell)"
          words cells (words / cells))

let test_realization_follows_flow_prescriptions () =
  (* Eq. (2) semantics: the realized per-piece load must track the flow's
     allotments within the integral-rounding slack (a few cells), and the
     number of shipped cells must be consistent with the external flow. *)
  let inst = small_instance ~n_cells:800 ~seed:23 () in
  let design = inst.Fbp_movebound.Instance.design in
  let regions, grid, model = build_model ~nx:4 inst in
  let sol = Fbp_model.solve model in
  let pos = Placement.copy design.Design.initial in
  let r = Realization.realize Config.default inst regions sol pos in
  let nl = design.Design.netlist in
  let max_cell = Array.fold_left Float.max 0.0 nl.Netlist.widths in
  (* per-piece load vs allotment *)
  let load = Array.make (Grid.n_pieces grid) 0.0 in
  for c = 0 to Netlist.n_cells nl - 1 do
    let pid = r.Realization.piece_of_cell.(c) in
    if pid >= 0 then load.(pid) <- load.(pid) +. Netlist.size nl c
  done;
  Array.iter
    (fun (p : Grid.piece) ->
      let a = ref 0.0 in
      for m = 0 to model.Fbp_model.n_classes - 1 do
        a := !a +. Fbp_model.allotment sol ~piece:p.Grid.id ~m
      done;
      if Float.abs (load.(p.Grid.id) -. !a) > 4.0 *. max_cell then
        Alcotest.failf "piece %d: load %.1f far from allotment %.1f" p.Grid.id
          load.(p.Grid.id) !a)
    grid.Grid.pieces;
  (* total external flow bounds the shipped area *)
  let ext_total =
    List.fold_left (fun acc (e : Fbp_model.external_flow) -> acc +. e.Fbp_model.amount)
      0.0 sol.Fbp_model.externals
  in
  if ext_total < 1e-9 then
    Alcotest.(check int) "no externals, nothing shipped" 0
      r.Realization.stats.Realization.n_shipped_cells

(* Post-realization invariants: every movable cell landed in a piece, its
   position is inside that piece's area, and (when requested) the piece's
   region admits the cell's movebound class. *)
let check_realization_invariants ?(check_admissible = true)
    (inst : Fbp_movebound.Instance.t) (regions : Fbp_movebound.Regions.t)
    (grid : Grid.t) ~(piece_of_cell : int array) (pos : Placement.t) =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  for c = 0 to Netlist.n_cells nl - 1 do
    if not nl.Netlist.fixed.(c) then begin
      let pid = piece_of_cell.(c) in
      if pid < 0 then Alcotest.failf "cell %d has no piece (dropped)" c;
      let piece = grid.Grid.pieces.(pid) in
      if not (Rect_set.contains_point piece.Grid.area (Placement.get pos c)) then
        Alcotest.failf "cell %d outside its assigned piece %d" c pid;
      if check_admissible then begin
        let mb = nl.Netlist.movebound.(c) in
        let reg = regions.Fbp_movebound.Regions.regions.(piece.Grid.region) in
        if not (Fbp_movebound.Regions.admissible reg ~mb) then
          Alcotest.failf "cell %d in a region inadmissible for movebound %d" c mb
      end
    end
  done

(* Regression for the dropped-cell bug: when a residual cycle among the
   external arcs survives into realization, the Kahn deadlock tie-break
   releases the smallest node of the cycle first.  When that node commits,
   its members table entry is consumed; cells the *other* cycle node later
   ships into it land in a buffer no wave ever processes and used to keep
   piece_of_cell = -1.  The crafted solution below forces exactly that:
   externals form the 2-cycle w0 -> w1 -> w0 and window 1's piece
   allotments are zeroed, so every cell of node (1, cls) must ship into the
   already-consumed node (0, cls). *)
let test_realization_flushes_cycle_residue () =
  let inst = small_instance ~n_cells:400 ~seed:7 () in
  let design = inst.Fbp_movebound.Instance.design in
  let regions, grid, model = build_model ~nx:2 inst in
  let sol = Fbp_model.solve model in
  (match sol.Fbp_model.verdict with
   | Fbp_flow.Mcf.Feasible _ -> ()
   | Fbp_flow.Mcf.Infeasible _ -> Alcotest.fail "base model must be feasible");
  let n_classes = model.Fbp_model.n_classes in
  let cls = n_classes - 1 in
  let g1 =
    match
      Array.find_opt
        (fun (g : Fbp_model.group) -> g.Fbp_model.w = 1 && g.Fbp_model.m = cls)
        model.Fbp_model.groups
    with
    | Some g -> g
    | None -> Alcotest.fail "window 1 must hold cells of the test class"
  in
  (* zero window 1's allotments so node (1, cls) only has its transit sink *)
  let allot = Array.copy sol.Fbp_model.allot in
  for pid = grid.Grid.piece_start.(1) to grid.Grid.piece_start.(2) - 1 do
    allot.((pid * n_classes) + cls) <- 0.0
  done;
  let externals =
    [
      { Fbp_model.xm = cls; from_w = 0; to_w = 1; from_dir = 1; amount = 1e-3 };
      { Fbp_model.xm = cls; from_w = 1; to_w = 0; from_dir = 3;
        amount = g1.Fbp_model.total };
    ]
  in
  let sol = { sol with Fbp_model.allot; externals } in
  let pos = Placement.copy design.Design.initial in
  let r = Realization.realize Config.default inst regions sol pos in
  (* the flush path must have fired... *)
  Alcotest.(check bool) "cycle residue went through fallback" true
    (r.Realization.stats.Realization.n_fallback_cells > 0);
  (* ...and no cell may be dropped (piece_of_cell = -1 was the bug) *)
  check_realization_invariants inst regions grid
    ~piece_of_cell:r.Realization.piece_of_cell pos

(* The invariants must also hold on the placer's end-to-end result, and stay
   true while the degradation ladder is being exercised by fault schedules
   (the same sites test_resilience uses). *)
let test_realization_invariants_end_to_end () =
  let with_inject f = Fun.protect ~finally:Fbp_resilience.Inject.reset f in
  let check_rep (rep : Placer.report) inst =
    match rep.Placer.final_grid with
    | None -> Alcotest.fail "placer must report its final grid"
    | Some grid ->
      check_realization_invariants ~check_admissible:false inst rep.Placer.regions
        grid ~piece_of_cell:rep.Placer.piece_of_cell rep.Placer.placement
  in
  let inst = small_instance ~n_cells:500 ~seed:29 () in
  (match Placer.place inst with
   | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
   | Ok rep -> check_rep rep inst);
  (* one transient flow infeasibility: margin drop / relaxation rungs *)
  with_inject (fun () ->
      Fbp_resilience.Inject.arm ~times:1 Fbp_resilience.Inject.Mcf
        (Fbp_resilience.Inject.Infeasible 1.0);
      match Placer.place inst with
      | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
      | Ok rep -> check_rep rep inst);
  (* CG stagnation: safeguarded restart must not corrupt the assignment *)
  with_inject (fun () ->
      Fbp_resilience.Inject.arm ~times:2 Fbp_resilience.Inject.Cg
        Fbp_resilience.Inject.Stagnate;
      match Placer.place inst with
      | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
      | Ok rep -> check_rep rep inst)

let test_placer_improves_and_respects_movebounds () =
  let d = Generator.quick ~seed:21 ~name:"t" 1200 in
  let chip = d.Design.chip in
  let w = Rect.width chip and h = Rect.height chip in
  let island =
    Rect.make ~x0:(0.5 *. w) ~y0:(0.5 *. h) ~x1:(0.95 *. w) ~y1:(0.95 *. h)
  in
  let nl = d.Design.netlist in
  let rng = Fbp_util.Rng.create 4 in
  for c = 0 to Netlist.n_cells nl - 1 do
    if Fbp_util.Rng.float rng < 0.15 then nl.Netlist.movebound.(c) <- 0
  done;
  let inst =
    { Fbp_movebound.Instance.design = d;
      movebounds =
        [| Fbp_movebound.Movebound.make ~id:0 ~name:"isl"
             ~kind:Fbp_movebound.Movebound.Inclusive [ island ] |] }
  in
  match Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep ->
    Alcotest.(check bool) "levels ran" true (List.length rep.Placer.levels >= 2);
    (* every constrained cell's center is inside its movebound *)
    let out = ref 0 in
    for c = 0 to Netlist.n_cells nl - 1 do
      if nl.Netlist.movebound.(c) = 0 then
        if not (Rect.contains_point island (Placement.get rep.Placer.placement c)) then
          incr out
    done;
    Alcotest.(check int) "constrained centers inside island" 0 !out

let test_placer_deterministic_parallel () =
  let inst = small_instance ~n_cells:700 ~seed:17 () in
  let run domains =
    match Placer.place ~config:{ Config.default with domains } inst with
    | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
    | Ok rep -> rep.Placer.placement
  in
  let p1 = run 1 and p4 = run 4 in
  Alcotest.(check (array (float 0.0))) "x identical" p1.Placement.x p4.Placement.x;
  Alcotest.(check (array (float 0.0))) "y identical" p1.Placement.y p4.Placement.y

let test_placer_reports_infeasible () =
  let d = Generator.quick ~seed:5 ~name:"t" 300 in
  let nl = d.Design.netlist in
  for c = 0 to 149 do
    nl.Netlist.movebound.(c) <- 0
  done;
  let tiny = Rect.make ~x0:0.0 ~y0:0.0 ~x1:2.0 ~y1:1.0 in
  let inst =
    { Fbp_movebound.Instance.design = d;
      movebounds =
        [| Fbp_movebound.Movebound.make ~id:0 ~name:"tiny"
             ~kind:Fbp_movebound.Movebound.Inclusive [ tiny ] |] }
  in
  (* strict mode surfaces the Theorem 3 certificate as a typed error *)
  (match Placer.place ~config:{ Config.default with strict = true } inst with
   | Error (Fbp_resilience.Fbp_error.Infeasible_flow _) -> ()
   | Error e ->
     Alcotest.fail ("expected Infeasible_flow, got " ^ Fbp_resilience.Fbp_error.to_string e)
   | Ok _ -> Alcotest.fail "expected infeasibility report");
  (* graceful mode degrades (movebound relaxation) instead of failing *)
  match Placer.place inst with
  | Error e ->
    Alcotest.fail ("graceful mode should not fail: " ^ Fbp_resilience.Fbp_error.to_string e)
  | Ok rep ->
    Alcotest.(check bool) "degradations recorded" true
      (rep.Placer.degradations <> [])

let suite =
  [
    Alcotest.test_case "density capacity" `Quick test_density_capacity;
    Alcotest.test_case "density bins" `Quick test_density_bins;
    Alcotest.test_case "grid windows tile" `Quick test_grid_windows_tile;
    Alcotest.test_case "grid lookup" `Quick test_grid_lookup;
    Alcotest.test_case "qp spring chain" `Quick test_qp_spring_chain;
    Alcotest.test_case "qp anchor" `Quick test_qp_anchor_pulls;
    Alcotest.test_case "qp star model" `Quick test_qp_star_matches_small_clique_roughly;
    Alcotest.test_case "netmodel workspace reuse is bit-identical" `Quick
      test_netmodel_workspace_reuse;
    Alcotest.test_case "netmodel allocation budget" `Quick
      test_netmodel_allocation_budget;
    Alcotest.test_case "netmodel one matrix for both axes" `Quick
      test_netmodel_one_matrix;
    Alcotest.test_case "netmodel system bits pinned" `Quick
      test_netmodel_system_bits_pinned;
    Alcotest.test_case "fbp model size linear in windows" `Quick test_fbp_model_size_linear;
    Alcotest.test_case "fbp model feasible + conserving" `Quick test_fbp_model_feasible_and_conserving;
    Alcotest.test_case "fbp model detects infeasible" `Quick test_fbp_model_infeasible_detected;
    Alcotest.test_case "fbp flow is min-cost" `Quick test_fbp_flow_min_cost;
    Alcotest.test_case "fbp externals acyclic" `Quick test_fbp_externals_acyclic;
    Alcotest.test_case "grid piece ranges" `Quick test_grid_piece_ranges;
    Alcotest.test_case "fbp model matches reference" `Quick
      test_fbp_model_matches_reference;
    Alcotest.test_case "fbp model allocation budget" `Quick
      test_fbp_model_allocation_budget;
    Alcotest.test_case "realization assigns everything" `Quick test_realization_assigns_everything;
    Alcotest.test_case "realization allocation budget" `Quick
      test_realization_allocation_budget;
    Alcotest.test_case "realization follows flow prescriptions" `Quick
      test_realization_follows_flow_prescriptions;
    Alcotest.test_case "realization flushes cycle residue" `Quick
      test_realization_flushes_cycle_residue;
    Alcotest.test_case "realization invariants end to end" `Quick
      test_realization_invariants_end_to_end;
    Alcotest.test_case "placer respects movebounds" `Slow test_placer_improves_and_respects_movebounds;
    Alcotest.test_case "placer deterministic across domains" `Slow test_placer_deterministic_parallel;
    Alcotest.test_case "placer reports infeasible" `Quick test_placer_reports_infeasible;
  ]
