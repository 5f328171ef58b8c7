(* The flow-based partitioning model (Section IV-A).

   Given a window grid, the region pieces per window, and the current cell
   positions, build the MinCostFlow instance whose solution prescribes how
   much cell area of each movebound class moves where:

   - one *cell-group* node per (window, class) with cells present, embedded
     at the group's center of gravity, supplying its total cell area;
   - four *transit* nodes per (window, class), embedded at the window
     boundary midpoints, with zero balance — the buffer regions of the
     realization;
   - one *region* node per region-in-window piece (shared by all classes),
     demanding its capacity;
   - edge families E^cr, E^ct, E^tt, E^tr inside each window with
     L1-distance costs, plus zero-cost external arcs between facing transit
     nodes of 4-adjacent windows (both directions).

   Transit (and cell-group) nodes of a class are restricted to the windows
   of a rectangular range covering both the class's area and its current
   cells (the paper restricts to the movebound's bounding box; cells may
   start outside it for incremental placements, so the range is widened to
   include them).  |V| and |E| stay linear in |W| + |R| — the property
   Table I demonstrates.

   The unconstrained cells form class index [n_movebounds] whose "area" is
   the whole chip. *)

open Fbp_geometry
open Fbp_flow
open Fbp_netlist

type group = {
  w : int;  (* window *)
  m : int;  (* class: movebound id, or n_movebounds for unconstrained *)
  cells : int list;
  total : float;
  cog : Point.t;
}

type arc_kind =
  | Cell_to_piece of { group : int; piece : int }
  | Cell_to_transit of { group : int; dir : int }
  | Transit_to_transit of { w : int; m : int; from_dir : int; to_dir : int }
  | Transit_to_piece of { w : int; m : int; dir : int; piece : int }
  | External of { m : int; from_w : int; to_w : int; from_dir : int }

type t = {
  grid : Grid.t;
  n_classes : int;  (* n_movebounds + 1 *)
  groups : group array;
  group_index : (int * int, int) Hashtbl.t;  (* (w, m) -> group id *)
  graph : Graph.t;
  supply : float array;
  arcs : (int * arc_kind) array;  (* (arc id, kind) *)
  n_nodes : int;
  n_edges : int;  (* forward arcs *)
  relaxed : bool;  (* built with [relax_penalty] (inadmissible arcs exist) *)
}

type external_flow = {
  xm : int;  (* class *)
  from_w : int;
  to_w : int;
  from_dir : int;  (* direction leaving from_w *)
  amount : float;
}

type solution = {
  model : t;
  verdict : Mcf.result;
  mcf_rounds : int;
  (* area of class m prescribed to land in piece p: allot.(p * n_classes + m) *)
  allot : float array;
  externals : external_flow list;
}

let eps = 1e-7

(* Window-index range (inclusive) of a class: covers the class area's
   bounding box and every window currently holding one of its cells. *)
let class_range (grid : Grid.t) (area_bbox : Rect.t option) cell_windows =
  let nx = grid.Grid.nx and ny = grid.Grid.ny in
  let x0 = ref max_int and x1 = ref min_int and y0 = ref max_int and y1 = ref min_int in
  let add_window w =
    let win = grid.Grid.windows.(w) in
    if win.Grid.wx < !x0 then x0 := win.Grid.wx;
    if win.Grid.wx > !x1 then x1 := win.Grid.wx;
    if win.Grid.wy < !y0 then y0 := win.Grid.wy;
    if win.Grid.wy > !y1 then y1 := win.Grid.wy
  in
  (match area_bbox with
   | None ->
     (* unconstrained class: whole grid *)
     x0 := 0; x1 := nx - 1; y0 := 0; y1 := ny - 1
   | Some bb ->
     add_window (Grid.window_at grid (Point.make bb.Rect.x0 bb.Rect.y0));
     add_window (Grid.window_at grid (Point.make bb.Rect.x1 bb.Rect.y1)));
  List.iter add_window cell_windows;
  (!x0, !x1, !y0, !y1)

let in_range (x0, x1, y0, y1) (win : Grid.window) =
  win.Grid.wx >= x0 && win.Grid.wx <= x1 && win.Grid.wy >= y0 && win.Grid.wy <= y1

let build ?relax_penalty (inst : Fbp_movebound.Instance.t)
    (regions : Fbp_movebound.Regions.t) (grid : Grid.t) (pos : Placement.t) =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let k = Fbp_movebound.Instance.n_movebounds inst in
  let n_classes = k + 1 in
  let nw = Grid.n_windows grid in
  (* cells per (window, class) *)
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
        { w; m; cells; total; cog } :: acc)
      group_cells []
    |> List.sort (fun a b ->
           match Int.compare a.w b.w with 0 -> Int.compare a.m b.m | c -> c)
    |> Array.of_list
  in
  let group_index = Hashtbl.create (Array.length groups) in
  Array.iteri (fun i g -> Hashtbl.add group_index (g.w, g.m) i) groups;
  (* class ranges *)
  let cell_windows_of_class = Array.make n_classes [] in
  Array.iter
    (fun g -> cell_windows_of_class.(g.m) <- g.w :: cell_windows_of_class.(g.m))
    groups;
  let ranges =
    Array.init n_classes (fun m ->
        let bbox =
          if m = k then None
          else
            Some (Rect_set.bbox inst.Fbp_movebound.Instance.movebounds.(m).Fbp_movebound.Movebound.area)
        in
        class_range grid bbox cell_windows_of_class.(m))
  in
  (* a class is "present" only if it has cells; absent classes need no nodes *)
  let present = Array.map (fun ws -> ws <> []) cell_windows_of_class in
  (* node numbering: groups, then transits, then pieces *)
  let n_groups = Array.length groups in
  let transit_node = Hashtbl.create 256 in
  let next = ref n_groups in
  for w = 0 to nw - 1 do
    for m = 0 to n_classes - 1 do
      if present.(m) && in_range ranges.(m) grid.Grid.windows.(w) then
        for dir = 0 to 3 do
          Hashtbl.add transit_node (w, m, dir) !next;
          incr next
        done
    done
  done;
  let piece_base = !next in
  let n_nodes = piece_base + Grid.n_pieces grid in
  let graph = Graph.create n_nodes in
  let supply = Array.make n_nodes 0.0 in
  Array.iteri (fun i g -> supply.(i) <- g.total) groups;
  Array.iter
    (fun (p : Grid.piece) -> supply.(piece_base + p.Grid.id) <- -.p.Grid.capacity)
    grid.Grid.pieces;
  let arcs = ref [] in
  (* "uncapacitated" arcs get a finite bound (total supply) so residual
     bookkeeping stays NaN-free *)
  let big =
    1.0 +. Array.fold_left (fun acc g -> acc +. g.total) 0.0 groups
  in
  let add_arc ~u ~v ~cost kind =
    let a = Graph.add_edge graph ~u ~v ~cap:big ~cost in
    arcs := (a, kind) :: !arcs
  in
  let admissible_piece m (p : Grid.piece) =
    let mb = if m = k then -1 else m in
    Fbp_movebound.Regions.admissible regions.Fbp_movebound.Regions.regions.(p.Grid.region) ~mb
  in
  (* Movebound slack relaxation (degradation ladder): with [relax_penalty]
     set, arcs into inadmissible pieces exist too, at base cost plus the
     penalty — the flow prefers admissible placements but can always route,
     so only genuine capacity shortage stays infeasible. *)
  let piece_cost m (p : Grid.piece) base =
    if admissible_piece m p then Some base
    else match relax_penalty with Some pen -> Some (base +. pen) | None -> None
  in
  (* intra-window edges *)
  Array.iteri
    (fun gi g ->
      (* E^cr *)
      List.iter
        (fun pid ->
          let p = grid.Grid.pieces.(pid) in
          match piece_cost g.m p (Point.dist_l1 g.cog p.Grid.centroid) with
          | Some cost ->
            add_arc ~u:gi ~v:(piece_base + pid) ~cost
              (Cell_to_piece { group = gi; piece = pid })
          | None -> ())
        grid.Grid.pieces_of_window.(g.w);
      (* E^ct *)
      for dir = 0 to 3 do
        match Hashtbl.find_opt transit_node (g.w, g.m, dir) with
        | Some tn ->
          add_arc ~u:gi ~v:tn
            ~cost:(Point.dist_l1 g.cog (Grid.boundary_point grid g.w dir))
            (Cell_to_transit { group = gi; dir })
        | None -> ()
      done)
    groups;
  (* transit-side edges per (window, class) *)
  for w = 0 to nw - 1 do
    for m = 0 to n_classes - 1 do
      if present.(m) && in_range ranges.(m) grid.Grid.windows.(w) then begin
        (* E^tt *)
        for d1 = 0 to 3 do
          for d2 = 0 to 3 do
            if d1 <> d2 then begin
              let u = Hashtbl.find transit_node (w, m, d1) in
              let v = Hashtbl.find transit_node (w, m, d2) in
              add_arc ~u ~v
                ~cost:
                  (Point.dist_l1 (Grid.boundary_point grid w d1)
                     (Grid.boundary_point grid w d2))
                (Transit_to_transit { w; m; from_dir = d1; to_dir = d2 })
            end
          done
        done;
        (* E^tr *)
        for dir = 0 to 3 do
          let u = Hashtbl.find transit_node (w, m, dir) in
          List.iter
            (fun pid ->
              let p = grid.Grid.pieces.(pid) in
              match
                piece_cost m p
                  (Point.dist_l1 (Grid.boundary_point grid w dir) p.Grid.centroid)
              with
              | Some cost ->
                add_arc ~u ~v:(piece_base + pid) ~cost
                  (Transit_to_piece { w; m; dir; piece = pid })
              | None -> ())
            grid.Grid.pieces_of_window.(w)
        done;
        (* E^ext: arcs to 4-neighbours inside the class range (one direction
           here; the neighbour's own iteration adds the reverse) *)
        List.iter
          (fun (dir, w') ->
            if in_range ranges.(m) grid.Grid.windows.(w') then begin
              let u = Hashtbl.find transit_node (w, m, dir) in
              let v = Hashtbl.find transit_node (w', m, Grid.opposite_dir dir) in
              add_arc ~u ~v ~cost:0.0 (External { m; from_w = w; to_w = w'; from_dir = dir })
            end)
          (Grid.neighbors grid w)
      end
    done
  done;
  let arcs = Array.of_list (List.rev !arcs) in
  {
    grid;
    n_classes;
    groups;
    group_index;
    graph;
    supply;
    arcs;
    n_nodes;
    n_edges = Array.length arcs;
    relaxed = Option.is_some relax_penalty;
  }

(* The simplex basis is a spanning tree and the external arcs' capacity
   (total supply + 1) is never reached, so the flow-carrying external arcs
   are tree arcs: acyclic, as the realization's topological order needs
   (Section IV-B). *)
let solve (t : t) =
  let verdict, mcf_stats = Mcf.solve_stats t.graph ~supply:t.supply in
  let allot = Array.make (Grid.n_pieces t.grid * t.n_classes) 0.0 in
  let externals = ref [] in
  Array.iter
    (fun (a, kind) ->
      let f = Graph.flow t.graph a in
      if f > eps then
        match kind with
        | Cell_to_piece { group; piece } ->
          let m = t.groups.(group).m in
          allot.((piece * t.n_classes) + m) <- allot.((piece * t.n_classes) + m) +. f
        | Transit_to_piece { m; piece; _ } ->
          allot.((piece * t.n_classes) + m) <- allot.((piece * t.n_classes) + m) +. f
        | External { m; from_w; to_w; from_dir } ->
          externals := { xm = m; from_w; to_w; from_dir; amount = f } :: !externals
        | Cell_to_transit _ | Transit_to_transit _ -> ())
    t.arcs;
  { model = t; verdict; mcf_rounds = mcf_stats.Mcf.rounds; allot;
    externals = List.rev !externals }

let allotment (s : solution) ~piece ~m = s.allot.((piece * s.model.n_classes) + m)
