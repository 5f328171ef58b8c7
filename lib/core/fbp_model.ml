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
  first : int;  (* members: cells.(first) .. cells.(first + len - 1) *)
  len : int;
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
  cells : int array;  (* movable cells by node w * n_classes + m, ascending within *)
  graph : Graph.t;
  supply : float array;
  node_wm : int array;  (* group or transit node -> w * n_classes + m *)
  piece_base : int;  (* first piece node *)
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

(* The build is flat (DESIGN §9, "Flat flow model"): nodes and arcs are
   numbered straight into int-indexed arrays, and the arc arena is sized
   once from a counting pass.  Per cell it allocates one int (its slot in
   [cells]), per arc only the boxed cost handed to [Graph.add_edge].  The
   float expressions are those of [Grid.window_at], [Point.dist_l1] and
   [Grid.boundary_point], written out here because a call across modules
   boxes each float argument and result. *)

(* [Grid.window_at] of the point (x, y). *)
let[@inline] window_of (grid : Grid.t) x y =
  let chip = grid.Grid.chip and nx = grid.Grid.nx and ny = grid.Grid.ny in
  let fx = (x -. chip.Rect.x0) /. (chip.Rect.x1 -. chip.Rect.x0) in
  let fy = (y -. chip.Rect.y0) /. (chip.Rect.y1 -. chip.Rect.y0) in
  let wx = max 0 (min (nx - 1) (int_of_float (fx *. float_of_int nx))) in
  let wy = max 0 (min (ny - 1) (int_of_float (fy *. float_of_int ny))) in
  (wy * nx) + wx

(* The x and y of [Grid.boundary_point] of window rectangle [r]. *)
let[@inline] boundary_x (r : Rect.t) dir =
  if dir = 1 then r.Rect.x1
  else if dir = 3 then r.Rect.x0
  else (r.Rect.x0 +. r.Rect.x1) /. 2.0

let[@inline] boundary_y (r : Rect.t) dir =
  if dir = 0 then r.Rect.y1
  else if dir = 2 then r.Rect.y0
  else (r.Rect.y0 +. r.Rect.y1) /. 2.0

(* [Point.dist_l1] of (ax, ay) and (bx, by). *)
let[@inline] dist_l1 ax ay bx by = Float.abs (ax -. bx) +. Float.abs (ay -. by)

let build ?relax_penalty (inst : Fbp_movebound.Instance.t)
    (regions : Fbp_movebound.Regions.t) (grid : Grid.t) (pos : Placement.t) =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let k = Fbp_movebound.Instance.n_movebounds inst in
  let n_classes = k + 1 in
  let nw = Grid.n_windows grid in
  let n_wm = nw * n_classes in
  let n_cells = Netlist.n_cells nl in
  let px = pos.Placement.x and py = pos.Placement.y in
  let widths = nl.Netlist.widths and heights = nl.Netlist.heights in
  let windows = grid.Grid.windows and pieces = grid.Grid.pieces in
  let piece_start = grid.Grid.piece_start in
  (* Counting sort of the movable cells by node id w * n_classes + m:
     [start.(id + 1)] counts, then [start.(id)] is the fill cursor, then
     the starts shift back into place.  Ascending ids keep each node's
     cells ascending and the nodes in (w, m) order. *)
  let node_of c =
    let mb = nl.Netlist.movebound.(c) in
    (window_of grid px.(c) py.(c) * n_classes) + if mb < 0 then k else mb
  in
  let start = Array.make (n_wm + 1) 0 in
  for c = 0 to n_cells - 1 do
    if not nl.Netlist.fixed.(c) then begin
      let id = node_of c in
      start.(id + 1) <- start.(id + 1) + 1
    end
  done;
  for id = 1 to n_wm do
    start.(id) <- start.(id) + start.(id - 1)
  done;
  let cells = Array.make start.(n_wm) 0 in
  for c = 0 to n_cells - 1 do
    if not nl.Netlist.fixed.(c) then begin
      let id = node_of c in
      cells.(start.(id)) <- c;
      start.(id) <- start.(id) + 1
    end
  done;
  for id = n_wm downto 1 do
    start.(id) <- start.(id - 1)
  done;
  start.(0) <- 0;
  (* one group per non-empty node, in id order; its total and centre of
     gravity summed over its cells in ascending order *)
  let n_groups = ref 0 in
  for id = 0 to n_wm - 1 do
    if start.(id + 1) > start.(id) then incr n_groups
  done;
  let n_groups = !n_groups in
  let next_id = ref 0 in
  let groups =
    Array.init n_groups (fun _ ->
        while start.(!next_id + 1) = start.(!next_id) do incr next_id done;
        let id = !next_id in
        incr next_id;
        let w = id / n_classes and first = start.(id) in
        let len = start.(id + 1) - first in
        let sx = ref 0.0 and sy = ref 0.0 and mass = ref 0.0 in
        for i = first to first + len - 1 do
          let c = cells.(i) in
          let s = widths.(c) *. heights.(c) in
          sx := !sx +. (s *. px.(c));
          sy := !sy +. (s *. py.(c));
          mass := !mass +. s
        done;
        let cog =
          if !mass <= 0.0 then Rect.center windows.(w).Grid.rect
          else Point.make (!sx /. !mass) (!sy /. !mass)
        in
        { w; m = id mod n_classes; first; len; total = !mass; cog })
  in
  (* Window range (inclusive) of each present class: the whole grid for
     the unconstrained class, else the class area's bounding box widened
     to every window holding one of its cells.  A class is present only
     if it has cells; absent classes need no nodes. *)
  let present = Array.make n_classes false in
  let rx0 = Array.make n_classes max_int and rx1 = Array.make n_classes min_int in
  let ry0 = Array.make n_classes max_int and ry1 = Array.make n_classes min_int in
  let add_window m w =
    let win = windows.(w) in
    if win.Grid.wx < rx0.(m) then rx0.(m) <- win.Grid.wx;
    if win.Grid.wx > rx1.(m) then rx1.(m) <- win.Grid.wx;
    if win.Grid.wy < ry0.(m) then ry0.(m) <- win.Grid.wy;
    if win.Grid.wy > ry1.(m) then ry1.(m) <- win.Grid.wy
  in
  Array.iter
    (fun g ->
      if not present.(g.m) then begin
        present.(g.m) <- true;
        if g.m = k then begin
          rx0.(k) <- 0; rx1.(k) <- grid.Grid.nx - 1;
          ry0.(k) <- 0; ry1.(k) <- grid.Grid.ny - 1
        end
        else begin
          let bb =
            Rect_set.bbox
              inst.Fbp_movebound.Instance.movebounds.(g.m).Fbp_movebound.Movebound.area
          in
          add_window g.m (Grid.window_at grid (Point.make bb.Rect.x0 bb.Rect.y0));
          add_window g.m (Grid.window_at grid (Point.make bb.Rect.x1 bb.Rect.y1))
        end
      end;
      add_window g.m g.w)
    groups;
  let in_range m w =
    let win = windows.(w) in
    win.Grid.wx >= rx0.(m) && win.Grid.wx <= rx1.(m)
    && win.Grid.wy >= ry0.(m) && win.Grid.wy <= ry1.(m)
  in
  (* node numbering: groups, then four transits (N E S W) per (w, m) in
     (w, m) order, then pieces; [transit.(w * n_classes + m)] is the
     first of a (w, m)'s transits, -1 when it has none *)
  let transit = start in
  let next = ref n_groups in
  for w = 0 to nw - 1 do
    for m = 0 to n_classes - 1 do
      let id = (w * n_classes) + m in
      if present.(m) && in_range m w then begin
        transit.(id) <- !next;
        next := !next + 4
      end
      else transit.(id) <- -1
    done
  done;
  let piece_base = !next in
  let n_nodes = piece_base + Grid.n_pieces grid in
  let node_wm = Array.make piece_base 0 in
  Array.iteri (fun gi g -> node_wm.(gi) <- (g.w * n_classes) + g.m) groups;
  for id = 0 to n_wm - 1 do
    let tn = transit.(id) in
    if tn >= 0 then Array.fill node_wm tn 4 id
  done;
  let supply = Array.make n_nodes 0.0 in
  Array.iteri (fun i g -> supply.(i) <- g.total) groups;
  Array.iter
    (fun (p : Grid.piece) -> supply.(piece_base + p.Grid.id) <- -.p.Grid.capacity)
    pieces;
  (* Movebound slack relaxation (degradation ladder): with [relax_penalty]
     set, arcs into inadmissible pieces exist too, at base cost plus the
     penalty — the flow prefers admissible placements but can always route,
     so only genuine capacity shortage stays infeasible. *)
  let admissible m pid =
    let mb = if m = k then -1 else m in
    Fbp_movebound.Regions.admissible
      regions.Fbp_movebound.Regions.regions.(pieces.(pid).Grid.region) ~mb
  in
  let relaxed = Option.is_some relax_penalty in
  let penalty = Option.value relax_penalty ~default:0.0 in
  (* arcs from class [m] into window [w]'s pieces *)
  let n_piece_arcs w m =
    if relaxed then piece_start.(w + 1) - piece_start.(w)
    else begin
      let n = ref 0 in
      for pid = piece_start.(w) to piece_start.(w + 1) - 1 do
        if admissible m pid then incr n
      done;
      !n
    end
  in
  (* counting pass: the exact edge count sizes the arena once *)
  let n_edges = ref 0 in
  Array.iter
    (fun g ->
      n_edges := !n_edges + n_piece_arcs g.w g.m;
      if transit.((g.w * n_classes) + g.m) >= 0 then n_edges := !n_edges + 4)
    groups;
  let nx = grid.Grid.nx and ny = grid.Grid.ny in
  for w = 0 to nw - 1 do
    let wx = windows.(w).Grid.wx and wy = windows.(w).Grid.wy in
    for m = 0 to n_classes - 1 do
      if transit.((w * n_classes) + m) >= 0 then begin
        n_edges := !n_edges + 12 + (4 * n_piece_arcs w m);
        if wx > 0 && in_range m (w - 1) then incr n_edges;
        if wy > 0 && in_range m (w - nx) then incr n_edges;
        if wx < nx - 1 && in_range m (w + 1) then incr n_edges;
        if wy < ny - 1 && in_range m (w + nx) then incr n_edges
      end
    done
  done;
  let n_edges = !n_edges in
  let graph = Graph.create n_nodes in
  Graph.reserve graph n_edges;
  (* "uncapacitated" arcs get a finite bound (total supply) so residual
     bookkeeping stays NaN-free *)
  let big = 1.0 +. Array.fold_left (fun acc g -> acc +. g.total) 0.0 groups in
  let add_arc u v cost = ignore (Graph.add_edge graph ~u ~v ~cap:big ~cost) in
  (* arcs into window [w]'s pieces from node [u] of class [m] at (ax, ay) *)
  let add_piece_arcs u m w ax ay =
    for pid = piece_start.(w) to piece_start.(w + 1) - 1 do
      let c = pieces.(pid).Grid.centroid in
      if admissible m pid then
        add_arc u (piece_base + pid) (dist_l1 ax ay c.Point.x c.Point.y)
      else if relaxed then
        add_arc u (piece_base + pid) (dist_l1 ax ay c.Point.x c.Point.y +. penalty)
    done
  in
  (* per group: E^cr, then E^ct *)
  Array.iteri
    (fun gi g ->
      let cx = g.cog.Point.x and cy = g.cog.Point.y in
      add_piece_arcs gi g.m g.w cx cy;
      let tn = transit.((g.w * n_classes) + g.m) in
      if tn >= 0 then begin
        let r = windows.(g.w).Grid.rect in
        for dir = 0 to 3 do
          add_arc gi (tn + dir) (dist_l1 cx cy (boundary_x r dir) (boundary_y r dir))
        done
      end)
    groups;
  (* per (w, m) with transits: E^tt, E^tr, then E^ext to the neighbours in
     the class range in [Grid.neighbors]' order (W S E N); each
     neighbour's own iteration adds the reverse arc *)
  let add_external m tn w' dir =
    if in_range m w' then
      add_arc (tn + dir) (transit.((w' * n_classes) + m) + Grid.opposite_dir dir) 0.0
  in
  for w = 0 to nw - 1 do
    let r = windows.(w).Grid.rect in
    let wx = windows.(w).Grid.wx and wy = windows.(w).Grid.wy in
    for m = 0 to n_classes - 1 do
      let tn = transit.((w * n_classes) + m) in
      if tn >= 0 then begin
        for d1 = 0 to 3 do
          for d2 = 0 to 3 do
            if d1 <> d2 then
              add_arc (tn + d1) (tn + d2)
                (dist_l1 (boundary_x r d1) (boundary_y r d1) (boundary_x r d2)
                   (boundary_y r d2))
          done
        done;
        for dir = 0 to 3 do
          add_piece_arcs (tn + dir) m w (boundary_x r dir) (boundary_y r dir)
        done;
        if wx > 0 then add_external m tn (w - 1) 3;
        if wy > 0 then add_external m tn (w - nx) 2;
        if wx < nx - 1 then add_external m tn (w + 1) 1;
        if wy < ny - 1 then add_external m tn (w + nx) 0
      end
    done
  done;
  { grid; n_classes; groups; cells; graph; supply; node_wm; piece_base;
    n_nodes; n_edges; relaxed }

(* An arc's kind, decoded from its endpoints: group nodes come first,
   then each (w, m)'s four transits (N E S W), then the pieces, and two
   transits of one (w, m) are joined by E^tt, of two windows by E^ext. *)
let arc_kind t a =
  let g = t.graph in
  if a < 0 || a >= Graph.n_arcs g || a land 1 = 1 then
    invalid_arg "Fbp_model.arc_kind: not a forward arc";
  let n_groups = Array.length t.groups in
  let u = Graph.src g a and v = Graph.dst g a in
  if u < n_groups then
    if v >= t.piece_base then Cell_to_piece { group = u; piece = v - t.piece_base }
    else Cell_to_transit { group = u; dir = (v - n_groups) land 3 }
  else begin
    let wm = t.node_wm.(u) and dir = (u - n_groups) land 3 in
    let w = wm / t.n_classes and m = wm mod t.n_classes in
    if v >= t.piece_base then Transit_to_piece { w; m; dir; piece = v - t.piece_base }
    else if t.node_wm.(v) = wm then
      Transit_to_transit { w; m; from_dir = dir; to_dir = (v - n_groups) land 3 }
    else External { m; from_w = w; to_w = t.node_wm.(v) / t.n_classes; from_dir = dir }
  end

(* The simplex basis is a spanning tree and the external arcs' capacity
   (total supply + 1) is never reached, so the flow-carrying external arcs
   are tree arcs: acyclic, as the realization's topological order needs
   (Section IV-B). *)
let solve (t : t) =
  let verdict, mcf_stats = Mcf.solve_stats t.graph ~supply:t.supply in
  let nc = t.n_classes and n_groups = Array.length t.groups in
  let allot = Array.make (Grid.n_pieces t.grid * nc) 0.0 in
  let externals = ref [] in
  let flows = Array.create_float (Graph.n_arcs t.graph / 2) in
  Graph.edge_flows t.graph flows;
  for e = 0 to t.n_edges - 1 do
    let a = 2 * e in
    let f = flows.(e) in
    if f > eps then begin
      let u = Graph.src t.graph a and v = Graph.dst t.graph a in
      if v >= t.piece_base then begin
        (* E^cr or E^tr: class m's area lands in the piece *)
        let i = ((v - t.piece_base) * nc) + (t.node_wm.(u) mod nc) in
        allot.(i) <- allot.(i) +. f
      end
      else if u >= n_groups && t.node_wm.(v) <> t.node_wm.(u) then begin
        let wm = t.node_wm.(u) in
        externals :=
          { xm = wm mod nc; from_w = wm / nc; to_w = t.node_wm.(v) / nc;
            from_dir = (u - n_groups) land 3; amount = f }
          :: !externals
      end
    end
  done;
  { model = t; verdict; mcf_rounds = mcf_stats.Mcf.rounds; allot;
    externals = List.rev !externals }

let allotment (s : solution) ~piece ~m = s.allot.((piece * s.model.n_classes) + m)
