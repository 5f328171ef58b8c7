(* Realization of a flow solution (Section IV-B).

   The MinCostFlow prescribes aggregate movements; the realization decides
   *which* concrete cells follow them.  Flow-carrying external arcs form a
   DAG over (window, class) nodes (they lie in the network simplex's
   spanning tree); processing nodes in topological order guarantees that
   when (w, M) is handled, every cell that the flow routes into w has
   already arrived (buffered at w's transit side).  For each node we:

   1. solve a local QP over the node's cells (everything else fixed) for
      connectivity information;
   2. run the movebound-aware transportation: sinks are the window's region
      pieces with their flow allotments for this class, plus one temporary
      region per outgoing external arc located at the window boundary with
      capacity equal to the arc's flow — exactly the transit-node buffer
      capacities of Eq. (2);
   3. round the fractional assignment; shipped cells move just across the
      boundary and join the target window's buffer, staying cells project
      into their assigned piece.

   Nodes of one topological wave are independent (their cell sets are
   disjoint and arrivals only materialize at the wave commit), so waves run
   in parallel over domains with a deterministic commit order — the paper's
   deterministic parallel realization. *)

open Fbp_geometry
open Fbp_netlist
open Fbp_flow

type step = {
  node_w : int;
  node_m : int;
  n_cells : int;
  shipped : float;  (* area sent over external arcs *)
  stayed : float;
}

type stats = {
  n_steps : int;
  n_waves : int;
  n_shipped_cells : int;
  n_fallback_cells : int;  (* cells placed without a flow prescription *)
  max_piece_overfill : float;  (* worst piece load minus allotted capacity *)
}

type result = {
  piece_of_cell : int array;  (* cell -> piece id (-1 for fixed cells) *)
  stats : stats;
}

let eps = 1e-7

(* Waves whose total cell count is below this run on the calling domain:
   a handful of tiny transportation problems finishes before a worker
   wakeup would even land.  Most realization waves are this small — a
   per-wave fork/join on them makes more domains slower, not faster. *)
let seq_wave_cells = 512

(* Target cells (not nodes) per parallel chunk.  Nodes are wildly
   heterogeneous — one 300-cell node costs more than fifty 2-cell ones —
   so chunking by node count starves some domains and overloads others. *)
let wave_grain_cells = 128

let max_wave_chunks = 64

(* Compact snapshot of the given cells' positions: O(cells of the wave),
   not O(design).  A per-wave copy of the whole placement was the
   dominant anti-scaling term, and it hurt at every domain count.  The
   node that owns a snapshot overwrites it with its cells' final
   positions. *)
let snapshot (pos : Placement.t) (cells : int array) =
  let n = Array.length cells in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let c = cells.(i) in
    x.(i) <- pos.Placement.x.(c);
    y.(i) <- pos.Placement.y.(c)
  done;
  (x, y)

(* The node pipeline is flat (DESIGN §9, "Flat realization"): a (window,
   class) node is the int id [w * n_classes + m], so ascending ids are the
   (w, m) lexicographic order, and its members, arcs and in-degree live in
   arrays indexed by id.  Per cell, a node produces one [dest] entry and
   writes the final position into its own snapshot: no tuple, no boxed
   float and no [Point] per cell.  Under [-opaque] a call boxes each float
   argument and result, so the per-cell geometry below reads rectangle
   fields in [@inline] helpers and passes points as (array, index). *)

(* Read-only inputs of one node, gathered on the coordinating domain
   between waves.  [nqx]/[nqy] seed the node's local QP and receive its
   cells' final positions — node-private by construction.  The fault
   registry is not synchronized, so the node's faults are drawn there
   too, in node order, and handed over as verdicts. *)
type node_input = {
  nid : int;
  ncells : int array;  (* sorted member cell ids *)
  nqx : float array;  (* compact pre-wave position snapshot *)
  nqy : float array;
  npieces : int array;  (* the window's pieces prescribed to the class *)
  narcs : Fbp_model.external_flow list;  (* outgoing external arcs *)
  stagnate : bool * bool;  (* the local QP's x and y CG faults *)
  corrupt : bool;  (* the transportation fault *)
}

type node_result = {
  dest : int array;
      (* per member: its piece id (>= -1; -1 when no admissible piece
         exists), or [-2 - to_w] for the transit buffer of window [to_w] *)
  n_fallback : int;  (* members placed without a flow prescription *)
  qp : (Fbp_linalg.Cg.stats * Fbp_linalg.Cg.stats) option;
}

let no_result = { dest = [||]; n_fallback = 0; qp = None }

(* A piece area as floats: its bounding box ([Rect_set.bbox]), then x0 y0
   x1 y1 of each rectangle in [Rect_set.rects] order.  Empty for an empty
   area. *)
let flat_area (area : Rect_set.t) =
  match Rect_set.rects area with
  | [] -> [||]
  | rects ->
    let bb = Rect_set.bbox area in
    let g = Array.make (4 * (1 + List.length rects)) 0.0 in
    List.iteri
      (fun t (r : Rect.t) ->
        let o = 4 * (t + 1) in
        g.(o) <- r.Rect.x0;
        g.(o + 1) <- r.Rect.y0;
        g.(o + 2) <- r.Rect.x1;
        g.(o + 3) <- r.Rect.y1)
      rects;
    g.(0) <- bb.Rect.x0;
    g.(1) <- bb.Rect.y0;
    g.(2) <- bb.Rect.x1;
    g.(3) <- bb.Rect.y1;
    g

(* [Rect_set.dist_l1_point] on a flat area: the clamp of [Rect.clamp_point]
   and the fold of [Rect_set], in the same order. *)
let[@inline] dist_l1 (g : float array) px py =
  let d = ref infinity in
  for t = 1 to (Array.length g / 4) - 1 do
    let o = 4 * t in
    let cx = Float.max g.(o) (Float.min g.(o + 2) px)
    and cy = Float.max g.(o + 1) (Float.min g.(o + 3) py) in
    d := Float.min !d (Float.abs (px -. cx) +. Float.abs (py -. cy))
  done;
  !d

(* [Rect_set.project_point] on a flat area, for point [i] of [xs]/[ys],
   written back in place. *)
let[@inline] project_into (g : float array) (xs : float array)
    (ys : float array) i =
  if Array.length g = 0 then invalid_arg "Rect_set.project_point: empty set";
  let px = xs.(i) and py = ys.(i) in
  let bx = ref 0.0 and by = ref 0.0 and bd = ref infinity in
  for t = 1 to (Array.length g / 4) - 1 do
    let o = 4 * t in
    let cx = Float.max g.(o) (Float.min g.(o + 2) px)
    and cy = Float.max g.(o + 1) (Float.min g.(o + 3) py) in
    let dx = px -. cx and dy = py -. cy in
    let d = sqrt ((dx *. dx) +. (dy *. dy)) in
    if t = 1 || d < !bd then begin
      bx := cx;
      by := cy;
      bd := d
    end
  done;
  xs.(i) <- !bx;
  ys.(i) <- !by

(* The sorted, deduplicated first [len] entries of [buf]: what
   [List.sort_uniq Int.compare] gives on the same members. *)
let sorted_members (buf : int array) len =
  let a = Array.sub buf 0 len in
  Fbp_util.Int_sort.sort a 0 (len - 1);
  let k = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!k - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  if !k = len then a else Array.sub a 0 !k

let realize ?(on_step : (step -> unit) option) (cfg : Config.t)
    (inst : Fbp_movebound.Instance.t) (regions : Fbp_movebound.Regions.t)
    (sol : Fbp_model.solution) (pos : Placement.t) =
  let t_start = Fbp_util.Timer.now () in
  let model = sol.Fbp_model.model in
  let grid = model.Fbp_model.grid in
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let widths = nl.Netlist.widths and heights = nl.Netlist.heights in
  let k = Fbp_movebound.Instance.n_movebounds inst in
  let n_classes = model.Fbp_model.n_classes in
  let n_nodes = Grid.n_windows grid * n_classes in
  let piece_of_cell = Array.make (Netlist.n_cells nl) (-1) in
  let geom = Array.map (fun (p : Grid.piece) -> flat_area p.Grid.area) grid.Grid.pieces in
  (* current members of each node: the first [mem_len.(id)] entries of
     [mem.(id)], in no particular order *)
  let mem = Array.make n_nodes [||] and mem_len = Array.make n_nodes 0 in
  let push id c =
    let len = mem_len.(id) in
    if len = Array.length mem.(id) then begin
      let grown = Array.make (max 8 (2 * len)) 0 in
      Array.blit mem.(id) 0 grown 0 len;
      mem.(id) <- grown
    end;
    mem.(id).(len) <- c;
    mem_len.(id) <- len + 1
  in
  (* node set: anything with cells or participating in external flow *)
  let live = Array.make n_nodes false in
  Array.iter
    (fun (g : Fbp_model.group) ->
      let id = (g.Fbp_model.w * n_classes) + g.Fbp_model.m in
      mem.(id) <- Array.sub model.Fbp_model.cells g.Fbp_model.first g.Fbp_model.len;
      mem_len.(id) <- g.Fbp_model.len;
      live.(id) <- true)
    model.Fbp_model.groups;
  (* outgoing external arcs per node (prepended: the order fixes the
     transit sinks' order), incoming degree per node *)
  let outgoing = Array.make n_nodes [] and degree = Array.make n_nodes 0 in
  List.iter
    (fun (e : Fbp_model.external_flow) ->
      let src = (e.Fbp_model.from_w * n_classes) + e.Fbp_model.xm in
      let dst = (e.Fbp_model.to_w * n_classes) + e.Fbp_model.xm in
      outgoing.(src) <- e :: outgoing.(src);
      degree.(dst) <- degree.(dst) + 1;
      live.(src) <- true;
      live.(dst) <- true)
    sol.Fbp_model.externals;
  (* Kahn waves over the live ids, each wave in ascending id order *)
  let waves = ref [] and n_waves = ref 0 in
  let remaining = Array.copy live in
  let n_remaining = ref (Array.fold_left (fun n b -> if b then n + 1 else n) 0 live) in
  while !n_remaining > 0 do
    let ready = ref [] in
    for id = n_nodes - 1 downto 0 do
      if remaining.(id) && degree.(id) = 0 then ready := id :: !ready
    done;
    match !ready with
    | [] ->
      (* The placer's flows carry no cycle, but a hand-built solution can
         (test "realization flushes cycle residue"): release the smallest
         remaining node so the waves still drain. *)
      let id = ref 0 in
      while not remaining.(!id) do incr id done;
      degree.(!id) <- 0
    | ready ->
      incr n_waves;
      waves := Array.of_list ready :: !waves;
      List.iter
        (fun id ->
          remaining.(id) <- false;
          decr n_remaining;
          List.iter
            (fun (e : Fbp_model.external_flow) ->
              let succ = (e.Fbp_model.to_w * n_classes) + e.Fbp_model.xm in
              degree.(succ) <- degree.(succ) - 1)
            outgoing.(id))
        ready
  done;
  let waves = List.rev !waves in
  (* statistics *)
  let n_steps = ref 0 and n_shipped = ref 0 and n_fallback = ref 0 in
  let max_overfill = ref 0.0 in
  (* fallback piece of point [i] of [xs]/[ys]: nearest admissible piece
     in/near the window *)
  let fallback_piece w m (xs : float array) (ys : float array) i =
    let mb = if m = k then -1 else m in
    let best = ref (-1) and bestd = ref infinity in
    let consider pid =
      let p = grid.Grid.pieces.(pid) in
      let reg = regions.Fbp_movebound.Regions.regions.(p.Grid.region) in
      if Fbp_movebound.Regions.admissible reg ~mb then begin
        let d = dist_l1 geom.(pid) xs.(i) ys.(i) in
        if d < !bestd then begin
          bestd := d;
          best := pid
        end
      end
    in
    for pid = grid.Grid.piece_start.(w) to grid.Grid.piece_start.(w + 1) - 1 do
      consider pid
    done;
    if !best < 0 then
      (* widen to the whole grid (rare: window fully inadmissible) *)
      Array.iter (fun (p : Grid.piece) -> consider p.Grid.id) grid.Grid.pieces;
    !best
  in
  (* the node's piece sinks: its window's pieces with a prescription for
     its class, in id order *)
  let allot = sol.Fbp_model.allot in
  let prescribed_pieces id =
    let w = id / n_classes and m = id mod n_classes in
    let p0 = grid.Grid.piece_start.(w) and p1 = grid.Grid.piece_start.(w + 1) in
    let np = ref 0 in
    for pid = p0 to p1 - 1 do
      if allot.((pid * n_classes) + m) > eps then incr np
    done;
    let pieces = Array.make !np 0 and j = ref 0 in
    for pid = p0 to p1 - 1 do
      if allot.((pid * n_classes) + m) > eps then begin
        pieces.(!j) <- pid;
        incr j
      end
    done;
    pieces
  in
  (* Inputs of one node, snapshotted from the shared member buffers
     *before* the parallel map: worker domains never touch them (the
     commits between waves write them).  The position snapshot is compact
     — only the node's own cells — because [pos] itself is not mutated
     during a wave's map phase (commits happen post-join), so everything
     a worker needs beyond its private QP seeds can be read from [pos]
     directly. *)
  let node_input id =
    let cells = sorted_members mem.(id) mem_len.(id) in
    let nqx, nqy = snapshot pos cells in
    let n = Array.length cells and narcs = outgoing.(id) in
    let pieces = if n = 0 then [||] else prescribed_pieces id in
    (* the faults [process_node] would poll: CG x and y for a local QP,
       then transport for a node with a sink *)
    let stagnate =
      if n > 1 && cfg.Config.local_qp then
        let sx = Fbp_linalg.Cg.draw_fault () in
        (sx, Fbp_linalg.Cg.draw_fault ())
      else (false, false)
    in
    let corrupt =
      n > 0 && (Array.length pieces > 0 || narcs <> []) && Transport.draw_fault ()
    in
    { nid = id; ncells = cells; nqx; nqy; npieces = pieces; narcs; stagnate; corrupt }
  in
  (* Process one node against read-only inputs: the destinations, the
     final positions (into [nqx]/[nqy]) and the local-QP solver stats
     (recorded by the caller post-join in wave order, so the metrics
     stream stays deterministic at any domain count).  [scratch] is the
     running domain's own (net dedup, the assembled system, the iterates,
     the CG vectors and the transportation workspace); what it hands out
     does not outlive the node. *)
  let process_node ~scratch ni =
    let cells = ni.ncells in
    let n = Array.length cells in
    if n = 0 then no_result
    else begin
      let w = ni.nid / n_classes and m = ni.nid mod n_classes in
      let qx = ni.nqx and qy = ni.nqy in
      (* 1. local QP for connectivity (optional) *)
      let qp =
        if cfg.Config.local_qp && n > 1 then begin
          let win_rect = grid.Grid.windows.(w).Grid.rect in
          let ctr = Rect.center win_rect in
          let pull = Some (1e-4, ctr.Point.x, 1e-4, ctr.Point.y) in
          let sys =
            Qp.assemble_local cfg nl pos scratch ~cells
              ~anchor:(fun _ -> pull)
          in
          let xv, yv = Qp.iterates ~scratch sys pos in
          let st =
            Qp.solve_axes ~scratch ~stagnate:ni.stagnate ~max_iter:60 ~tol:1e-4 sys
              xv yv
          in
          Array.blit xv 0 qx 0 n;
          Array.blit yv 0 qy 0 n;
          Some st
        end
        else None
      in
      let dest = Array.make n (-1) and fallbacks = ref 0 in
      (* nearest admissible piece, the position projected into its area so
         the post-realization invariants (cell inside its assigned piece)
         hold even off the flow path *)
      let fallback i =
        let pid = fallback_piece w m qx qy i in
        if pid >= 0 then project_into geom.(pid) qx qy i;
        dest.(i) <- pid;
        incr fallbacks
      in
      (* 2. transportation sinks: region pieces + outgoing transit buffers *)
      let pieces = ni.npieces in
      let np = Array.length pieces in
      let arcs = Array.of_list ni.narcs in
      let ks = np + Array.length arcs in
      let caps = Array.make ks 0.0 in
      for j = 0 to np - 1 do
        caps.(j) <- sol.Fbp_model.allot.((pieces.(j) * n_classes) + m)
      done;
      for j = np to ks - 1 do
        caps.(j) <- arcs.(j - np).Fbp_model.amount
      done;
      let sizes = Array.make n 0.0 and total_size = ref 0.0 in
      for i = 0 to n - 1 do
        let c = cells.(i) in
        sizes.(i) <- widths.(c) *. heights.(c);
        total_size := !total_size +. sizes.(i)
      done;
      let total_cap = ref 0.0 in
      for j = 0 to ks - 1 do
        total_cap := !total_cap +. caps.(j)
      done;
      if ks = 0 then
        (* no prescription (numerical residue): everything falls back *)
        for i = 0 to n - 1 do fallback i done
      else begin
        (* integral rounding can make cells outgrow the prescriptions:
           inflate sink capacities proportionally so transport stays
           feasible; legalization absorbs the slack *)
        let scale =
          if !total_cap < !total_size then (!total_size /. !total_cap) +. 1e-6
          else 1.0
        in
        for j = 0 to ks - 1 do
          caps.(j) <- caps.(j) *. scale
        done;
        (* per-unit cost: L1 distance from the cell's QP position to the
           piece, or to the window boundary the transit arc leaves by *)
        let cost = Array.make (n * ks) 0.0 in
        for j = 0 to np - 1 do
          let g = geom.(pieces.(j)) in
          for i = 0 to n - 1 do
            cost.((i * ks) + j) <- dist_l1 g qx.(i) qy.(i)
          done
        done;
        for j = np to ks - 1 do
          let b = Grid.boundary_point grid w arcs.(j - np).Fbp_model.from_dir in
          for i = 0 to n - 1 do
            cost.((i * ks) + j) <-
              Float.abs (qx.(i) -. b.Point.x) +. Float.abs (qy.(i) -. b.Point.y)
          done
        done;
        match
          Transport.solve_drawn ~workspace:(Qp.transport_workspace scratch)
            ~corrupt:ni.corrupt
            { Transport.sizes; capacities = caps; cost }
        with
        | Error _ -> for i = 0 to n - 1 do fallback i done
        | Ok assignment ->
          (* Cells staying in a piece are not merely projected (that piles
             them on the nearest boundary): each piece-group's QP positions
             are linearly remapped into the piece's bounding box, preserving
             relative order — then projected into the (possibly non-convex)
             piece area.  The QP box of each piece sink (x0 x1 y0 y1) is
             scanned in descending cell index. *)
          let qbox = Array.make (4 * np) 0.0 in
          for j = 0 to np - 1 do
            qbox.(4 * j) <- infinity;
            qbox.((4 * j) + 1) <- neg_infinity;
            qbox.((4 * j) + 2) <- infinity;
            qbox.((4 * j) + 3) <- neg_infinity
          done;
          for i = n - 1 downto 0 do
            let j = Transport.choice assignment i in
            if j >= 0 && j < np then begin
              let o = 4 * j in
              if qx.(i) < qbox.(o) then qbox.(o) <- qx.(i);
              if qx.(i) > qbox.(o + 1) then qbox.(o + 1) <- qx.(i);
              if qy.(i) < qbox.(o + 2) then qbox.(o + 2) <- qy.(i);
              if qy.(i) > qbox.(o + 3) then qbox.(o + 3) <- qy.(i)
            end
          done;
          (* landing point of each transit sink: just inside the target
             window, near the boundary *)
          let lands =
            Array.map
              (fun (e : Fbp_model.external_flow) ->
                let b = Grid.boundary_point grid w e.Fbp_model.from_dir in
                let tr = grid.Grid.windows.(e.Fbp_model.to_w).Grid.rect in
                let step_x = 0.05 *. Rect.width tr and step_y = 0.05 *. Rect.height tr in
                Rect.clamp_point tr
                  (match e.Fbp_model.from_dir with
                  | 0 -> Point.make b.Point.x (b.Point.y +. step_y)
                  | 1 -> Point.make (b.Point.x +. step_x) b.Point.y
                  | 2 -> Point.make b.Point.x (b.Point.y -. step_y)
                  | _ -> Point.make (b.Point.x -. step_x) b.Point.y))
              arcs
          in
          for i = 0 to n - 1 do
            let j = Transport.choice assignment i in
            if j < 0 then fallback i
            else if j < np then begin
              let pid = pieces.(j) and o = 4 * j in
              let g = geom.(pid) in
              let sx = qbox.(o + 1) -. qbox.(o) and sy = qbox.(o + 3) -. qbox.(o + 2) in
              let fx = if sx > 1e-9 then (qx.(i) -. qbox.(o)) /. sx else 0.5 in
              let fy = if sy > 1e-9 then (qy.(i) -. qbox.(o + 2)) /. sy else 0.5 in
              qx.(i) <- g.(0) +. (fx *. (g.(2) -. g.(0)));
              qy.(i) <- g.(1) +. (fy *. (g.(3) -. g.(1)));
              project_into g qx qy i;
              dest.(i) <- pid
            end
            else begin
              let l = lands.(j - np) in
              qx.(i) <- l.Point.x;
              qy.(i) <- l.Point.y;
              dest.(i) <- -2 - arcs.(j - np).Fbp_model.to_w
            end
          done
      end;
      { dest; n_fallback = !fallbacks; qp }
    end
  in
  (* piece loads for the overfill audit *)
  let piece_load = Array.make (Grid.n_pieces grid) 0.0 in
  (* Clamped to physical cores: beyond them, extra domains only time-slice
     and add wakeup latency (results are domain-count-invariant anyway).
     Each parallel wave is one [Pool.run_chunks] batch; the pool's helpers
     stay resident between waves instead of paying a fork/join pair. *)
  let eff_domains = Config.effective_domains cfg in
  let d0 = Fbp_util.Pool.n_dispatches () in
  (* One local-QP scratch per domain that drains a wave, indexed by
     [Pool.slot]: slot 0 is the coordinating domain, which also runs the
     sequential waves, and slot [1 + h] is helper [h].  Only a slot's own
     domain touches it, so it serves every node that domain processes, in
     any wave; which scratch serves a node cannot change its result
     (workspace reuse is bit-identical).  Scratches are made on first use
     and die with this call. *)
  let scratches = Array.make Fbp_util.Pool.n_slots None in
  let own_scratch () =
    let slot = Fbp_util.Pool.slot () in
    match scratches.(slot) with
    | Some s -> s
    | None ->
      let s = Qp.create_scratch () in
      scratches.(slot) <- Some s;
      s
  in
  (* seconds spent inside [Pool.run_chunks]: the rest of the call is the
     coordinating domain's sequential fraction *)
  let par_s = ref 0.0 in
  let run_wave wave_arr =
    let n_nodes = Array.length wave_arr in
    let total_cells =
      Array.fold_left (fun acc ni -> acc + Array.length ni.ncells) 0 wave_arr
    in
    Fbp_obs.Obs.count ~n:total_cells "realization.snapshot_cells";
    let out = Array.make n_nodes no_result in
    if eff_domains > 1 && n_nodes > 1 && total_cells >= seq_wave_cells then begin
      (* contiguous chunks balanced by cumulative cell count *)
      let max_k = min max_wave_chunks (4 * eff_domains) in
      let target = max wave_grain_cells (1 + (total_cells / max_k)) in
      let starts = Array.make (max_k + 1) n_nodes in
      starts.(0) <- 0;
      let k = ref 1 and acc = ref 0 in
      for i = 0 to n_nodes - 1 do
        acc := !acc + Array.length wave_arr.(i).ncells;
        if !acc >= target && i < n_nodes - 1 && !k < max_k then begin
          starts.(!k) <- i + 1;
          incr k;
          acc := 0
        end
      done;
      let t0 = Fbp_util.Timer.now () in
      Fbp_util.Pool.run_chunks ~domains:eff_domains ~n_chunks:!k (fun c ->
          let scratch = own_scratch () in
          for i = starts.(c) to starts.(c + 1) - 1 do
            out.(i) <- process_node ~scratch wave_arr.(i)
          done);
      par_s := !par_s +. (Fbp_util.Timer.now () -. t0)
    end
    else begin
      (* sequential fast path: same map-all-then-commit shape as the
         parallel path, so results are bitwise identical *)
      let scratch = own_scratch () in
      for i = 0 to n_nodes - 1 do
        out.(i) <- process_node ~scratch wave_arr.(i)
      done
    end;
    out
  in
  (* deterministic commit in wave order *)
  let commit ni res =
    (match res.qp with
    | Some (st_x, st_y) ->
      Fbp_linalg.Cg.record_stats st_x;
      Fbp_linalg.Cg.record_stats st_y
    | None -> ());
    let cells = ni.ncells in
    let n = Array.length cells in
    if n > 0 then begin
      incr n_steps;
      let m = ni.nid mod n_classes in
      let shipped = ref 0.0 and stayed = ref 0.0 in
      for i = 0 to n - 1 do
        let c = cells.(i) in
        pos.Placement.x.(c) <- ni.nqx.(i);
        pos.Placement.y.(c) <- ni.nqy.(i);
        let size = widths.(c) *. heights.(c) in
        let d = res.dest.(i) in
        if d >= -1 then begin
          piece_of_cell.(c) <- d;
          if d >= 0 then piece_load.(d) <- piece_load.(d) +. size;
          stayed := !stayed +. size
        end
        else begin
          incr n_shipped;
          shipped := !shipped +. size;
          push (((-2 - d) * n_classes) + m) c
        end
      done;
      n_fallback := !n_fallback + res.n_fallback;
      (* this node's members are consumed *)
      mem_len.(ni.nid) <- 0;
      match on_step with
      | Some f ->
        f { node_w = ni.nid / n_classes; node_m = m; n_cells = n;
            shipped = !shipped; stayed = !stayed }
      | None -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Fbp_obs.Obs.count
        ~n:(Fbp_util.Pool.n_dispatches () - d0)
        "pool.dispatches")
  @@ fun () ->
  List.iteri
    (fun wi wave ->
      Fbp_obs.Obs.span "realization.wave"
        ~args:(fun () ->
          [ ("wave", string_of_int wi);
            ("nodes", string_of_int (Array.length wave));
            ("domains", string_of_int eff_domains) ])
        (fun () ->
          Fbp_obs.Obs.observe "realization.wave_width"
            (float_of_int (Array.length wave));
          let wave_arr = Array.map node_input wave in
          let results = run_wave wave_arr in
          Array.iteri (fun i ni -> commit ni results.(i)) wave_arr))
    waves;
  (* The deadlock tie-break above can release a node of a residual cycle
     before its predecessor commits.  Cells the predecessor then ships over
     the external arc land in a member buffer whose node was already
     consumed, so no wave ever processes them: they kept piece_of_cell = -1
     and were silently dropped.  Flush any such residue, in ascending node
     id, through the fallback path so every movable cell ends in an
     admissible piece. *)
  for id = 0 to n_nodes - 1 do
    if mem_len.(id) > 0 then
      Array.iter
        (fun c ->
          if piece_of_cell.(c) < 0 then begin
            let xs = pos.Placement.x and ys = pos.Placement.y in
            let pid = fallback_piece (id / n_classes) (id mod n_classes) xs ys c in
            piece_of_cell.(c) <- pid;
            incr n_fallback;
            Fbp_obs.Obs.count "realization.flushed_cells";
            if pid >= 0 then begin
              project_into geom.(pid) xs ys c;
              piece_load.(pid) <- piece_load.(pid) +. (widths.(c) *. heights.(c))
            end
          end)
        (sorted_members mem.(id) mem_len.(id))
  done;
  (* Sanitizer: every movable cell must end in a piece whose region admits
     its movebound class, at a position inside the piece area.  A model
     built with [relax_penalty] (the Movebounds_relaxed degradation)
     legitimately routes cells into inadmissible pieces, so only the
     positional half of the invariant applies then. *)
  Fbp_resilience.Sanitize.check ~site:"realization.commit"
    ~invariant:"movebound containment" (fun () ->
      let bad = ref None in
      let report msg = if Option.is_none !bad then bad := Some msg in
      Array.iteri
        (fun c pid ->
          if not nl.Netlist.fixed.(c) then begin
            if pid < 0 then
              report (Printf.sprintf "movable cell %d has no piece" c)
            else begin
              let p = grid.Grid.pieces.(pid) in
              let reg = regions.Fbp_movebound.Regions.regions.(p.Grid.region) in
              let mb = nl.Netlist.movebound.(c) in
              if
                (not model.Fbp_model.relaxed)
                && not (Fbp_movebound.Regions.admissible reg ~mb)
              then
                report
                  (Printf.sprintf
                     "cell %d (movebound %d) assigned to inadmissible piece %d"
                     c mb pid);
              let pt = Point.make pos.Placement.x.(c) pos.Placement.y.(c) in
              if Rect_set.dist_l1_point p.Grid.area pt > 1e-6 then
                report
                  (Printf.sprintf
                     "cell %d at (%.6g, %.6g) lies outside piece %d" c
                     pos.Placement.x.(c)
                     pos.Placement.y.(c) pid)
            end
          end)
        piece_of_cell;
      match !bad with None -> Ok () | Some msg -> Error msg);
  (* overfill audit: compare piece loads against capacities *)
  Array.iter
    (fun (p : Grid.piece) ->
      let over = piece_load.(p.Grid.id) -. p.Grid.capacity in
      if over > !max_overfill then max_overfill := over)
    grid.Grid.pieces;
  Fbp_obs.Obs.observe "realization.seq_s"
    (Fbp_util.Timer.now () -. t_start -. !par_s);
  Fbp_obs.Obs.observe "realization.scratches"
    (float_of_int
       (Array.fold_left
          (fun n s -> if Option.is_some s then n + 1 else n)
          0 scratches));
  Fbp_obs.Obs.count ~n:!n_shipped "realization.shipped_cells";
  Fbp_obs.Obs.count ~n:!n_fallback "realization.fallback_cells";
  Fbp_obs.Obs.observe "realization.piece_overfill" !max_overfill;
  {
    piece_of_cell;
    stats =
      {
        n_steps = !n_steps;
        n_waves = !n_waves;
        n_shipped_cells = !n_shipped;
        n_fallback_cells = !n_fallback;
        max_piece_overfill = !max_overfill;
      };
  }
