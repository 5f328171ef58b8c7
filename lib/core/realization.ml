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

(* Compact snapshot of the given cells' positions.  O(cells of the wave),
   replacing the seed's per-wave [Placement.copy pos] — O(design) per
   wave was the dominant anti-scaling term, and it hurt at *every* domain
   count. *)
let snapshot (pos : Placement.t) (cells : int array) =
  ( Array.map (fun c -> pos.Placement.x.(c)) cells,
    Array.map (fun c -> pos.Placement.y.(c)) cells )

(* A destination decided for one cell during a step. *)
type dest =
  | To_piece of int
  | To_buffer of { to_w : int; x : float; y : float }

(* Read-only inputs of one (window, class) node, gathered on the
   coordinating domain between waves.  [nqx]/[nqy] seed the node's local
   QP and are mutated in place by it — node-private by construction. *)
type node_input = {
  nw : int;
  nm : int;
  ncells : int array;  (* sorted member cell ids *)
  nqx : float array;  (* compact pre-wave position snapshot *)
  nqy : float array;
  narcs : Fbp_model.external_flow list;  (* outgoing external arcs *)
}

let realize ?(on_step : (step -> unit) option) (cfg : Config.t)
    (inst : Fbp_movebound.Instance.t) (regions : Fbp_movebound.Regions.t)
    (sol : Fbp_model.solution) (pos : Placement.t)
    ~(cell_nets : int list array) =
  let model = sol.Fbp_model.model in
  let grid = model.Fbp_model.grid in
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let k = Fbp_movebound.Instance.n_movebounds inst in
  let n_classes = model.Fbp_model.n_classes in
  let piece_of_cell = Array.make (Netlist.n_cells nl) (-1) in
  (* current members of each (window, class) node *)
  let members : (int * int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (g : Fbp_model.group) ->
      Hashtbl.replace members (g.Fbp_model.w, g.Fbp_model.m) (ref g.Fbp_model.cells))
    model.Fbp_model.groups;
  (* outgoing external arcs per node, incoming degree per node *)
  let outgoing : (int * int, Fbp_model.external_flow list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let indegree : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  let touch tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref v in
      Hashtbl.add tbl key r;
      r
  in
  List.iter
    (fun (e : Fbp_model.external_flow) ->
      let o = touch outgoing (e.Fbp_model.from_w, e.Fbp_model.xm) [] in
      o := e :: !o;
      incr (touch indegree (e.Fbp_model.to_w, e.Fbp_model.xm) 0);
      ignore (touch indegree (e.Fbp_model.from_w, e.Fbp_model.xm) 0))
    sol.Fbp_model.externals;
  (* node set: anything with cells or participating in external flow *)
  let nodes : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter (fun key _ -> Hashtbl.replace nodes key ()) members;
  Hashtbl.iter (fun key _ -> Hashtbl.replace nodes key ()) indegree;
  let compare_wm (w1, m1) (w2, m2) =
    match Int.compare w1 w2 with 0 -> Int.compare m1 m2 | c -> c
  in
  let node_list =
    Hashtbl.fold (fun key () acc -> key :: acc) nodes []
    |> List.sort compare_wm
  in
  let indeg (w, m) = match Hashtbl.find_opt indegree (w, m) with Some r -> !r | None -> 0 in
  (* Kahn waves *)
  let waves = ref [] in
  let remaining = Hashtbl.copy nodes in
  let degree = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace degree n (indeg n)) node_list;
  let n_waves = ref 0 in
  while Hashtbl.length remaining > 0 do
    let ready =
      List.filter
        (fun n -> Hashtbl.mem remaining n && Hashtbl.find degree n = 0)
        node_list
    in
    if ready = [] then begin
      (* The placer's flows carry no cycle, but a hand-built solution can
         (test "realization flushes cycle residue"): release the smallest
         remaining node so the waves still drain. *)
      let n = List.find (Hashtbl.mem remaining) node_list in
      Hashtbl.replace degree n 0
    end
    else begin
      incr n_waves;
      waves := ready :: !waves;
      List.iter
        (fun n ->
          Hashtbl.remove remaining n;
          match Hashtbl.find_opt outgoing n with
          | None -> ()
          | Some arcs ->
            List.iter
              (fun (e : Fbp_model.external_flow) ->
                let succ = (e.Fbp_model.to_w, e.Fbp_model.xm) in
                match Hashtbl.find_opt degree succ with
                | Some d -> Hashtbl.replace degree succ (d - 1)
                | None -> ())
              !arcs)
        ready
    end
  done;
  let waves = List.rev !waves in
  (* statistics *)
  let n_steps = ref 0 and n_shipped = ref 0 and n_fallback = ref 0 in
  let max_overfill = ref 0.0 in
  (* fallback piece: nearest admissible piece in/near the window *)
  let fallback_piece w m (pt : Point.t) =
    let mb = if m = k then -1 else m in
    let best = ref (-1) and bestd = ref infinity in
    let consider pid =
      let p = grid.Grid.pieces.(pid) in
      let reg = regions.Fbp_movebound.Regions.regions.(p.Grid.region) in
      if Fbp_movebound.Regions.admissible reg ~mb then begin
        let d = Rect_set.dist_l1_point p.Grid.area pt in
        if d < !bestd then begin
          bestd := d;
          best := pid
        end
      end
    in
    List.iter consider grid.Grid.pieces_of_window.(w);
    if !best < 0 then
      (* widen to the whole grid (rare: window fully inadmissible) *)
      Array.iter (fun (p : Grid.piece) -> consider p.Grid.id) grid.Grid.pieces;
    !best
  in
  (* Fallback placement: nearest admissible piece, with the position
     projected into its area so the post-realization invariants (cell inside
     its assigned piece) hold even off the flow path. *)
  let fallback_move w m c (pt : Point.t) =
    let pid = fallback_piece w m pt in
    if pid < 0 then (c, pt.Point.x, pt.Point.y, To_piece pid, true)
    else begin
      let proj = Rect_set.project_point grid.Grid.pieces.(pid).Grid.area pt in
      (c, proj.Point.x, proj.Point.y, To_piece pid, true)
    end
  in
  (* Inputs of one node, snapshotted from the shared [members]/[outgoing]
     tables *before* the parallel map: worker domains must never touch the
     mutable tables (unsynchronized Hashtbl reads race with the commit
     phase's writes between waves).  The position snapshot is compact —
     only the node's own cells — because [pos] itself is not mutated
     during a wave's map phase (commits happen post-join), so everything
     a worker needs beyond its private QP seeds can be read from [pos]
     directly. *)
  let node_input (w, m) =
    let cells =
      match Hashtbl.find_opt members (w, m) with
      | Some r -> Array.of_list (List.sort_uniq Int.compare !r)
      | None -> [||]
    in
    let transit_arcs =
      match Hashtbl.find_opt outgoing (w, m) with
      | None -> []
      | Some arcs -> !arcs
    in
    let nqx, nqy = snapshot pos cells in
    { nw = w; nm = m; ncells = cells; nqx; nqy; narcs = transit_arcs }
  in
  (* process one node against read-only inputs; returns the moves plus the
     local-QP solver stats (recorded by the caller post-join in wave order,
     so the metrics stream stays deterministic at any domain count).
     [scratch] is chunk-private (net dedup and assembly workspace). *)
  let process_node ~scratch ni =
    let w = ni.nw and m = ni.nm in
    let cells = ni.ncells and transit_arcs = ni.narcs in
    if Array.length cells = 0 then ((w, m), [||], None)
    else begin
      let qp_stats = ref None in
      (* 1. local QP for connectivity (optional) *)
      let qx = ni.nqx and qy = ni.nqy in
      if cfg.Config.local_qp && Array.length cells > 1 then begin
        let win_rect = grid.Grid.windows.(w).Grid.rect in
        let ctr = Rect.center win_rect in
        let pull = Some (1e-4, ctr.Point.x, 1e-4, ctr.Point.y) in
        let sys =
          Qp.assemble_local cfg nl pos scratch ~cell_nets ~cells
            ~anchor:(fun _ -> pull)
        in
        let xv = Array.make sys.Netmodel.n_vars 0.0 in
        let yv = Array.make sys.Netmodel.n_vars 0.0 in
        Array.iteri
          (fun v c ->
            if c >= 0 then begin
              xv.(v) <- pos.Placement.x.(c);
              yv.(v) <- pos.Placement.y.(c)
            end)
          sys.Netmodel.cells;
        (* one matrix for both axes *)
        let a = sys.Netmodel.ax in
        let st_x =
          Fbp_linalg.Cg.solve ~record:false ~max_iter:60 ~tol:1e-4 a
            sys.Netmodel.bx xv
        in
        let st_y =
          Fbp_linalg.Cg.solve ~record:false ~max_iter:60 ~tol:1e-4 a
            sys.Netmodel.by yv
        in
        qp_stats := Some (st_x, st_y);
        Array.iteri
          (fun i _ ->
            qx.(i) <- xv.(i);
            qy.(i) <- yv.(i))
          cells
      end;
      (* 2. transportation sinks: region pieces + outgoing transit buffers *)
      let piece_sinks =
        List.filter_map
          (fun pid ->
            let a = sol.Fbp_model.allot.((pid * n_classes) + m) in
            if a > eps then Some (`Piece pid, a) else None)
          grid.Grid.pieces_of_window.(w)
      in
      let transit_sinks =
        List.map
          (fun (e : Fbp_model.external_flow) ->
            (`Transit e, e.Fbp_model.amount))
          transit_arcs
      in
      let sinks = Array.of_list (piece_sinks @ transit_sinks) in
      let total_size =
        Array.fold_left (fun acc c -> acc +. Netlist.size nl c) 0.0 cells
      in
      let total_cap = Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 sinks in
      if Array.length sinks = 0 then begin
        (* no prescription (numerical residue): everything falls back *)
        ((w, m),
         Array.mapi
           (fun i c -> fallback_move w m c (Point.make qx.(i) qy.(i)))
           cells,
         !qp_stats)
      end
      else begin
        (* integral rounding can make cells outgrow the prescriptions:
           inflate sink capacities proportionally so transport stays
           feasible; legalization absorbs the slack *)
        let scale = if total_cap < total_size then total_size /. total_cap +. 1e-6 else 1.0 in
        let sink_caps = Array.map (fun (_, c) -> c *. scale) sinks in
        (* per-unit cost: L1 distance from the cell's QP position to the
           piece, or to the window boundary the transit arc leaves by *)
        let dist_to =
          Array.map
            (fun (sink, _) ->
              match sink with
              | `Piece pid ->
                let area = grid.Grid.pieces.(pid).Grid.area in
                fun pt -> Rect_set.dist_l1_point area pt
              | `Transit (e : Fbp_model.external_flow) ->
                let b = Grid.boundary_point grid w e.Fbp_model.from_dir in
                fun pt -> Point.dist_l1 pt b)
            sinks
        in
        let k = Array.length sinks in
        let sink_cost = Array.make (Array.length cells * k) 0.0 in
        for i = 0 to Array.length cells - 1 do
          let pt = Point.make qx.(i) qy.(i) in
          for j = 0 to k - 1 do
            sink_cost.((i * k) + j) <- dist_to.(j) pt
          done
        done;
        let problem =
          {
            Transport.sizes = Array.map (fun c -> Netlist.size nl c) cells;
            capacities = sink_caps;
            cost = sink_cost;
          }
        in
        match Transport.solve problem with
        | Error _ ->
          ((w, m),
           Array.mapi
             (fun i c -> fallback_move w m c (Point.make qx.(i) qy.(i)))
             cells,
           !qp_stats)
        | Ok assignment ->
          let choice = Transport.round_integral assignment in
          (* Cells staying in a piece are not merely projected (that piles
             them on the nearest boundary): each piece-group's QP positions
             are linearly remapped into the piece's bounding box, preserving
             relative order — then projected into the (possibly non-convex)
             piece area. *)
          let remap = Hashtbl.create 8 in
          Array.iteri
            (fun i _ ->
              let j = choice.(i) in
              if j >= 0 then
                match fst sinks.(j) with
                | `Piece pid ->
                  Hashtbl.replace remap pid (i :: (try Hashtbl.find remap pid with Not_found -> []))
                | `Transit _ -> ())
            cells;
          let remap_fn = Hashtbl.create 8 in
          Hashtbl.iter
            (fun pid idxs ->
              let p = grid.Grid.pieces.(pid) in
              let bb = Rect_set.bbox p.Grid.area in
              let x0 = ref infinity and x1 = ref neg_infinity in
              let y0 = ref infinity and y1 = ref neg_infinity in
              List.iter
                (fun i ->
                  if qx.(i) < !x0 then x0 := qx.(i);
                  if qx.(i) > !x1 then x1 := qx.(i);
                  if qy.(i) < !y0 then y0 := qy.(i);
                  if qy.(i) > !y1 then y1 := qy.(i))
                idxs;
              let sx = !x1 -. !x0 and sy = !y1 -. !y0 in
              let f (pt : Point.t) =
                let fx = if sx > 1e-9 then (pt.Point.x -. !x0) /. sx else 0.5 in
                let fy = if sy > 1e-9 then (pt.Point.y -. !y0) /. sy else 0.5 in
                Point.make
                  (bb.Rect.x0 +. (fx *. Rect.width bb))
                  (bb.Rect.y0 +. (fy *. Rect.height bb))
              in
              Hashtbl.replace remap_fn pid f)
            remap;
          ((w, m),
           Array.mapi
             (fun i c ->
               let j = choice.(i) in
               if j < 0 then fallback_move w m c (Point.make qx.(i) qy.(i))
               else
                 match fst sinks.(j) with
                 | `Piece pid ->
                   let p = grid.Grid.pieces.(pid) in
                   let mapped = (Hashtbl.find remap_fn pid) (Point.make qx.(i) qy.(i)) in
                   let proj = Rect_set.project_point p.Grid.area mapped in
                   (c, proj.Point.x, proj.Point.y, To_piece pid, false)
                 | `Transit (e : Fbp_model.external_flow) ->
                   (* land just inside the target window, near the boundary *)
                   let b = Grid.boundary_point grid w e.Fbp_model.from_dir in
                   let tr = grid.Grid.windows.(e.Fbp_model.to_w).Grid.rect in
                   let step_x = 0.05 *. Rect.width tr and step_y = 0.05 *. Rect.height tr in
                   let land_ =
                     match e.Fbp_model.from_dir with
                     | 0 -> Point.make b.Point.x (b.Point.y +. step_y)
                     | 1 -> Point.make (b.Point.x +. step_x) b.Point.y
                     | 2 -> Point.make b.Point.x (b.Point.y -. step_y)
                     | _ -> Point.make (b.Point.x -. step_x) b.Point.y
                   in
                   let land_ = Rect.clamp_point tr land_ in
                   (c, land_.Point.x, land_.Point.y,
                    To_buffer { to_w = e.Fbp_model.to_w; x = land_.Point.x; y = land_.Point.y },
                    false))
             cells,
           !qp_stats)
      end
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
  (* Chunk-private local-QP scratches, persistent across waves (slot [c]
     is only ever touched by the owner of chunk [c - 1]; the batch's
     completion latch orders cross-wave reuse).  Slot 0 backs the
     sequential fast path. *)
  let scratches = Array.make (max_wave_chunks + 1) None in
  let scratch_for slot =
    match scratches.(slot) with
    | Some s -> s
    | None ->
      let s = Qp.create_scratch () in
      scratches.(slot) <- Some s;
      s
  in
  let run_wave wave_arr =
    let n_nodes = Array.length wave_arr in
    let total_cells =
      Array.fold_left (fun acc ni -> acc + Array.length ni.ncells) 0 wave_arr
    in
    Fbp_obs.Obs.count ~n:total_cells "realization.snapshot_cells";
    let out = Array.make n_nodes ((0, 0), [||], None) in
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
      Fbp_util.Pool.run_chunks ~domains:eff_domains ~n_chunks:!k (fun c ->
          let scratch = scratch_for (c + 1) in
          for i = starts.(c) to starts.(c + 1) - 1 do
            out.(i) <- process_node ~scratch wave_arr.(i)
          done)
    end
    else begin
      (* sequential fast path: same map-all-then-commit shape as the
         parallel path, so results are bitwise identical *)
      let scratch = scratch_for 0 in
      for i = 0 to n_nodes - 1 do
        out.(i) <- process_node ~scratch wave_arr.(i)
      done
    end;
    out
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
            ("nodes", string_of_int (List.length wave));
            ("domains", string_of_int eff_domains) ])
        (fun () ->
      Fbp_obs.Obs.observe "realization.wave_width" (float_of_int (List.length wave));
      let wave_arr = Array.of_list (List.map node_input wave) in
      let results = run_wave wave_arr in
      (* deterministic commit in wave order *)
      Array.iter
        (fun ((w, m), moves, qp_stats) ->
          (match qp_stats with
          | Some (st_x, st_y) ->
            Fbp_linalg.Cg.record_stats st_x;
            Fbp_linalg.Cg.record_stats st_y
          | None -> ());
          if Array.length moves > 0 then begin
            incr n_steps;
            let shipped = ref 0.0 and stayed = ref 0.0 in
            Array.iter
              (fun (c, x, y, dest, fallback) ->
                pos.Placement.x.(c) <- x;
                pos.Placement.y.(c) <- y;
                if fallback then incr n_fallback;
                match dest with
                | To_piece pid ->
                  piece_of_cell.(c) <- pid;
                  if pid >= 0 then
                    piece_load.(pid) <- piece_load.(pid) +. Netlist.size nl c;
                  stayed := !stayed +. Netlist.size nl c
                | To_buffer { to_w; x = bx; y = by } ->
                  incr n_shipped;
                  shipped := !shipped +. Netlist.size nl c;
                  pos.Placement.x.(c) <- bx;
                  pos.Placement.y.(c) <- by;
                  let r = touch members (to_w, m) [] in
                  r := c :: !r)
              moves;
            (* this node's members are consumed *)
            Hashtbl.replace members (w, m) (ref []);
            match on_step with
            | Some f ->
              f { node_w = w; node_m = m; n_cells = Array.length moves;
                  shipped = !shipped; stayed = !stayed }
            | None -> ()
          end)
        results))
    waves;
  (* The deadlock tie-break above can release a node of a residual cycle
     before its predecessor commits.  Cells the predecessor then ships over
     the external arc land in a members buffer whose node was already
     consumed, so no wave ever processes them: they kept piece_of_cell = -1
     and were silently dropped.  Flush any such residue through the fallback
     path so every movable cell ends in an admissible piece. *)
  let residue =
    Hashtbl.fold
      (fun key r acc ->
        match !r with
        | [] -> acc
        | cells -> (key, List.sort_uniq Int.compare cells) :: acc)
      members []
    |> List.sort (fun (a, _) (b, _) -> compare_wm a b)
  in
  List.iter
    (fun ((w, m), cells) ->
      List.iter
        (fun c ->
          if piece_of_cell.(c) < 0 then begin
            let pt = Point.make pos.Placement.x.(c) pos.Placement.y.(c) in
            let pid = fallback_piece w m pt in
            piece_of_cell.(c) <- pid;
            incr n_fallback;
            Fbp_obs.Obs.count "realization.flushed_cells";
            if pid >= 0 then begin
              let proj = Rect_set.project_point grid.Grid.pieces.(pid).Grid.area pt in
              pos.Placement.x.(c) <- proj.Point.x;
              pos.Placement.y.(c) <- proj.Point.y;
              piece_load.(pid) <- piece_load.(pid) +. Netlist.size nl c
            end
          end)
        cells)
    residue;
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
