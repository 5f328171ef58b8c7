(* Repartitioning (the "Reflow"/"Repartitioning" refinement of [5], [17],
   [27], discussed in Sections III-IV).

   After the flow-based partitioning has produced a feasible assignment,
   quality can still be recovered locally: for every 2x2 block of windows,
   re-solve a local QP over the block's cells and re-run the
   movebound-aware transportation among the block's region pieces.  Unlike
   the historic reflow this is a *post-pass* — the global feasibility is
   already guaranteed by the flow, so every block step preserves it (piece
   capacities are respected by construction).

   The paper notes that FBP "can only compensate these problems partially"
   about reflow in the classic recursive scheme; here it is the optional
   extension knob: [Placer]-produced assignments are already feasible, and
   one or two repartition sweeps trade extra runtime for a few percent of
   HPWL. *)

open Fbp_netlist
open Fbp_flow

type stats = {
  n_blocks : int;
  n_moved : int;  (* cells whose piece assignment changed *)
  hpwl_before : float;
  hpwl_after : float;
  time : float;
}

let span = 2

(* One sweep over all [span] x [span] window blocks (stride = span so each
   window is visited once per sweep), on flat arrays (DESIGN §9, "Flat
   repartition").  The blocks of one sweep are disjoint, and a block moves
   cells only between its own pieces, so no block reads what an earlier
   block of the sweep moved: the members of every piece are counted once,
   at the start of the sweep, from [piece_of_cell]. *)
let sweep (cfg : Config.t) (inst : Fbp_movebound.Instance.t)
    (regions : Fbp_movebound.Regions.t) (grid : Grid.t) (pos : Placement.t)
    ~(piece_of_cell : int array) =
  Fbp_obs.Obs.span "repartition.sweep" @@ fun () ->
  let t0 = Fbp_util.Timer.now () in
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  let widths = nl.Netlist.widths and heights = nl.Netlist.heights in
  let xs = pos.Placement.x and ys = pos.Placement.y in
  let pieces = grid.Grid.pieces and geom = grid.Grid.geom in
  let piece_start = grid.Grid.piece_start in
  (* net-dedup, assembly, solve and transportation scratch shared across
     this sweep's blocks *)
  let qp_scratch = Qp.create_scratch () in
  let hpwl_before = Hpwl.total nl pos in
  let n_blocks = ref 0 and n_moved = ref 0 in
  (* cells per piece, a counting sort of the current assignment: piece
     [p]'s cells, ascending, are [members.(mstart.(p) .. mstart.(p+1)-1)] *)
  let n_cells = Netlist.n_cells nl and n_pieces = Grid.n_pieces grid in
  let mstart = Array.make (n_pieces + 1) 0 in
  for c = 0 to n_cells - 1 do
    let p = piece_of_cell.(c) in
    if p >= 0 then mstart.(p + 1) <- mstart.(p + 1) + 1
  done;
  for p = 0 to n_pieces - 1 do
    mstart.(p + 1) <- mstart.(p + 1) + mstart.(p)
  done;
  let members = Array.make mstart.(n_pieces) 0 in
  let next = Array.sub mstart 0 n_pieces in
  for c = 0 to n_cells - 1 do
    let p = piece_of_cell.(c) in
    if p >= 0 then begin
      members.(next.(p)) <- c;
      next.(p) <- next.(p) + 1
    end
  done;
  (* The block's pieces in sink order, which decides transport ties: its
     windows by dx descending, then dy descending, each window's pieces
     ascending.  [f w] runs over those windows. *)
  let block_windows bx by f =
    for dx = span - 1 downto 0 do
      for dy = span - 1 downto 0 do
        if bx + dx < grid.Grid.nx && by + dy < grid.Grid.ny then
          f (Grid.window_index grid ~wx:(bx + dx) ~wy:(by + dy))
      done
    done
  in
  let bx = ref 0 in
  while !bx < grid.Grid.nx do
    let by = ref 0 in
    while !by < grid.Grid.ny do
      let k = ref 0 and n = ref 0 in
      block_windows !bx !by (fun w ->
          k := !k + piece_start.(w + 1) - piece_start.(w);
          n := !n + mstart.(piece_start.(w + 1)) - mstart.(piece_start.(w)));
      let k = !k and n = !n in
      let piece_arr = Array.make k 0 and cells = Array.make n 0 in
      let j = ref 0 and i = ref 0 in
      block_windows !bx !by (fun w ->
          for p = piece_start.(w) to piece_start.(w + 1) - 1 do
            piece_arr.(!j) <- p;
            incr j;
            for m = mstart.(p) to mstart.(p + 1) - 1 do
              cells.(!i) <- members.(m);
              incr i
            done
          done);
      Fbp_util.Int_sort.sort cells 0 (n - 1);
      if n > 1 && k > 1 then begin
        incr n_blocks;
        (* local QP over the block (everything else fixed) *)
        if cfg.Config.local_qp then
          ignore
            (Qp.solve_local cfg nl pos ~scratch:qp_scratch ~cells
               ~anchor:(fun _ -> None) ());
        (* transportation among the block's pieces; capacities = the piece
           capacities (global feasibility already holds, so the block's
           cells fit its pieces by induction) *)
        let problem = Qp.transport_problem qp_scratch ~n ~k in
        let sizes = problem.Transport.sizes
        and caps = problem.Transport.capacities
        and cost = problem.Transport.cost in
        for i = 0 to n - 1 do
          let c = cells.(i) in
          let mb = nl.Netlist.movebound.(c) in
          let mb = if mb < 0 then -1 else mb in
          for j = 0 to k - 1 do
            let pid = piece_arr.(j) in
            let region =
              regions.Fbp_movebound.Regions.regions.(pieces.(pid).Grid.region)
            in
            if Fbp_movebound.Regions.admissible region ~mb then
              Grid.dist_l1 geom.(pid) xs ys c cost ((i * k) + j)
            else cost.((i * k) + j) <- infinity
          done
        done;
        (* the incoming assignment may exceed nominal capacities by the
           rounding slack; inflate proportionally so the block problem is
           feasible and the slack stays spread instead of concentrating *)
        let total_size = ref 0.0 in
        for i = 0 to n - 1 do
          let c = cells.(i) in
          sizes.(i) <- widths.(c) *. heights.(c);
          total_size := !total_size +. sizes.(i)
        done;
        let total_cap = ref 0.0 in
        for j = 0 to k - 1 do
          caps.(j) <- pieces.(piece_arr.(j)).Grid.capacity;
          total_cap := !total_cap +. caps.(j)
        done;
        let total_size = !total_size and total_cap = !total_cap in
        let scale = if total_cap < total_size then total_size /. total_cap +. 1e-6 else 1.0 in
        for j = 0 to k - 1 do
          caps.(j) <- caps.(j) *. scale
        done;
        match
          Transport.solve ~workspace:(Qp.transport_workspace qp_scratch) problem
        with
        | Error _ -> ()
        | Ok assignment ->
          for i = 0 to n - 1 do
            let c = cells.(i) in
            let j = Transport.choice assignment i in
            if j >= 0 then begin
              let pid = piece_arr.(j) in
              if piece_of_cell.(c) <> pid then begin
                piece_of_cell.(c) <- pid;
                incr n_moved
              end;
              Grid.project_into geom.(pid) xs ys c
            end
          done
      end;
      by := !by + span
    done;
    bx := !bx + span
  done;
  Fbp_obs.Obs.count ~n:!n_blocks "repartition.blocks";
  Fbp_obs.Obs.count ~n:!n_moved "repartition.moved_cells";
  {
    n_blocks = !n_blocks;
    n_moved = !n_moved;
    hpwl_before;
    hpwl_after = Hpwl.total nl pos;
    time = Fbp_util.Timer.now () -. t0;
  }

(* Run [sweeps] repartition passes over a finished placer report.  Every
   sweep tiles the grid from the same origin, so a later sweep re-solves
   the same blocks starting from the previous sweep's result. *)
let refine ?(sweeps = 1) (cfg : Config.t)
    (inst : Fbp_movebound.Instance.t) (report : Placer.report) =
  match report.Placer.final_grid with
  | None -> []
  | Some grid ->
    List.init sweeps (fun _ ->
        sweep cfg inst report.Placer.regions grid report.Placer.placement
          ~piece_of_cell:report.Placer.piece_of_cell)
