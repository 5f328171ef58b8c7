(* Repartitioning (the "Reflow"/"Repartitioning" refinement of [5], [17],
   [27], discussed in Sections III-IV).

   After the flow-based partitioning has produced a feasible assignment,
   quality can still be recovered locally: for every 2x2 (or 3x3) block of
   windows, re-solve a local QP over the block's cells and re-run the
   movebound-aware transportation among the block's region pieces.  Unlike
   the historic reflow this is a *post-pass* — the global feasibility is
   already guaranteed by the flow, so every block step preserves it (piece
   capacities are respected by construction).

   The paper notes that FBP "can only compensate these problems partially"
   about reflow in the classic recursive scheme; here it is the optional
   extension knob: [Placer]-produced assignments are already feasible, and
   one or two repartition sweeps trade extra runtime for a few percent of
   HPWL. *)

open Fbp_geometry
open Fbp_netlist
open Fbp_flow

type stats = {
  n_blocks : int;
  n_moved : int;  (* cells whose piece assignment changed *)
  hpwl_before : float;
  hpwl_after : float;
  time : float;
}

(* One sweep over all [span] x [span] window blocks (stride = span so each
   window is visited once per sweep). *)
let sweep ?(span = 2) (cfg : Config.t) (inst : Fbp_movebound.Instance.t)
    (regions : Fbp_movebound.Regions.t) (grid : Grid.t) (pos : Placement.t)
    ~(piece_of_cell : int array) =
  let t0 = Fbp_util.Timer.now () in
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  (* net-dedup, assembly, solve and transportation scratch shared across
     this sweep's blocks *)
  let qp_scratch = Qp.create_scratch () in
  let hpwl_before = Hpwl.total nl pos in
  let n_blocks = ref 0 and n_moved = ref 0 in
  (* cells per piece, from the current assignment *)
  let cells_of_piece = Array.make (Grid.n_pieces grid) [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    let p = piece_of_cell.(c) in
    if p >= 0 then cells_of_piece.(p) <- c :: cells_of_piece.(p)
  done;
  let bx = ref 0 in
  while !bx < grid.Grid.nx do
    let by = ref 0 in
    while !by < grid.Grid.ny do
      (* the block's windows and pieces *)
      let windows = ref [] in
      for dx = 0 to span - 1 do
        for dy = 0 to span - 1 do
          if !bx + dx < grid.Grid.nx && !by + dy < grid.Grid.ny then
            windows := Grid.window_index grid ~wx:(!bx + dx) ~wy:(!by + dy) :: !windows
        done
      done;
      let pieces =
        List.concat_map
          (fun w ->
            let p0 = grid.Grid.piece_start.(w) in
            List.init (grid.Grid.piece_start.(w + 1) - p0) (fun i -> p0 + i))
          !windows
      in
      let cells =
        List.concat_map (fun p -> cells_of_piece.(p)) pieces
        |> List.sort Int.compare |> Array.of_list
      in
      if Array.length cells > 1 && List.length pieces > 1 then begin
        incr n_blocks;
        (* local QP over the block (everything else fixed) *)
        if cfg.Config.local_qp then
          ignore
            (Qp.solve_local cfg nl pos ~scratch:qp_scratch ~cells
               ~anchor:(fun _ -> None) ());
        (* transportation among the block's pieces; capacities = the piece
           capacities (global feasibility already holds, so the block's
           cells fit its pieces by induction) *)
        let piece_arr = Array.of_list pieces in
        let admissible c pid =
          let mb = nl.Netlist.movebound.(c) in
          let mbi = if mb < 0 then -1 else mb in
          Fbp_movebound.Regions.admissible
            regions.Fbp_movebound.Regions.regions.(grid.Grid.pieces.(pid).Grid.region)
            ~mb:mbi
        in
        let k = Array.length piece_arr in
        let cost = Array.make (Array.length cells * k) infinity in
        Array.iteri
          (fun i c ->
            let pt = Placement.get pos c in
            for j = 0 to k - 1 do
              let pid = piece_arr.(j) in
              if admissible c pid then
                cost.((i * k) + j) <-
                  Rect_set.dist_l1_point grid.Grid.pieces.(pid).Grid.area pt
            done)
          cells;
        let sizes = Array.map (fun c -> Netlist.size nl c) cells in
        let caps = Array.map (fun pid -> grid.Grid.pieces.(pid).Grid.capacity) piece_arr in
        (* the incoming assignment may exceed nominal capacities by the
           rounding slack; inflate proportionally so the block problem is
           feasible and the slack stays spread instead of concentrating *)
        let total_size = Array.fold_left ( +. ) 0.0 sizes in
        let total_cap = Array.fold_left ( +. ) 0.0 caps in
        let scale = if total_cap < total_size then total_size /. total_cap +. 1e-6 else 1.0 in
        let problem =
          {
            Transport.sizes;
            capacities = Array.map (fun c -> c *. scale) caps;
            cost;
          }
        in
        match
          Transport.solve ~workspace:(Qp.transport_workspace qp_scratch) problem
        with
        | Error _ -> ()
        | Ok assignment ->
          Array.iteri
            (fun i c ->
              let j = Transport.choice assignment i in
              if j >= 0 then begin
                let pid = piece_arr.(j) in
                if piece_of_cell.(c) <> pid then begin
                  (* move between pieces: update bookkeeping *)
                  cells_of_piece.(piece_of_cell.(c)) <-
                    List.filter (fun x -> x <> c) cells_of_piece.(piece_of_cell.(c));
                  cells_of_piece.(pid) <- c :: cells_of_piece.(pid);
                  piece_of_cell.(c) <- pid;
                  incr n_moved
                end;
                let proj =
                  Rect_set.project_point grid.Grid.pieces.(pid).Grid.area
                    (Placement.get pos c)
                in
                Placement.set pos c proj
              end)
            cells
      end;
      by := !by + span
    done;
    bx := !bx + span
  done;
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
let refine ?(sweeps = 1) ?(span = 2) (cfg : Config.t)
    (inst : Fbp_movebound.Instance.t) (report : Placer.report) =
  match report.Placer.final_grid with
  | None -> []
  | Some grid ->
    List.init sweeps (fun _ ->
        sweep ~span cfg inst report.Placer.regions grid report.Placer.placement
          ~piece_of_cell:report.Placer.piece_of_cell)
