(* Tests for the repartitioning (reflow) post-pass extension. *)

open Fbp_netlist

let run_placer n seed =
  let d = Generator.quick ~seed ~name:"reflow" n in
  let inst = Fbp_movebound.Instance.unconstrained d in
  match Fbp_core.Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep -> (d, inst, rep)

let test_sweep_improves_or_preserves_hpwl () =
  let _, inst, rep = run_placer 2000 81 in
  let stats = Fbp_core.Repartition.refine ~sweeps:1 Fbp_core.Config.default inst rep in
  match stats with
  | [ s ] ->
    Alcotest.(check bool) "blocks visited" true (s.Fbp_core.Repartition.n_blocks > 0);
    Alcotest.(check bool)
      (Printf.sprintf "hpwl %.0f -> %.0f not much worse" s.Fbp_core.Repartition.hpwl_before
         s.Fbp_core.Repartition.hpwl_after)
      true
      (s.Fbp_core.Repartition.hpwl_after <= s.Fbp_core.Repartition.hpwl_before *. 1.02)
  | _ -> Alcotest.fail "expected one sweep"

let test_sweep_respects_capacities_and_admissibility () =
  let d = Generator.quick ~seed:82 ~name:"reflow2" 2000 in
  let chip = d.Design.chip in
  let w = Fbp_geometry.Rect.width chip and h = Fbp_geometry.Rect.height chip in
  let island =
    Fbp_geometry.Rect.make ~x0:(0.1 *. w) ~y0:(0.1 *. h) ~x1:(0.5 *. w) ~y1:(0.5 *. h)
  in
  let nl = d.Design.netlist in
  let rng = Fbp_util.Rng.create 83 in
  for c = 0 to Netlist.n_cells nl - 1 do
    if Fbp_util.Rng.float rng < 0.1 then nl.Netlist.movebound.(c) <- 0
  done;
  let inst =
    { Fbp_movebound.Instance.design = d;
      movebounds =
        [| Fbp_movebound.Movebound.make ~id:0 ~name:"isl"
             ~kind:Fbp_movebound.Movebound.Inclusive [ island ] |] }
  in
  match Fbp_core.Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep ->
    let inst_n =
      match Fbp_movebound.Instance.normalize inst with Ok i -> i | Error e -> Alcotest.fail e
    in
    ignore (Fbp_core.Repartition.refine ~sweeps:2 Fbp_core.Config.default inst_n rep);
    let grid = Option.get rep.Fbp_core.Placer.final_grid in
    (* every constrained cell still assigned to an admissible piece *)
    for c = 0 to Netlist.n_cells nl - 1 do
      if nl.Netlist.movebound.(c) = 0 && not nl.Netlist.fixed.(c) then begin
        let pid = rep.Fbp_core.Placer.piece_of_cell.(c) in
        Alcotest.(check bool) "assigned" true (pid >= 0);
        let region =
          rep.Fbp_core.Placer.regions.Fbp_movebound.Regions.regions.(grid.Fbp_core.Grid.pieces.(pid).Fbp_core.Grid.region)
        in
        if not (Fbp_movebound.Regions.admissible region ~mb:0) then
          Alcotest.failf "cell %d repartitioned to inadmissible piece" c
      end
    done;
    (* piece loads stay within capacity + one-cell slack *)
    let load = Array.make (Fbp_core.Grid.n_pieces grid) 0.0 in
    for c = 0 to Netlist.n_cells nl - 1 do
      let pid = rep.Fbp_core.Placer.piece_of_cell.(c) in
      if pid >= 0 then load.(pid) <- load.(pid) +. Netlist.size nl c
    done;
    let max_cell = Array.fold_left Float.max 0.0 nl.Netlist.widths in
    Array.iter
      (fun (p : Fbp_core.Grid.piece) ->
        if load.(p.Fbp_core.Grid.id) > p.Fbp_core.Grid.capacity +. (2.0 *. max_cell) then
          Alcotest.failf "piece %d overfull after reflow" p.Fbp_core.Grid.id)
      grid.Fbp_core.Grid.pieces

let test_refine_without_grid_is_noop () =
  let _, inst, rep = run_placer 1500 84 in
  let rep' = { rep with Fbp_core.Placer.final_grid = None } in
  Alcotest.(check int) "no sweeps" 0
    (List.length (Fbp_core.Repartition.refine Fbp_core.Config.default inst rep'))

let test_runner_reflow_ablation () =
  (* reflow on vs off: on must not be worse (it is designed to help) *)
  let d = Generator.quick ~seed:85 ~name:"reflow3" 2500 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  match
    (Fbp_workloads.Runner.run_fbp ~repartition:0 inst,
     Fbp_workloads.Runner.run_fbp ~repartition:1 inst)
  with
  | Ok off, Ok on ->
    Alcotest.(check bool)
      (Printf.sprintf "reflow %.0f <= no-reflow %.0f * 1.02" on.Fbp_workloads.Runner.hpwl
         off.Fbp_workloads.Runner.hpwl)
      true
      (on.Fbp_workloads.Runner.hpwl <= off.Fbp_workloads.Runner.hpwl *. 1.02);
    Alcotest.(check bool) "both legal" true
      (on.Fbp_workloads.Runner.legal && off.Fbp_workloads.Runner.legal)
  | Error e, _ | _, Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)

(* ---------- flat sweep against the list sweep ---------- *)

(* The sweep as it was before it ran on flat arrays, kept verbatim (only
   its transportation problem names its counts): cells per piece in lists
   updated on every move, the block's pieces and cells as lists, costs
   from [Rect_set.dist_l1_point] at a [Point] per cell, and a [Point] per
   projection.  The reference that [Repartition.sweep] must reproduce bit
   for bit. *)
module Reference = struct
  open Fbp_geometry
  open Fbp_netlist
  open Fbp_flow
  open Fbp_core
  open Repartition

  let span = 2

  (* One sweep over all [span] x [span] window blocks (stride = span so each
     window is visited once per sweep). *)
  let sweep (cfg : Config.t) (inst : Fbp_movebound.Instance.t)
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
              Transport.n = Array.length cells;
              k;
              sizes;
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

  let refine ?(sweeps = 1) (cfg : Config.t)
      (inst : Fbp_movebound.Instance.t) (report : Placer.report) =
    match report.Placer.final_grid with
    | None -> []
    | Some grid ->
      List.init sweeps (fun _ ->
          sweep cfg inst report.Placer.regions grid report.Placer.placement
            ~piece_of_cell:report.Placer.piece_of_cell)
end

(* A report whose placement and assignment a sweep may write without
   touching [rep]'s. *)
let copy_report (rep : Fbp_core.Placer.report) =
  { rep with
    Fbp_core.Placer.placement = Placement.copy rep.Fbp_core.Placer.placement;
    piece_of_cell = Array.copy rep.Fbp_core.Placer.piece_of_cell }

(* A design of [n] cells where each cell is bound, with probability 0.1,
   to one island movebound of [kind]; returns the normalized instance and
   the placer's report. *)
let island_design ~kind ~seed n =
  let d = Generator.quick ~seed ~name:"reflow-island" n in
  let chip = d.Design.chip in
  let w = Fbp_geometry.Rect.width chip and h = Fbp_geometry.Rect.height chip in
  let island =
    Fbp_geometry.Rect.make ~x0:(0.1 *. w) ~y0:(0.1 *. h) ~x1:(0.5 *. w) ~y1:(0.5 *. h)
  in
  let nl = d.Design.netlist in
  let rng = Fbp_util.Rng.create (seed + 1) in
  for c = 0 to Netlist.n_cells nl - 1 do
    if Fbp_util.Rng.float rng < 0.1 then nl.Netlist.movebound.(c) <- 0
  done;
  let inst =
    { Fbp_movebound.Instance.design = d;
      movebounds =
        [| Fbp_movebound.Movebound.make ~id:0 ~name:"isl" ~kind [ island ] |] }
  in
  match Fbp_core.Placer.place inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok rep -> (
    match Fbp_movebound.Instance.normalize inst with
    | Ok inst_n -> (inst_n, rep)
    | Error e -> Alcotest.fail e)

let test_flat_matches_reference () =
  let bits = Int64.bits_of_float in
  let moved = ref 0 in
  let compare ctx ?(cfg = Fbp_core.Config.default) ?sweeps inst rep =
    let ref_rep = copy_report rep and flat_rep = copy_report rep in
    let expected = Reference.refine ?sweeps cfg inst ref_rep in
    let got = Fbp_core.Repartition.refine ?sweeps cfg inst flat_rep in
    Alcotest.(check int) (ctx ^ ": sweeps") (List.length expected) (List.length got);
    List.iter2
      (fun (e : Fbp_core.Repartition.stats) (g : Fbp_core.Repartition.stats) ->
        Alcotest.(check int) (ctx ^ ": n_blocks") e.Fbp_core.Repartition.n_blocks
          g.Fbp_core.Repartition.n_blocks;
        Alcotest.(check int) (ctx ^ ": n_moved") e.Fbp_core.Repartition.n_moved
          g.Fbp_core.Repartition.n_moved;
        moved := !moved + g.Fbp_core.Repartition.n_moved;
        Alcotest.(check int64) (ctx ^ ": hpwl before bits")
          (bits e.Fbp_core.Repartition.hpwl_before)
          (bits g.Fbp_core.Repartition.hpwl_before);
        Alcotest.(check int64) (ctx ^ ": hpwl after bits")
          (bits e.Fbp_core.Repartition.hpwl_after)
          (bits g.Fbp_core.Repartition.hpwl_after))
      expected got;
    Alcotest.(check (array int)) (ctx ^ ": piece_of_cell")
      ref_rep.Fbp_core.Placer.piece_of_cell flat_rep.Fbp_core.Placer.piece_of_cell;
    let rp = ref_rep.Fbp_core.Placer.placement
    and fp = flat_rep.Fbp_core.Placer.placement in
    Array.iteri
      (fun c x ->
        if bits x <> bits fp.Placement.x.(c) || bits rp.Placement.y.(c) <> bits fp.Placement.y.(c)
        then
          Alcotest.failf "%s: cell %d at (%h, %h), the list sweep puts it at (%h, %h)" ctx c
            fp.Placement.x.(c) fp.Placement.y.(c) x rp.Placement.y.(c))
      rp.Placement.x
  in
  let _, plain_inst, plain = run_placer 1500 86 in
  compare "plain" plain_inst plain;
  let inst, rep = island_design ~kind:Fbp_movebound.Movebound.Inclusive ~seed:82 1500 in
  compare "island" inst rep;
  compare "island, two sweeps" ~sweeps:2 inst rep;
  (* without the local QP, cells keep their projections onto piece
     boundaries, where two pieces tie in cost: the sink order decides *)
  compare "island, no local QP"
    ~cfg:{ Fbp_core.Config.default with Fbp_core.Config.local_qp = false }
    inst rep;
  let inst, rep = island_design ~kind:Fbp_movebound.Movebound.Exclusive ~seed:87 1500 in
  compare "exclusive island" inst rep;
  if !moved = 0 then Alcotest.fail "no sweep moved a cell: the comparison saw no move"

(* A sweep allocates its per-sweep set-up (the members of every piece, a
   scratch that grows to the largest block) and per block its piece and
   cell ids, not lists, [Point]s and cost arrays per cell. *)
let test_repartition_allocation_budget () =
  let per_cell = 40 in
  let _, inst, rep = run_placer 2000 88 in
  let cfg = Fbp_core.Config.default in
  ignore (Fbp_core.Repartition.refine cfg inst (copy_report rep));
  let rep = copy_report rep in
  let n = Netlist.n_cells inst.Fbp_movebound.Instance.design.Design.netlist in
  let _, words =
    Test_core.allocated_words (fun () -> Fbp_core.Repartition.refine cfg inst rep)
  in
  if words > per_cell * n then
    Alcotest.failf "a sweep over %d cells allocated %d words (%.1f per cell)" n words
      (float_of_int words /. float_of_int n)

let suite =
  [
    Alcotest.test_case "sweep preserves/improves hpwl" `Quick test_sweep_improves_or_preserves_hpwl;
    Alcotest.test_case "sweep respects movebounds + capacities" `Slow
      test_sweep_respects_capacities_and_admissibility;
    Alcotest.test_case "refine without grid no-op" `Quick test_refine_without_grid_is_noop;
    Alcotest.test_case "runner reflow ablation" `Slow test_runner_reflow_ablation;
    Alcotest.test_case "repartition flat matches reference" `Quick
      test_flat_matches_reference;
    Alcotest.test_case "repartition allocation budget" `Quick
      test_repartition_allocation_budget;
  ]
