(* The BonnPlace-FBP global placement driver.

   Multilevel loop: at level l the chip is divided into a 2^l x 2^l window
   grid; a global QP restores connectivity, then the flow-based
   partitioning assigns cells to region pieces respecting capacities and
   movebounds, and the realization turns the flow into concrete positions.
   From level 2 on, the QP starts from the previous level's realization.
   On an instance without movebounds it keeps that partition: the cells of
   each window keep their area-weighted centre of gravity (GORDIAN's
   constraints), and one weak anchor weight only conditions the solve.
   With movebounds, anchors that grow with the level pull the QP toward
   the realization instead.  Levels refine until windows are a few rows
   tall; the result feeds the legalizer.

   Every level records the Table I instrumentation: flow-model size (|V|,
   |E|), window and region-piece counts, and the wall-clock split between
   flow computation and realization.

   Failure semantics (see DESIGN.md "Failure semantics"): the placement
   after each successful level is a checkpoint.  When a level fails — the
   flow certifies infeasibility even after the degradation ladder, CG
   breaks down, the deadline runs out, or an exception escapes a solver —
   the placer restores the checkpoint and returns it with a degradation
   report instead of crashing.  [Config.strict] turns every degradation
   into a typed error instead. *)

open Fbp_netlist
open Fbp_geometry
module Err = Fbp_resilience.Fbp_error
module Inject = Fbp_resilience.Inject

type level_report = {
  level : int;
  nx : int;
  ny : int;
  n_windows : int;
  n_pieces : int;
  flow_nodes : int;
  flow_edges : int;
  qp_time : float;
  flow_time : float;  (* model build + MinCostFlow *)
  realization_time : float;
  hpwl : float;
  cg_iterations : int;
  cg_residual : float;
  cg_converged : bool;  (* this level's QP solves converged *)
  mcf_cost : float;
  mcf_rounds : int;
  realization : Realization.stats;
  gc : Fbp_obs.Obs.gc_delta;
}

type degradation =
  | Margin_dropped of { level : int }
  | Cg_restarted of { level : int; stats : Err.cg_stats }
  | Movebounds_relaxed of { level : int; unrouted : float }
  | Bisection_fallback of { reason : Err.t }
  | Level_aborted of { level : int; reason : Err.t }
  | Deadline_stop of { level : int; elapsed : float; budget : float }

type report = {
  placement : Placement.t;
  piece_of_cell : int array;  (* final-level region-piece assignment *)
  regions : Fbp_movebound.Regions.t;
  final_grid : Grid.t option;
  levels : level_report list;
  levels_planned : int;
  degradations : degradation list;  (* chronological *)
  total_time : float;
  hpwl : float;
}

let degradation_to_string = function
  | Margin_dropped { level } ->
    Printf.sprintf
      "level %d: legalizability margin made a movebound class infeasible; \
       capacity margin dropped"
      level
  | Cg_restarted { level; stats } ->
    Printf.sprintf
      "level %d: CG diverged (residual %.2e after %d iters); safeguarded \
       restart with stronger anchors"
      level stats.Err.residual stats.Err.iterations
  | Movebounds_relaxed { level; unrouted } ->
    Printf.sprintf
      "level %d: flow infeasible (%.1f area unrouted); movebound slack \
       relaxation applied"
      level unrouted
  | Bisection_fallback { reason } ->
    Printf.sprintf "fell back to recursive bisection placement: %s"
      (Err.to_string reason)
  | Level_aborted { level; reason } ->
    Printf.sprintf "level %d aborted, returning last-good checkpoint: %s" level
      (Err.to_string reason)
  | Deadline_stop { level; elapsed; budget } ->
    Printf.sprintf
      "deadline: stopped before level %d (%.2fs elapsed of %.2fs budget); \
       returning last-good checkpoint"
      level elapsed budget

(* Number of levels: refine while windows stay at least [min_window_rows]
   rows tall and keep a floor of cells per window.  The MinCostFlow size
   grows with windows x movebound classes, so movebound-heavy instances
   stop a level earlier than plain ones (see DESIGN.md). *)
let n_levels (cfg : Config.t) (design : Design.t) =
  let chip_h = Rect.height design.Design.chip in
  let nl = design.Design.netlist in
  let n_movable = ref 0 in
  let classes = Hashtbl.create 8 in
  for c = 0 to Netlist.n_cells nl - 1 do
    if not nl.Netlist.fixed.(c) then begin
      incr n_movable;
      Hashtbl.replace classes nl.Netlist.movebound.(c) ()
    end
  done;
  let per_window =
    if Hashtbl.length classes > 4 then 20
    else if !n_movable < 3000 then 4  (* small designs need the finer grid *)
    else 6
  in
  let rec go l =
    let windows_h = chip_h /. float_of_int (1 lsl l) in
    if l >= cfg.Config.max_levels
       || windows_h < cfg.Config.min_window_rows *. design.Design.row_height
       || (1 lsl (2 * l)) * per_window > !n_movable
    then l - 1
    else go (l + 1)
  in
  max 1 (go 1)

let cg_stats_of (s : Qp.stats) =
  {
    Err.iterations = s.Qp.cg_iterations;
    residual = s.Qp.residual;
    converged = s.Qp.converged;
  }

let blit_placement ~(src : Placement.t) ~(dst : Placement.t) =
  Array.blit src.Placement.x 0 dst.Placement.x 0 (Array.length src.Placement.x);
  Array.blit src.Placement.y 0 dst.Placement.y 0 (Array.length src.Placement.y)

(* The anchor weight of the level QP without centre-of-gravity groups,
   0.02 * 2.6^level: it grows 2.6-fold per level, so each finer level's
   QP stays closer to the previous level's realization. *)
let anchor_weight level = 0.02 *. (2.6 ** float_of_int level)

(* The anchor weight of the grouped level QP, the same at every level:
   the groups hold the partition, so the anchors only condition CG and
   damp moves within a window.  On the 18.6k-cell bench design, 0.02
   takes 13% more global-placement time (more CG iterations) and 0.1
   ends 1.3% higher in HPWL. *)
let cog_anchor_weight = 0.05

(* The centre-of-gravity groups of a level QP: one per window of the
   cell's previous piece (group id = window id), weighted by cell area.
   Starting from the previous realization, the QP keeps each window's
   realized centre of gravity. *)
let window_groups (nl : Netlist.t) (grid : Grid.t) (piece_of_cell : int array) =
  let n = Netlist.n_cells nl in
  let group = Array.make n (-1) and weight = Array.make n 0.0 in
  for c = 0 to n - 1 do
    let p = piece_of_cell.(c) in
    if (not nl.Netlist.fixed.(c)) && p >= 0 then begin
      group.(c) <- grid.Grid.pieces.(p).Grid.window;
      weight.(c) <- Netlist.size nl c
    end
  done;
  { Fbp_linalg.Cg.group; weight; n_groups = Grid.n_windows grid }

(* Movable cells whose position lies outside the window of their previous
   piece: the cells a level QP moved across the partition. *)
let escaped_cells (nl : Netlist.t) (grid : Grid.t) (piece_of_cell : int array)
    (pos : Placement.t) =
  let n = ref 0 in
  for c = 0 to Netlist.n_cells nl - 1 do
    let p = piece_of_cell.(c) in
    if (not nl.Netlist.fixed.(c)) && p >= 0 then begin
      let r = grid.Grid.windows.(grid.Grid.pieces.(p).Grid.window).Grid.rect in
      let x = pos.Placement.x.(c) and y = pos.Placement.y.(c) in
      if x < r.Rect.x0 || x > r.Rect.x1 || y < r.Rect.y0 || y > r.Rect.y1 then incr n
    end
  done;
  !n

(* Flow capacities are derated to this fraction of the free area, leaving
   legalization headroom; the placer drops the margin (to 1.0) for the
   rest of the run when it makes a level's flow infeasible. *)
let capacity_margin = 0.94

(* How much stronger the anchors get on a safeguarded CG restart: the extra
   diagonal mass reconditions the system while pulling toward the last-good
   positions the restart resumes from. *)
let cg_restart_factor = 8.0

exception Abort of Err.t

let place ?(config = Config.default) ?on_level ?fallback
    (inst0 : Fbp_movebound.Instance.t) =
  match Fbp_movebound.Instance.normalize inst0 with
  | Error e -> Error (Err.Invalid_input ("movebound normalization failed: " ^ e))
  | Ok inst ->
    let design = inst.Fbp_movebound.Instance.design in
    let nl = design.Design.netlist in
    let t_start = Fbp_util.Timer.now () in
    (* deadline clock; fault injection can add virtual seconds *)
    let injected_delay = ref 0.0 in
    let elapsed () = Fbp_util.Timer.now () -. t_start +. !injected_delay in
    let degradations = ref [] in
    let degrade d = degradations := d :: !degradations in
    let regions =
      Fbp_movebound.Regions.decompose ~chip:design.Design.chip
        inst.Fbp_movebound.Instance.movebounds
    in
    let density = Density.create design in
    (* row-usable area per region: flow capacities must not exceed what the
       row-based legalizer can actually realize *)
    let usable =
      Array.map
        (fun (r : Fbp_movebound.Regions.region) ->
          Density.usable_rows_area density ~chip:design.Design.chip
            ~row_height:design.Design.row_height r.Fbp_movebound.Regions.area)
        regions.Fbp_movebound.Regions.regions
    in
    (* Symbolic-structure cache for the global QPs: every round assembles
       the same net topology over the same movable set, so after the first
       capture each assembly is a flat value sweep (verified, never
       trusted blindly — see Netmodel.cache). *)
    let qp_cache = Netmodel.create_cache () in
    let pos = Placement.copy design.Design.initial in
    let chip_center = Rect.center design.Design.chip in
    (* Level 0: plain global QP, weakly anchored at the chip center so that
       components without fixed pins stay determined.  A diverged solve is
       restarted once from the initial positions with stronger anchors. *)
    let solve_qp0 w =
      Qp.solve_global config nl pos ~cache:qp_cache ~anchor:(fun _ ->
          Some (w, chip_center.Point.x, w, chip_center.Point.y)) ()
    in
    let pre_qp0 = Placement.copy pos in
    let qp0 = solve_qp0 1e-6 in
    let qp0 =
      if qp0.Qp.converged then qp0
      else begin
        degrade (Cg_restarted { level = 0; stats = cg_stats_of qp0 });
        blit_placement ~src:pre_qp0 ~dst:pos;
        solve_qp0 1e-3
      end
    in
    if (not qp0.Qp.converged) && config.Config.strict then
      Error (Err.Cg_diverged (cg_stats_of qp0))
    else begin
      let levels = ref [] in
      let piece_of_cell = ref (Array.make (Netlist.n_cells nl) (-1)) in
      let final_grid = ref None in
      let max_level = n_levels config design in
      let stop = ref None in  (* terminal typed error (strict mode) *)
      let halted = ref false in  (* graceful stop: checkpoint is the result *)
      let margin_ok = ref true in
      (* checkpoint: positions after the previous successful realization *)
      let anchor_pos = ref (Placement.copy pos) in
      let handle_failure level reason =
        match reason with
        (* A sanitizer violation means solver state is corrupt: degradation
           would launder a wrong answer into a "successful" run.  Hard stop
           regardless of strictness. *)
        | Err.Sanitizer_violation _ -> stop := Some reason
        | _ ->
        if config.Config.strict then stop := Some reason
        else
          match (reason, fallback) with
          | Err.Deadline_exceeded { elapsed; budget; _ }, _ ->
            (* mid-level deadline: the level is half-done (QP may have moved
               cells), so restore the checkpoint like any aborted level, but
               report it as a deadline stop rather than a failure *)
            blit_placement ~src:!anchor_pos ~dst:pos;
            degrade (Deadline_stop { level; elapsed; budget });
            halted := true
          | Err.Infeasible_flow _, Some fb when !levels = [] ->
            (* nothing realized yet: a checkpoint return would be the raw QP
               solution (fully overlapped) — recursive bisection degrades
               more usefully *)
            (match fb () with
             | Ok p ->
               blit_placement ~src:p ~dst:pos;
               degrade (Bisection_fallback { reason });
               halted := true
             | Error msg ->
               stop := Some (Err.Internal { site = "bisection fallback"; msg }))
          | _ ->
            blit_placement ~src:!anchor_pos ~dst:pos;
            degrade (Level_aborted { level; reason });
            halted := true
      in
      let l = ref 1 in
      while (not !halted) && !stop = None && !l <= max_level do
        let level = !l in
        let nx = 1 lsl level and ny = 1 lsl level in
        (* fault-injection hook for this level; [Raise] fires inside the
           protected body below so it exercises the real recovery path *)
        let injected_exn = ref None in
        (match Inject.fire Inject.Level with
         | Some (Inject.Delay s) -> injected_delay := !injected_delay +. s
         | Some (Inject.Raise msg) -> injected_exn := Some msg
         | _ -> ());
        (match config.Config.deadline with
         | Some budget when elapsed () > budget ->
           if config.Config.strict then
             stop := Some (Err.Deadline_exceeded { elapsed = elapsed (); budget; level })
           else begin
             degrade (Deadline_stop { level; elapsed = elapsed (); budget });
             halted := true
           end
         | _ ->
           (try
              Fbp_obs.Obs.span "place.level"
                ~args:(fun () ->
                  [ ("level", string_of_int level);
                    ("nx", string_of_int nx); ("ny", string_of_int ny) ])
                (fun () ->
              (match !injected_exn with
               | Some msg -> raise (Inject.Injected msg)
               | None -> ());
              (* Mid-level deadline checks: with only the boundary check, one
                 slow QP or flow solve can overshoot the budget by a whole
                 level.  Also polls the Level injection site, so the site is
                 hit 3x per level (start, post-QP, post-flow) and fault
                 schedules can target these checks deterministically. *)
              let check_deadline () =
                (match Inject.fire Inject.Level with
                 | Some (Inject.Delay s) -> injected_delay := !injected_delay +. s
                 | Some (Inject.Raise msg) -> raise (Inject.Injected msg)
                 | _ -> ());
                match config.Config.deadline with
                | Some budget when elapsed () > budget ->
                  raise (Abort (Err.Deadline_exceeded { elapsed = elapsed (); budget; level }))
                | _ -> ()
              in
              (* QP from the previous level's realization, anchored there;
                 level 1 has no previous realization and skips the QP.
                 Without movebounds each window keeps its centre of
                 gravity.  With movebounds the QP is left unconstrained:
                 their legalization runs at the capacity limit, where
                 which cells fail or leave their bounds follows any change
                 of the global placement.  A diverged solve is restarted
                 from the checkpoint with stronger anchors (safeguarded
                 restart); a second divergence is fatal only in strict
                 mode. *)
              let qp_stats, qp_time =
                Fbp_util.Timer.time (fun () ->
                    Fbp_obs.Profiler.with_phase "qp" @@ fun () ->
                    Fbp_obs.Obs.span "place.qp"
                      ~args:(fun () -> [ ("level", string_of_int level) ])
                      (fun () ->
                    match !final_grid with
                    | Some prev_grid ->
                      let groups, anchor_w =
                        if Fbp_movebound.Instance.n_movebounds inst = 0 then
                          (Some (window_groups nl prev_grid !piece_of_cell),
                           cog_anchor_weight)
                        else (None, anchor_weight level)
                      in
                      let solve w =
                        Qp.solve_global config nl pos ~cache:qp_cache ?groups
                          ~anchor:(fun c ->
                            Some (w, !anchor_pos.Placement.x.(c), w,
                                  !anchor_pos.Placement.y.(c))) ()
                      in
                      let s = solve anchor_w in
                      let s =
                        if s.Qp.converged then s
                        else begin
                          degrade (Cg_restarted { level; stats = cg_stats_of s });
                          blit_placement ~src:!anchor_pos ~dst:pos;
                          solve (anchor_w *. cg_restart_factor)
                        end
                      in
                      if Fbp_obs.Obs.enabled () then
                        Fbp_obs.Obs.count "qp.escaped_cells"
                          ~n:(escaped_cells nl prev_grid !piece_of_cell pos);
                      s
                    | None ->
                      { Qp.vars = 0; cg_iterations = 0; residual = 0.0; converged = true }))
              in
              check_deadline ();
              if (not qp_stats.Qp.converged) && config.Config.strict then
                raise (Abort (Err.Cg_diverged (cg_stats_of qp_stats)));
              (* Flow capacities carry a legalizability margin (integral
                 rounding can overfill a piece by up to one cell; rows lose
                 slivers).  The degradation ladder on infeasibility: drop the
                 margin, then relax movebound admissibility with a distance
                 penalty, then (caller-provided) recursive bisection. *)
              let build_and_solve ?relax_penalty capacity_factor capacity_slack =
                let grid =
                  Grid.create ~usable ~capacity_factor ~capacity_slack
                    ~chip:design.Design.chip ~nx ~ny ~regions ~density ()
                in
                let model = Fbp_model.build ?relax_penalty inst regions grid pos in
                (grid, model, Fbp_model.solve model)
              in
              (* half a typical movable cell of headroom per piece against
                 integral rounding overfill *)
              let slack =
                let acc = ref 0.0 and n = ref 0 in
                for c = 0 to Netlist.n_cells nl - 1 do
                  if not nl.Netlist.fixed.(c) then begin
                    acc := !acc +. Netlist.size nl c;
                    incr n
                  end
                done;
                if !n = 0 then 0.0 else 0.5 *. !acc /. float_of_int !n
              in
              let (grid, model, sol), flow_time =
                Fbp_util.Timer.time (fun () ->
                    Fbp_obs.Profiler.with_phase "flow" @@ fun () ->
                    Fbp_obs.Obs.span "place.flow"
                      ~args:(fun () -> [ ("level", string_of_int level) ])
                      (fun () ->
                    let attempt =
                      if not !margin_ok then build_and_solve 1.0 0.0
                      else
                        match build_and_solve capacity_margin slack with
                        | (_, _, { Fbp_model.verdict = Fbp_flow.Mcf.Infeasible _; _ }) ->
                          (* margins make this instance infeasible: drop them
                             for the remaining levels too (avoids re-solving
                             twice each level) *)
                          margin_ok := false;
                          degrade (Margin_dropped { level });
                          build_and_solve 1.0 0.0
                        | ok -> ok
                    in
                    match attempt with
                    | (_, _, { Fbp_model.verdict = Fbp_flow.Mcf.Infeasible { unrouted }; _ })
                      when not config.Config.strict ->
                      (* movebound slack relaxation: allow out-of-bound pieces
                         at a penalty of one chip half-perimeter per unit *)
                      let pen =
                        2.0 *. (Rect.width design.Design.chip +. Rect.height design.Design.chip)
                      in
                      (match build_and_solve ~relax_penalty:pen 1.0 0.0 with
                       | (_, _, { Fbp_model.verdict = Fbp_flow.Mcf.Feasible _; _ }) as ok ->
                         degrade (Movebounds_relaxed { level; unrouted });
                         ok
                       | failed -> failed)
                    | a -> a))
              in
              check_deadline ();
              match sol.Fbp_model.verdict with
              | Fbp_flow.Mcf.Infeasible { unrouted } ->
                raise (Abort (Err.Infeasible_flow { unrouted; level }))
              | Fbp_flow.Mcf.Feasible { cost = mcf_cost } ->
                let r, realization_time =
                  Fbp_util.Timer.time (fun () ->
                      Fbp_obs.Profiler.with_phase "realization" @@ fun () ->
                      Fbp_obs.Obs.span "place.realization"
                        ~args:(fun () -> [ ("level", string_of_int level) ])
                        (fun () ->
                          Realization.realize config inst regions sol pos))
                in
                piece_of_cell := r.Realization.piece_of_cell;
                final_grid := Some grid;
                blit_placement ~src:pos ~dst:!anchor_pos;
                let hpwl = Hpwl.total nl pos in
                (* level boundary: the level's GC delta (also the metrics'
                   gc.* gauges) *)
                let gc = Fbp_obs.Obs.sample_gc () in
                let rep =
                  {
                    level;
                    nx;
                    ny;
                    n_windows = Grid.n_windows grid;
                    n_pieces = Grid.n_pieces grid;
                    flow_nodes = model.Fbp_model.n_nodes;
                    flow_edges = model.Fbp_model.n_edges;
                    qp_time;
                    flow_time;
                    realization_time;
                    hpwl;
                    cg_iterations = qp_stats.Qp.cg_iterations;
                    cg_residual = qp_stats.Qp.residual;
                    cg_converged = qp_stats.Qp.converged;
                    mcf_cost;
                    mcf_rounds = sol.Fbp_model.mcf_rounds;
                    realization = r.Realization.stats;
                    gc;
                  }
                in
                levels := rep :: !levels;
                (* drain the runtime-events ring at each level so overflow
                   stays bounded and trace injection is incremental *)
                Fbp_obs.Profiler.poll ();
                (match on_level with Some f -> f rep pos | None -> ()))
            with
            | Abort reason -> handle_failure level reason
            | Inject.Injected msg ->
              handle_failure level (Err.Internal { site = "injected"; msg })
            | e -> handle_failure level (Err.of_exn ~site:(Printf.sprintf "level %d" level) e)));
        incr l
      done;
      match !stop with
      | Some e -> Error e
      | None ->
        Ok
          {
            placement = pos;
            piece_of_cell = !piece_of_cell;
            regions;
            final_grid = !final_grid;
            levels = List.rev !levels;
            levels_planned = max_level;
            degradations = List.rev !degradations;
            total_time = Fbp_util.Timer.now () -. t_start;
            hpwl = Hpwl.total nl pos;
          }
    end
