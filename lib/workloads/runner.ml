(* Run a placer on an instance and collect the metrics every table needs:
   legal-placement HPWL, wall time split into global and legalization,
   movebound violations, and the legality audit.

   Failures are typed ({!Fbp_resilience.Fbp_error}); [run_fbp] also wires
   the recursive-bisection fallback of the degradation ladder into the
   placer, so an infeasible first level degrades instead of failing. *)

open Fbp_netlist
module Err = Fbp_resilience.Fbp_error

type metrics = {
  tool : string;
  hpwl : float;  (* after legalization *)
  hpwl_global : float;  (* before legalization *)
  global_time : float;
  legalize_time : float;
  total_time : float;
  violations : int;
  legal : bool;  (* overlap/row/chip-audit clean *)
  levels : Fbp_core.Placer.level_report list;  (* FBP only *)
  degradations : Fbp_core.Placer.degradation list;  (* FBP only *)
  placement : Placement.t;  (* final legal placement *)
}

let audit_of (inst : Fbp_movebound.Instance.t) pos =
  let design = inst.Fbp_movebound.Instance.design in
  let a = Fbp_legalize.Check.audit design pos in
  let v = Fbp_movebound.Legality.check inst pos in
  (a.Fbp_legalize.Check.legal, v.Fbp_movebound.Legality.n_violations)

let normalized inst =
  match Fbp_movebound.Instance.normalize inst with
  | Ok i -> i
  | Error _ -> inst (* caller deals with infeasibility downstream *)

let run_fbp ?(config = Fbp_core.Config.default) ?(repartition = 1)
    (inst : Fbp_movebound.Instance.t) =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  (* last rung of the degradation ladder: classic recursive bisection for
     instances whose first-level flow is infeasible *)
  let fallback () =
    match Fbp_baselines.Recursive.place ~config inst with
    | Ok r -> Ok r.Fbp_baselines.Recursive.placement
    | Error e -> Error e
  in
  (* post-place phase (repartition, legalization, audits), factored so the
     match below can wrap it in exception protection *)
  let post_place (rep : Fbp_core.Placer.report) =
    (* reflow post-pass (Repartition): a sweep or two of 2x2 block
       re-optimization recovers HPWL at negligible cost *)
    let repartition_time =
      if repartition > 0 then begin
        let t0 = Fbp_util.Timer.now () in
        ignore (Fbp_core.Repartition.refine ~sweeps:repartition config inst rep);
        Fbp_util.Timer.now () -. t0
      end
      else 0.0
    in
    let pos = rep.Fbp_core.Placer.placement in
    let hpwl_global = Hpwl.total nl pos in
    let inst_n = normalized inst in
    let lst =
      Fbp_legalize.Legalizer.run inst_n rep.Fbp_core.Placer.regions pos
        ~piece_of_cell:rep.Fbp_core.Placer.piece_of_cell
        ~grid:rep.Fbp_core.Placer.final_grid
    in
    let legal, violations = audit_of inst_n pos in
    let m =
      {
        tool = "BonnPlace FBP (repro)";
        hpwl = Hpwl.total nl pos;
        hpwl_global;
        global_time = rep.Fbp_core.Placer.total_time +. repartition_time;
        legalize_time = lst.Fbp_legalize.Legalizer.time;
        total_time =
          rep.Fbp_core.Placer.total_time +. repartition_time
          +. lst.Fbp_legalize.Legalizer.time;
        violations;
        legal = legal && lst.Fbp_legalize.Legalizer.n_failed = 0;
        levels = rep.Fbp_core.Placer.levels;
        degradations = rep.Fbp_core.Placer.degradations;
        placement = pos;
      }
    in
    (* flight recorder: the legalization snapshot, the final-placement
       density heatmap, and the run totals (only when [--record] armed it) *)
    if Fbp_obs.Recorder.enabled () then begin
      let module R = Fbp_obs.Recorder in
      let design = inst_n.Fbp_movebound.Instance.design in
      let hnx, hny = (24, 24) in
      let usage, capacity =
        Fbp_core.Density.bin_utilization design pos ~nx:hnx ~ny:hny
      in
      R.record_legalization
        {
          R.leg_hpwl = m.hpwl;
          leg_density_overflow =
            Fbp_core.Density.overflow_fraction design pos ~nx:hnx ~ny:hny;
          leg_mb_violations = violations;
          leg_time = lst.Fbp_legalize.Legalizer.time;
          spilled = lst.Fbp_legalize.Legalizer.n_spilled;
          failed = lst.Fbp_legalize.Legalizer.n_failed;
          avg_displacement = lst.Fbp_legalize.Legalizer.avg_displacement;
          max_displacement = lst.Fbp_legalize.Legalizer.max_displacement;
        };
      R.set_density { R.dnx = hnx; dny = hny; usage; capacity };
      (* host provenance last: Pool.hardware_domains and VmHWM are only
         meaningful once the run has actually exercised the pool *)
      R.set_host
        {
          R.hw_clamp = config.Fbp_core.Config.hw_clamp;
          hardware_domains = Fbp_util.Pool.hardware_domains;
          eff_domains = Fbp_core.Config.effective_domains config;
          peak_rss_kb = Fbp_util.Rss.peak_rss_kb ();
        };
      R.set_totals
        {
          R.hpwl = m.hpwl;
          global_time = m.global_time;
          legalize_time = m.legalize_time;
          total_time = m.total_time;
          legal = m.legal;
          violations = m.violations;
        }
    end;
    Ok m
  in
  match Fbp_core.Placer.place ~config ~fallback inst with
  | Error e -> Error e
  | Ok rep -> (
    (* The post-place phase runs outside the placer's own exception
       protection; convert anything escaping it — an injected fault, a
       sanitizer violation raised as [Err.Error] — into the typed taxonomy
       so callers still see a [result] and the recorder/trace exit paths
       still run. *)
    try post_place rep with e -> Error (Err.of_exn ~site:"runner.post_place" e))

let run_rql ?params (inst : Fbp_movebound.Instance.t) =
  match Fbp_baselines.Rql.place ?params inst with
  | Error e -> Error (Err.Invalid_input e)
  | Ok rep ->
    let inst_n = normalized inst in
    let legal, violations = audit_of inst_n rep.Fbp_baselines.Rql.placement in
    Ok
      {
        tool = "RQL (repro)";
        hpwl = rep.Fbp_baselines.Rql.hpwl;
        hpwl_global = rep.Fbp_baselines.Rql.hpwl;
        global_time = rep.Fbp_baselines.Rql.global_time;
        legalize_time = rep.Fbp_baselines.Rql.legalize_time;
        total_time =
          rep.Fbp_baselines.Rql.global_time +. rep.Fbp_baselines.Rql.legalize_time;
        violations;
        legal;
        levels = [];
        degradations = [];
        placement = rep.Fbp_baselines.Rql.placement;
      }

let run_kraftwerk ?params (inst : Fbp_movebound.Instance.t) =
  match Fbp_baselines.Kraftwerk.place ?params inst with
  | Error e -> Error (Err.Invalid_input e)
  | Ok rep ->
    let inst_n = normalized inst in
    let legal, violations = audit_of inst_n rep.Fbp_baselines.Kraftwerk.placement in
    Ok
      {
        tool = "Kraftwerk2 (repro)";
        hpwl = rep.Fbp_baselines.Kraftwerk.hpwl;
        hpwl_global = rep.Fbp_baselines.Kraftwerk.hpwl;
        global_time = rep.Fbp_baselines.Kraftwerk.global_time;
        legalize_time = rep.Fbp_baselines.Kraftwerk.legalize_time;
        total_time =
          rep.Fbp_baselines.Kraftwerk.global_time
          +. rep.Fbp_baselines.Kraftwerk.legalize_time;
        violations;
        legal;
        levels = [];
        degradations = [];
        placement = rep.Fbp_baselines.Kraftwerk.placement;
      }
