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

(* The FBP pipeline: place (with the bisection fallback), repartition,
   legalize, audit.  Returns the metrics beside the legalizer's stats;
   [on_level] is the placer's per-level hook. *)
let pipeline ?(config = Fbp_core.Config.default) ?(repartition = 1) ?on_level
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
    Ok (m, lst)
  in
  match Fbp_core.Placer.place ~config ?on_level ~fallback inst with
  | Error e -> Error e
  | Ok rep -> (
    (* The post-place phase runs outside the placer's own exception
       protection; convert anything escaping it — an injected fault, a
       sanitizer violation raised as [Err.Error] — into the typed taxonomy
       so callers still see a [result] and the recorder/trace exit paths
       still run. *)
    try post_place rep with e -> Error (Err.of_exn ~site:"runner.post_place" e))

let run_fbp ?config ?repartition inst =
  Result.map fst (pipeline ?config ?repartition inst)

module R = Fbp_obs.Recorder

(* Bins per axis of a record's final density map. *)
let density_bins = 24

(* The level's snapshot; the density-overflow and movebound audits of its
   positions are the per-level work only a record needs. *)
let level_snapshot (inst_n : Fbp_movebound.Instance.t)
    (l : Fbp_core.Placer.level_report) pos =
  let rs = l.Fbp_core.Placer.realization in
  {
    R.level = l.level;
    nx = l.nx;
    ny = l.ny;
    n_windows = l.n_windows;
    n_pieces = l.n_pieces;
    flow_nodes = l.flow_nodes;
    flow_edges = l.flow_edges;
    hpwl = l.hpwl;
    density_overflow =
      Fbp_core.Density.overflow_fraction inst_n.Fbp_movebound.Instance.design
        pos ~nx:l.nx ~ny:l.ny;
    mb_violations =
      (Fbp_movebound.Legality.check inst_n pos).Fbp_movebound.Legality.n_violations;
    cg_iterations = l.cg_iterations;
    cg_residual = l.cg_residual;
    cg_converged = l.cg_converged;
    mcf_cost = l.mcf_cost;
    mcf_rounds = l.mcf_rounds;
    waves = rs.Fbp_core.Realization.n_waves;
    shipped_cells = rs.Fbp_core.Realization.n_shipped_cells;
    fallback_cells = rs.Fbp_core.Realization.n_fallback_cells;
    qp_time = l.qp_time;
    flow_time = l.flow_time;
    realization_time = l.realization_time;
    gc = l.gc;
  }

(* The record sections any engine's metrics give: the totals, the final
   placement's 24x24 density map, and the host (last: Pool.hardware_domains
   and VmHWM are only meaningful once the run has exercised the pool). *)
let record_outcome ?(config = Fbp_core.Config.default)
    (inst : Fbp_movebound.Instance.t) (m : metrics) (record : R.t) =
  let usage, capacity =
    Fbp_core.Density.bin_utilization inst.Fbp_movebound.Instance.design
      m.placement ~nx:density_bins ~ny:density_bins
  in
  let host =
    {
      R.hw_clamp = config.Fbp_core.Config.hw_clamp;
      hardware_domains = Fbp_util.Pool.hardware_domains;
      eff_domains = Fbp_core.Config.effective_domains config;
      peak_rss_kb = Fbp_util.Rss.peak_rss_kb ();
    }
  in
  {
    record with
    R.provenance = { record.R.provenance with R.host = Some host };
    density = Some { R.dnx = density_bins; dny = density_bins; usage; capacity };
    totals =
      Some
        {
          R.hpwl = m.hpwl;
          global_time = m.global_time;
          legalize_time = m.legalize_time;
          total_time = m.total_time;
          legal = m.legal;
          violations = m.violations;
        };
  }

let run_fbp_recorded ?(config = Fbp_core.Config.default) ?repartition
    ~provenance inst =
  let inst_n = normalized inst in
  let levels = ref [] in
  let on_level l pos = levels := level_snapshot inst_n l pos :: !levels in
  let result = pipeline ~config ?repartition ~on_level inst in
  let record = { R.empty with provenance; levels = List.rev !levels } in
  match result with
  | Error e -> (Error e, record)
  | Ok (m, lst) ->
    let design = inst_n.Fbp_movebound.Instance.design in
    ( Ok m,
      {
        (record_outcome ~config inst m record) with
        R.legalization =
          Some
            {
              R.leg_hpwl = m.hpwl;
              leg_density_overflow =
                Fbp_core.Density.overflow_fraction design m.placement
                  ~nx:density_bins ~ny:density_bins;
              leg_mb_violations = m.violations;
              leg_time = lst.Fbp_legalize.Legalizer.time;
              spilled = lst.Fbp_legalize.Legalizer.n_spilled;
              failed = lst.Fbp_legalize.Legalizer.n_failed;
              avg_displacement = lst.Fbp_legalize.Legalizer.avg_displacement;
              max_displacement = lst.Fbp_legalize.Legalizer.max_displacement;
            };
      } )

(* A comparator run: the baselines place and legalize themselves; the
   runner audits the result. *)
let run_baseline ~tool place (inst : Fbp_movebound.Instance.t) =
  match place inst with
  | Error e -> Error (Err.Invalid_input e)
  | Ok (rep : Fbp_baselines.Rql.report) ->
    let pos = rep.Fbp_baselines.Rql.placement in
    let legal, violations = audit_of (normalized inst) pos in
    let global_time = rep.Fbp_baselines.Rql.global_time
    and legalize_time = rep.Fbp_baselines.Rql.legalize_time in
    Ok
      {
        tool;
        hpwl = rep.Fbp_baselines.Rql.hpwl;
        hpwl_global = rep.Fbp_baselines.Rql.hpwl;
        global_time;
        legalize_time;
        total_time = global_time +. legalize_time;
        violations;
        legal;
        levels = [];
        degradations = [];
        placement = pos;
      }

let run_rql inst = run_baseline ~tool:"RQL (repro)" Fbp_baselines.Rql.place inst

(* A comparator ignores the caller's config and runs under
   [Config.default], so its record names the domains that budget gives. *)
let provenance_config ~baseline (config : Fbp_core.Config.t) =
  let domains =
    if baseline then Fbp_core.Config.effective_domains Fbp_core.Config.default
    else config.Fbp_core.Config.domains
  in
  [ ("domains", string_of_int domains);
    ("strict", string_of_bool config.Fbp_core.Config.strict);
    ("sanitize", string_of_bool (Fbp_resilience.Sanitize.enabled ())) ]
  @
  match config.Fbp_core.Config.deadline with
  | Some dl -> [ ("deadline", Printf.sprintf "%g" dl) ]
  | None -> []

let run_kraftwerk inst =
  run_baseline ~tool:"Kraftwerk2 (repro)" Fbp_baselines.Kraftwerk.place inst
