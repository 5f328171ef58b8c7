(** Quality flight recorder for placement runs.

    Where {!Obs} collects flat counters and spans, the recorder keeps the
    paper's evaluation currency: one structured snapshot per refinement
    level (HPWL, density overflow, movebound violations, CG and MinCostFlow
    effort, realization wave counts, per-phase wall times, GC deltas), one
    for legalization, plus run provenance and end-of-run totals — the
    trajectory Tables I–VII are made of.

    Like {!Obs}, the global recorder is disabled by default behind one
    atomic flag: every hook reads the flag first, so a fully-instrumented
    pipeline costs nothing until [fbp_place place --record] arms it.

    Records serialize as a versioned run-record JSON ({!to_json} /
    {!of_json} round-trip exactly), render as a self-contained HTML report
    ([Fbp_viz.Report]), and gate CI through {!diff}
    ([fbp_place diff-record]).  The schema is documented in DESIGN.md
    ("Observability"). *)

(** [Gc.quick_stat] delta across a pipeline phase ([heap_words] is the
    absolute heap size at the snapshot, not a delta). *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

(** One refinement level of the multilevel loop. *)
type level = {
  level : int;
  nx : int;
  ny : int;
  n_windows : int;
  n_pieces : int;
  flow_nodes : int;
  flow_edges : int;
  hpwl : float;
  density_overflow : float;
      (** overfill fraction: sum of bin usage above capacity / total capacity *)
  mb_violations : int;
  cg_iterations : int;
  cg_residual : float;
  cg_converged : bool;
  mcf_cost : float;  (** [nan] when the verdict was infeasible *)
  mcf_rounds : int;  (** network simplex pivots of the level's flow solve *)
  waves : int;
  shipped_cells : int;
  fallback_cells : int;
  qp_time : float;
  flow_time : float;
  realization_time : float;
  gc : gc_delta;
}

type legalization = {
  leg_hpwl : float;
  leg_density_overflow : float;
  leg_mb_violations : int;
  leg_time : float;
  spilled : int;
  failed : int;
  avg_displacement : float;
  max_displacement : float;
}

(** Final-placement bin utilization, row-major, for the report's heatmap. *)
type density_map = {
  dnx : int;
  dny : int;
  usage : float array;
  capacity : float array;
}

(** Execution environment the run was measured on.  Artifacts produced
    under the hardware clamp on a 1-core container are not comparable to
    real multi-core runs; recording the clamp and domain counts makes the
    distinction machine-checkable. *)
type host = {
  hw_clamp : bool;  (** [Config.hw_clamp] for this run *)
  hardware_domains : int;  (** [Pool.hardware_domains] on this machine *)
  eff_domains : int;
      (** domain budget the run's parallel regions used
          ([Config.effective_domains]: [domains] after the clamp) *)
  peak_rss_kb : int option;  (** [VmHWM]; [None] off Linux *)
}

type provenance = {
  design : string;
  cells : int;
  nets : int;
  movebounds : int;
  seed : int option;
  tool : string;
  config : (string * string) list;  (** free-form key/value, emission order *)
  host : host option;
}

type totals = {
  hpwl : float;
  global_time : float;
  legalize_time : float;
  total_time : float;
  legal : bool;
  violations : int;
}

type t = {
  version : int;
  provenance : provenance;
  levels : level list;  (** chronological *)
  legalization : legalization option;
  density : density_map option;
  totals : totals option;
  metrics : Obs.Json.t option;  (** the {!Obs.metrics_json} object *)
  profile : Profiler.summary option;  (** domain-level runtime profile *)
}

val schema_version : int

(** {2 The process-global recorder} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Drop everything recorded and restart the GC boundary clock.  Does not
    change the enabled flag. *)
val reset : unit -> unit

val set_provenance : provenance -> unit

(** Attach the execution environment to the current provenance (keeps the
    rest of the provenance intact — callers set it late, after the pool
    has resolved its domain count). *)
val set_host : host -> unit

(** [Gc.quick_stat] delta since the previous boundary (or since
    {!reset}/{!enable} for the first); advances the boundary mark.  Returns
    zeros when disabled. *)
val gc_boundary : unit -> gc_delta

val record_level : level -> unit
val record_legalization : legalization -> unit
val set_density : density_map -> unit
val set_totals : totals -> unit
val set_metrics : Obs.Json.t -> unit

(** Attach the run's {!Profiler.summary} (serialized into the record's
    [profile] section). *)
val set_profile : Profiler.summary -> unit

(** Snapshot of everything recorded so far. *)
val current : unit -> t

(** {2 Serialization} *)

val to_json : t -> string

(** Parses and decodes a run-record document; rejects unknown schema names
    and versions newer than {!schema_version}. *)
val of_json : string -> (t, string) result

val write_file : string -> t -> unit

(** [write_file path (current ())]. *)
val write_current : string -> unit

val read_file : string -> (t, string) result

(** Field-by-field equality (floats exact — {!to_json} round-trips them). *)
val equal : t -> t -> bool

(** {2 Run-diff regression gate} *)

type regression = {
  metric : string;
  base_value : float;
  cand_value : float;
  limit : string;  (** human-readable threshold that was exceeded *)
}

type comparison = {
  regressions : regression list;
  lines : string list;  (** per-metric comparison lines, for printing *)
}

(** Compare candidate against baseline.  Gates: final HPWL ratio above
    [1 + max_hpwl_regress]; total wall time ratio above
    [1 + max_time_regress]; any new movebound violations; a legal baseline
    turning illegal.  With [?max_gc_regress], additionally gates summed
    per-domain GC/STW pause time (ratio plus a 10ms absolute floor) when
    both records carry a [profile] section.  Improvements never regress. *)
val diff :
  ?max_gc_regress:float ->
  max_hpwl_regress:float -> max_time_regress:float -> base:t -> cand:t ->
  unit -> comparison
