(** Run a placer end-to-end (global + legalization) and collect the metrics
    the tables need.  Failures are typed ({!Fbp_resilience.Fbp_error}). *)

open Fbp_netlist

type metrics = {
  tool : string;
  hpwl : float;  (** after legalization *)
  hpwl_global : float;
  global_time : float;
  legalize_time : float;
  total_time : float;
  violations : int;  (** movebound violations in the final placement *)
  legal : bool;  (** overlap/row/chip audit clean *)
  levels : Fbp_core.Placer.level_report list;  (** FBP only *)
  degradations : Fbp_core.Placer.degradation list;
      (** FBP only; non-empty when the placer degraded gracefully *)
  placement : Placement.t;
}

(** [repartition] = number of reflow sweeps after global placement
    (default 1; 0 disables — the ablation mode).  Wires
    {!Fbp_baselines.Recursive.place} into the placer as the bisection
    fallback of the degradation ladder. *)
val run_fbp :
  ?config:Fbp_core.Config.t -> ?repartition:int -> Fbp_movebound.Instance.t ->
  (metrics, Fbp_resilience.Fbp_error.t) result

(** {!run_fbp}, also returning the run's record: [provenance] (its host
    filled in on success), one snapshot per level completed — including
    those before a failure — and, on success, the legalization snapshot
    and {!record_outcome}'s sections: the final 24×24 density map, the
    totals and the host.  Each level additionally
    audits density overflow and movebound violations of its positions,
    work {!run_fbp} does not do.  The caller adds metrics and profile. *)
val run_fbp_recorded :
  ?config:Fbp_core.Config.t -> ?repartition:int ->
  provenance:Fbp_obs.Recorder.provenance -> Fbp_movebound.Instance.t ->
  (metrics, Fbp_resilience.Fbp_error.t) result * Fbp_obs.Recorder.t

(** The comparators, placed and legalized by
    {!Fbp_baselines.Rql.place} and {!Fbp_baselines.Kraftwerk.place} in
    their one configuration; [levels] and [degradations] are empty. *)
val run_rql :
  Fbp_movebound.Instance.t -> (metrics, Fbp_resilience.Fbp_error.t) result

val run_kraftwerk :
  Fbp_movebound.Instance.t -> (metrics, Fbp_resilience.Fbp_error.t) result

(** The [config] entries of a run's provenance, in emission order: the
    domain count, strictness, whether the sanitizer is on, and the
    deadline when [config] sets one.  An FBP run ([~baseline:false])
    records [config]'s [domains]; a comparator ([~baseline:true]) ignores
    [config] and runs under {!Fbp_core.Config.default}, so it records
    {!Fbp_core.Config.effective_domains} of that default, the count its
    host section reports. *)
val provenance_config :
  baseline:bool -> Fbp_core.Config.t -> (string * string) list

(** [record_outcome inst m record] fills [record]'s totals from [m], its
    24×24 density map from [m.placement], and its provenance's host from
    [config] (default {!Fbp_core.Config.default}, the configuration the
    comparators run under).  {!run_fbp_recorded} builds those sections
    with it; a comparator's record gets them the same way, so
    [fbp_place diff-record] gates its HPWL, time, violations and
    legality. *)
val record_outcome :
  ?config:Fbp_core.Config.t -> Fbp_movebound.Instance.t -> metrics ->
  Fbp_obs.Recorder.t -> Fbp_obs.Recorder.t
