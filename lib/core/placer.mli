(** The BonnPlace-FBP global placement driver: multilevel QP → flow-based
    partitioning → realization, with Table I instrumentation per level and
    graceful degradation on solver failure (see DESIGN.md "Failure
    semantics"). *)

type level_report = {
  level : int;
  nx : int;
  ny : int;
  n_windows : int;  (** Table I's |W| *)
  n_pieces : int;  (** Table I's |R| *)
  flow_nodes : int;  (** |V| *)
  flow_edges : int;  (** |E| *)
  qp_time : float;
  flow_time : float;  (** model build + MinCostFlow *)
  realization_time : float;
  hpwl : float;
  cg_iterations : int;  (** CG iterations of this level's QP solve *)
  cg_residual : float;  (** final CG residual *)
  cg_converged : bool;  (** this level's QP solves converged *)
  mcf_cost : float;  (** MinCostFlow objective ([nan] before level 1) *)
  mcf_rounds : int;  (** network simplex pivots *)
  realization : Realization.stats;
  gc : Fbp_obs.Obs.gc_delta;
      (** GC activity from the previous level's boundary (or from
          {!Fbp_obs.Obs.reset}, for the first level) to this one's, as
          {!Fbp_obs.Obs.sample_gc} measured it *)
}

(** One graceful-degradation event.  The ladder on MinCostFlow
    infeasibility: drop the legalizability capacity margin
    ([Margin_dropped]), relax movebound admissibility with a distance
    penalty ([Movebounds_relaxed]), then hand over to the caller-provided
    recursive-bisection fallback ([Bisection_fallback]) or return the
    last-good checkpoint ([Level_aborted]).  CG divergence triggers one
    safeguarded restart from the checkpoint with stronger anchors
    ([Cg_restarted]); an expired deadline returns the checkpoint
    ([Deadline_stop]). *)
type degradation =
  | Margin_dropped of { level : int }
  | Cg_restarted of { level : int; stats : Fbp_resilience.Fbp_error.cg_stats }
  | Movebounds_relaxed of { level : int; unrouted : float }
  | Bisection_fallback of { reason : Fbp_resilience.Fbp_error.t }
  | Level_aborted of { level : int; reason : Fbp_resilience.Fbp_error.t }
  | Deadline_stop of { level : int; elapsed : float; budget : float }

val degradation_to_string : degradation -> string

type report = {
  placement : Fbp_netlist.Placement.t;
  piece_of_cell : int array;  (** final-level region-piece assignment *)
  regions : Fbp_movebound.Regions.t;
  final_grid : Grid.t option;
  levels : level_report list;  (** successfully completed levels *)
  levels_planned : int;  (** what {!n_levels} asked for *)
  degradations : degradation list;  (** chronological; empty = clean run *)
  total_time : float;
  hpwl : float;
}

(** The anchor weight of a level QP without centre-of-gravity groups:
    [0.02 *. 2.6 ** level].  From level 2 on, an instance without
    movebounds solves its level QP with one group per window of a cell's
    previous piece (weighted by cell area), keeping the previous level's
    partition, under one anchor weight for every level; an instance with
    movebounds solves it unconstrained with this schedule.  The
    recursive-bisection baseline shares the schedule. *)
val anchor_weight : int -> float

(** Planned number of refinement levels for a design under a config. *)
val n_levels : Config.t -> Fbp_netlist.Design.t -> int

(** Global placement.  The result still needs legalization
    ({!Fbp_legalize.Legalizer.run}).

    By default the placer degrades gracefully: after every level the
    placement is checkpointed, and on flow infeasibility (after the
    relaxation ladder), CG breakdown, an expired [Config.deadline] or an
    escaped exception it returns the last-good checkpoint, with the events
    listed in [report.degradations].  [fallback] (typically
    {!Fbp_baselines.Recursive.place}, wired in by
    {!Fbp_workloads.Runner.run_fbp}) is consulted when the *first* level's
    flow is infeasible, where no realized checkpoint exists yet.
    [on_level] runs after each completed level with its report and the
    level's positions (the placer's live array: copy what must outlive the
    call); an exception it raises fails the level like a solver's.

    With [Config.strict] set, any degradation beyond the capacity-margin
    drop is reported as a typed [Error] instead — including the Theorem 3
    infeasibility certificate ([Infeasible_flow]).  [Error] is also
    returned (in both modes) when movebound normalization fails or the
    bisection fallback itself fails. *)
val place :
  ?config:Config.t ->
  ?on_level:(level_report -> Fbp_netlist.Placement.t -> unit) ->
  ?fallback:(unit -> (Fbp_netlist.Placement.t, string) result) ->
  Fbp_movebound.Instance.t ->
  (report, Fbp_resilience.Fbp_error.t) result
