(** Tuning knobs of the global placer. *)

type t = {
  max_levels : int;  (** hard cap on grid refinement levels *)
  min_window_rows : float;  (** stop refining when windows get this short *)
  clique_max_degree : int;  (** nets up to this degree use the clique model *)
  anchor_base : float;  (** QP anchor weight at level 1 *)
  anchor_growth : float;  (** multiplicative anchor growth per level *)
  cg_tol : float;
  cg_max_iter : int;
  domains : int;
      (** parallel domains for the global QP's x/y solves and realization's
          waves (1 = sequential); see {!effective_domains}.  The default
          follows {!Fbp_util.Pool.get_default_domains}, i.e. [FBP_DOMAINS]
          when set.  Results are bit-identical at any value. *)
  hw_clamp : bool;
      (** clamp [domains] to {!Fbp_util.Pool.hardware_domains} in hot
          paths — domains beyond the core count only time-slice and add
          wakeup latency.  Results are bit-identical either way; disable
          to force parallel code paths on small machines (tests do). *)
  local_qp : bool;  (** run the local QP connectivity step in realization *)
  capacity_margin : float;
      (** flow capacities derated for legalizability; automatic fallback to
          1.0 when the margin makes a movebound class infeasible *)
  deadline : float option;
      (** wall-clock budget in seconds for global placement; when it runs
          out the placer returns the last-good per-level checkpoint (or, in
          [strict] mode, a typed [Deadline_exceeded] error) *)
  strict : bool;
      (** disable graceful degradation: movebound relaxation, bisection
          fallback, checkpoint returns and CG safeguard failures become
          typed errors instead *)
  verbose : bool;
}

(** Paper-faithful defaults (97% density etc.). *)
val default : t

(** The domain budget every parallel region of a placement runs under:
    [domains] (at least 1), clamped to {!Fbp_util.Pool.hardware_domains}
    when [hw_clamp] is set.  Realization's waves
    ({!Fbp_util.Pool.run_chunks}) and the global QP's x/y
    {!Fbp_util.Pool.fork2} both take it, so [domains = 1] spawns no helper
    domain and no region runs on more domains than this. *)
val effective_domains : t -> int
