(** Minimum-cost b-flow by the primal network simplex.

    The exact solver behind the FBP model (Section IV-A), and the paper's
    algorithm: a strongly feasible spanning-tree basis with block-search
    pricing.  Each solve adds the arcs its pricing scanned to the
    [mcf.priced_arcs] counter, beside its pivots in the
    [mcf.dijkstra_rounds] histogram.  Arc costs must be non-negative.  The graph is expected to
    carry no flow; a forward arc's capacity is its residual capacity.
    After a call the graph holds the computed flow (read per-arc with
    {!Graph.flow}), and every basic arc is a tree arc, so the flow-carrying
    arcs below capacity form a forest. *)

type result =
  | Feasible of { cost : float }
  | Infeasible of { unrouted : float }
      (** Total supply that cannot reach any deficit — by Theorem 3 a
          certificate that no fractional placement with movebounds exists. *)

(** Solver effort and the dual certificate of a run. *)
type stats = {
  rounds : int;
      (** simplex pivots, degenerate ones included (the quality flight
          recorder's [mcf_rounds] and the [mcf.dijkstra_rounds] histogram,
          names kept from an earlier solver) *)
  potentials : float array;
      (** final node potentials, length [n_nodes + 1]: the last entry is the
          artificial root.  Empty when fault injection skipped the solve. *)
}

(** [solve g ~supply] computes a min-cost flow satisfying node balances:
    [supply.(v) > 0] is supply, [< 0] demand. Total supply may be less than
    total demand (demands are upper bounds). Raises [Invalid_argument] on a
    length mismatch or negative arc cost. *)
val solve : Graph.t -> supply:float array -> result

(** {!solve} plus the solver effort counters and potentials of the run. *)
val solve_stats : Graph.t -> supply:float array -> result * stats

(** The sanitizer's post-solve checks, run by {!solve_stats} when
    {!Fbp_resilience.Sanitize.enabled}: {!check_flow}, then the
    potentials' optimality certificate in O(|E|) — every residual arc,
    including the root's slack and artificial arcs, has reduced cost
    >= -tol.  Raises [Sanitizer_violation] at site ["mcf.solve"] on
    failure; does nothing when the sanitizer is off. *)
val audit : Graph.t -> supply:float array -> result * stats -> unit

(** Audit: does the residual network contain no negative cycle (i.e. is the
    current flow of minimum cost)? Used by property tests. *)
val check_optimal : Graph.t -> bool

(** Checked flow invariants (sanitizer mode): per-arc capacity bounds and
    per-node conservation against [supply].  [exact] additionally requires
    every supply node fully routed (the solver reported [Feasible]).
    Returns the first violation. *)
val check_flow :
  Graph.t -> supply:float array -> exact:bool -> (unit, string) Stdlib.result
