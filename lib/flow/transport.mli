(** Unbalanced Hitchcock transportation: n cells to k << n sinks.

    The local partitioning engine of Sections III and IV-B: Brenner's exact
    algorithm [4].  A greedy initial assignment, then successive shortest
    paths with sink prices over the k-node sink graph, whose arcs carry
    per-unit relocation deltas maintained in lazily-invalidated heaps.  The
    result is optimal, and it respects capacities whenever a fractional
    solution exists. *)

type problem = {
  sizes : float array;  (** cell sizes (mass) *)
  capacities : float array;  (** sink capacities *)
  cost : int -> int -> float;
      (** per-unit movement cost; [infinity] marks an inadmissible pair
          (movebound of the cell does not cover the sink) *)
}

type assignment = {
  frac : (int * float) list array;
      (** cell → [(sink, fraction)]; fractions sum to 1 per cell *)
  load : float array;  (** resulting mass per sink *)
  cost : float;  (** mass-weighted total cost *)
  prices : float array;
      (** one price per sink, the dual certificate: every cell sits only at
          sinks minimizing [cost i u -. prices.(u)], and in a feasible
          assignment every sink with slack holds the maximum price *)
}

(** Exact solver; [Error] when some cell has no admissible sink.  When no
    fractional assignment exists the result is a minimum-overload one,
    seen as [max_overflow > 0]. *)
val solve : problem -> (assignment, string) result

(** Exact reference via min-cost flow with one node per cell — O(n·k) arcs,
    only for small instances (tests, ablations).  Its [prices] are the MCF
    potentials of the sink nodes relative to the artificial root, capped at
    the root's; [Error] when the instance is infeasible. *)
val solve_exact : problem -> (assignment, string) result

(** Each split cell goes to its largest-fraction sink, so a sink can exceed
    capacity by the split cells rounded into it (legalization absorbs the
    slack).  Entry is [-1] only for cells with an empty fraction list
    (cannot happen on solver output). *)
val round_integral : assignment -> int array

(** Mass-weighted cost of an arbitrary fractional assignment. *)
val total_cost : problem -> (int * float) list array -> float

(** Worst per-sink load excess over capacity (0 or less means feasible). *)
val max_overflow : problem -> assignment -> float

(** Number of cells split across more than one sink. *)
val n_fractional : assignment -> int

(** Checked invariants (sanitizer mode): every row's fractions are
    positive, in-range and sum to 1; the reported per-sink loads match the
    recomputed mass sums; and the [prices] certify optimality in O(n·k) —
    each cell sits at sinks of minimum [cost - price], and when no sink is
    overfull every sink with slack holds the maximum price.  Returns the
    first violation. *)
val audit : problem -> assignment -> (unit, string) result
