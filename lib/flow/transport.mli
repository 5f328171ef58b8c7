(** Unbalanced Hitchcock transportation: n cells to k << n sinks.

    The local partitioning engine of Sections III and IV-B: Brenner's exact
    algorithm [4].  A greedy initial assignment, then successive shortest
    paths with sink prices over the k-node sink graph, whose arcs carry
    per-unit relocation deltas maintained in lazily-invalidated heaps.  The
    result is optimal, and it respects capacities whenever a fractional
    solution exists.  The set-up (heaps and O(n + k) work arrays) and the
    result live in a {!workspace}: a warmed one allocates nothing for
    them, and nothing is allocated per augmenting path. *)

type problem = {
  sizes : float array;  (** cell sizes (mass) *)
  capacities : float array;  (** sink capacities *)
  cost : float array;
      (** per-unit movement cost, row-major: cell [i] at sink [j] is entry
          [i * k + j] of the n·k matrix, filled once by the caller;
          [infinity] marks an inadmissible pair (movebound of the cell
          does not cover the sink) *)
}

(** A solve's result.  Cell [i]'s fractions are a chain of entries: the
    first is [head.(i)] (-1: none), entry [e] puts fraction [frac.(e)] of
    the cell at sink [sink.(e)], and [next.(e)] is the cell's next entry
    (-1: the last).  Fractions are positive and sum to 1 per cell.  The
    arrays may be longer than [n], [k] or the entries need; only the
    chains of the first [n] cells and the first [k] loads and prices
    count. *)
type assignment = {
  n : int;  (** cells *)
  k : int;  (** sinks *)
  head : int array;
  sink : int array;
  frac : float array;
  next : int array;
  load : float array;  (** resulting mass per sink *)
  cost : float;  (** mass-weighted total cost *)
  prices : float array;
      (** one price per sink, the dual certificate: every cell sits only at
          sinks minimizing [cost i u -. prices.(u)], and in a feasible
          assignment every sink with slack holds the maximum price *)
}

(** Everything a solve sets up — the fraction entries (the greedy start
    is each cell's first), loads, the k² arc heaps, the Dijkstra arrays
    and prices — in arrays that grow on demand and are never shrunk, so
    a warmed workspace solves without allocating them again.  Not safe
    for concurrent use; give each sequential caller its own. *)
type workspace

val create_workspace : unit -> workspace

(** Exact solver; [Error] when some cell has no admissible sink.  When no
    fractional assignment exists the result is a minimum-overload one,
    seen as [max_overflow > 0].  With [workspace] the assignment is a view
    of its arrays, valid until that workspace's next solve (a fresh
    workspace otherwise).  Raises [Invalid_argument] when there is no sink
    or the cost matrix does not have n·k entries. *)
val solve : ?workspace:workspace -> problem -> (assignment, string) result

(** Poll the {!Fbp_resilience.Inject.Transport} site once, for one solve:
    [true] when its assignment must be corrupted; raises
    {!Fbp_resilience.Inject.Injected} on a [Raise] fault.  The registry
    is not synchronized, so solves that run concurrently draw their
    faults on the calling domain first, in a fixed order, and hand each
    its verdict ({!solve_drawn}). *)
val draw_fault : unit -> bool

(** {!solve} with its fault already drawn ([solve] is {!draw_fault}, then
    [solve_drawn]): with [corrupt] the assignment is tampered after
    solving, as a [Corrupt] fault does.  Polls no site, so it may run on
    any domain. *)
val solve_drawn :
  ?workspace:workspace -> corrupt:bool -> problem -> (assignment, string) result

(** Exact reference via min-cost flow with one node per cell — O(n·k) arcs,
    only for small instances (tests, ablations).  Its [prices] are the MCF
    potentials of the sink nodes relative to the artificial root, capped at
    the root's; [Error] when the instance is infeasible.  Its chains list
    each cell's sinks in descending order. *)
val solve_exact : problem -> (assignment, string) result

(** [choice a i] rounds cell [i]: its largest-fraction sink, the first in
    chain order on a tie; [-1] when the cell has no entry (cannot happen
    on solver output).  Reads the chain, allocates nothing. *)
val choice : assignment -> int -> int

(** Each cell's {!choice}, so a sink can exceed capacity by the split
    cells rounded into it (legalization absorbs the slack). *)
val round_integral : assignment -> int array

(** Cell [i]'s [(sink, fraction)] entries in chain order, as a list: for
    tests. *)
val fractions : assignment -> int -> (int * float) list

(** Mass-weighted cost of an assignment's chains. *)
val total_cost : problem -> assignment -> float

(** Worst per-sink load excess over capacity (0 or less means feasible). *)
val max_overflow : problem -> assignment -> float

(** Number of cells split across more than one sink. *)
val n_fractional : assignment -> int

(** Checked invariants (sanitizer mode): the assignment covers the
    problem's cells and sinks; every cell's chain ends within the entries,
    and its fractions are positive, in-range and sum to 1; the reported
    per-sink loads match the recomputed mass sums; and the [prices]
    certify optimality in O(n·k) — each cell sits at sinks of minimum
    [cost - price], and when no sink is overfull every sink with slack
    holds the maximum price.  Returns the first violation. *)
val audit : problem -> assignment -> (unit, string) result
