(** Jacobi-preconditioned conjugate gradients for SPD systems.

    The iteration uses the fused {!Vec} kernels: residual update,
    preconditioner application, and both dot products run in a single
    memory pass, and the residual norm is tracked from the recurrence —
    computed exactly once per convergence check, never re-derived from a
    separate [norm2] sweep.

    {!iterate2} solves the two axes of one matrix in lockstep: one
    {!Csr.mul2} pass per iteration, one inverse diagonal, and vectors from
    a reusable {!workspace}.  Each axis keeps its own recurrence, stop
    test and iteration count, and both functions run the same iteration
    body, so each axis of {!iterate2} is bit-identical to a {!solve} call
    with the same arguments. *)

type stats = {
  iterations : int;
  residual : float;  (** final ||Ax − b|| / max(1, ||b||) *)
  converged : bool;
}

(** [solve a b x] improves [x] in place toward A x = b.
    [max_iter] defaults to max(100, 2n) (as does any value <= 0); [tol]
    to 1e-7.  [record] (default true) controls whether solver metrics are
    recorded immediately; pass [~record:false] to call {!record_stats}
    afterwards in a deterministic order.  Polls the
    {!Fbp_resilience.Inject.Cg} site once: [solve] is {!draw_fault}, then
    {!iterate}.  The vectors hold at least n entries (only the first n
    are read or written); a shorter one raises [Invalid_argument]. *)
val solve :
  ?record:bool -> ?max_iter:int -> ?tol:float -> Csr.t -> float array ->
  float array -> stats

(** Poll the {!Fbp_resilience.Inject.Cg} site once, for one axis: [true]
    when that axis must stagnate; raises
    {!Fbp_resilience.Inject.Injected} on a [Raise] fault.  The registry
    is not synchronized, so solves that run concurrently draw their
    faults on the calling domain first, in a fixed order, and hand each
    its verdict ({!iterate}). *)
val draw_fault : unit -> bool

(** [iterate ~stagnate ~max_iter ~tol a b x] is {!solve}'s iteration with
    its fault already drawn: with [stagnate] it returns the stagnated
    stats and leaves [x] untouched.  Polls no site and records no
    metrics, so it may run on any domain.  Same [max_iter], [tol] and
    length rules as {!solve}. *)
val iterate :
  stagnate:bool -> max_iter:int -> tol:float -> Csr.t -> float array ->
  float array -> stats

(** Grow-only vectors of {!iterate2}: the inverse diagonal and four
    vectors per axis, reallocated only when a larger system arrives.  Not
    safe for concurrent use; give each sequential caller its own. *)
type workspace

val create_workspace : unit -> workspace

(** [iterate2 ~stagnate:(sx, sy) ~max_iter ~tol a bx x by y] improves [x]
    toward A x = bx and [y] toward A y = by, in lockstep on the calling
    domain, and returns the x and the y stats.  Each equals
    {!solve}[ ~max_iter ~tol a bx x] (resp. [by y]) bit for bit, in the
    iterates and in the stats, when [sx] (resp. [sy]) is what that
    [solve] would draw: the caller draws both axes' faults first, x then
    y ({!draw_fault}), and an axis whose flag is set returns the
    stagnated stats and keeps its iterate.  [workspace] holds the vectors
    (a fresh one otherwise).  Polls no site and records no metrics, so it
    may run on any domain: call {!record_stats} on the x, then the y
    stats.  Same [max_iter], [tol] and length rules as {!solve}. *)
val iterate2 :
  ?workspace:workspace -> stagnate:bool * bool -> max_iter:int -> tol:float ->
  Csr.t -> float array -> float array -> float array -> float array ->
  stats * stats

(** Record the per-solve metrics ([cg.solves] / [cg.nonconverged] counters,
    [cg.iterations] histogram) for a solve run with [~record:false], by
    {!iterate} or by {!iterate2}. *)
val record_stats : stats -> unit
