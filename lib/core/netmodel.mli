(** Quadratic net models: nets become springs, assembled into the SPD
    systems quadratic placement minimizes (clique for small nets, star with
    an auxiliary variable for wide ones; pin offsets on the right-hand
    side; fixed pins and non-movable cells as constants).  The x and y
    systems share one matrix; only their right-hand sides differ. *)

open Fbp_netlist

(** An assembled system.  [cells], [bx] and [by] hold at least [n_vars]
    entries, and only the first [n_vars] count: a system assembled with a
    {!workspace} is a view of it (see {!assemble}); one assembled without
    has exact-length arrays. *)
type system = {
  n_vars : int;  (** movable-cell vars first, then star vars *)
  cells : int array;  (** var → cell id, -1 for star vars *)
  ax : Fbp_linalg.Csr.t;
  bx : float array;
  ay : Fbp_linalg.Csr.t;  (** physically the same matrix as [ax] *)
  by : float array;
}

(** Symbolic-structure cache for repeated assemblies with a fixed net
    topology and movable set (the global QP rounds): one structure, that
    of the shared matrix.  The cached sparsity is verified against the
    fresh triplet stream on every reuse, so a stale cache degrades to a
    full assembly — never to a wrong matrix. *)
type cache

val create_cache : unit -> cache

(** Scratch of {!assemble}: the cell→var map, the star-var table, the
    triplet builder, the CSR freeze temporaries and the system's [cells],
    [bx] and [by], kept between calls and only ever grown, so that a
    warmed assembly allocates nothing.  One per sequential caller; not
    safe for concurrent use. *)
type workspace

val create_workspace : unit -> workspace

(** [assemble nl pos ~movable ~nets ~clique_max_degree ~anchor ()] builds
    both axis systems: one matrix, returned as both [ax] and [ay], and the
    two right-hand sides.  [nets] restricts assembly to a net subset
    (absent: all nets; [[||]]: none): its first [n_nets] ids (default: all
    of them), so a caller's grow-only id buffer serves as a view; [n_nets]
    without [nets], or outside [0, length nets], raises
    [Invalid_argument].  [anchor cell] returns an optional
    [(wx, tx, wy, ty)] pulling the cell toward [(tx, ty)].  The shared
    matrix holds one anchor weight, so [wx] and [wy] must be equal
    ([Float.equal]); otherwise [assemble] raises [Invalid_argument], and
    [workspace] stays fit for reuse.  Cells outside [movable] contribute
    constants evaluated at [pos] — the "fixed cells outside W" of the
    local QP.  [cache] enables symbolic sparsity reuse across calls.  The
    triplet builder is reserved once, to a bound on the off-diagonal
    pushes computed from the net degrees.  With [workspace] the returned
    system is a view of it — [cells], [bx], [by] and, without [cache], the
    matrix ({!Fbp_linalg.Csr.freeze} with its scratch) — valid until the
    next assembly with that workspace; without, the scratch is fresh and
    the system owns exact-length arrays.  The first [n_vars] entries, and
    the matrix entries, are bit-identical with or without either. *)
val assemble :
  Netlist.t ->
  Placement.t ->
  ?cache:cache ->
  ?workspace:workspace ->
  movable:int array ->
  ?nets:int array ->
  ?n_nets:int ->
  clique_max_degree:int ->
  anchor:(int -> (float * float * float * float) option) ->
  unit ->
  system
