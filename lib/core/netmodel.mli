(** Quadratic net models: nets become springs, assembled into the SPD
    systems quadratic placement minimizes (clique for small nets, star with
    an auxiliary variable for wide ones; pin offsets on the right-hand
    side; fixed pins and non-movable cells as constants).  The x and y
    systems share one matrix; only their right-hand sides differ. *)

open Fbp_netlist

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

(** Scratch of {!assemble}: the cell→var map, the triplet builder and
    the CSR freeze temporaries, kept between calls so that an
    assembly allocates only the system it returns.  One per sequential
    caller; not safe for concurrent use. *)
type workspace

val create_workspace : unit -> workspace

(** [assemble nl pos ~movable ~nets ~clique_max_degree ~anchor ()] builds
    both axis systems: one matrix, returned as both [ax] and [ay], and the
    two right-hand sides.  [nets] restricts assembly to a net subset
    (absent: all nets; [[||]]: none); [anchor cell] returns an optional
    [(wx, tx, wy, ty)] pulling the cell toward [(tx, ty)].  The shared
    matrix holds one anchor weight, so [wx] and [wy] must be equal
    ([Float.equal]); otherwise [assemble] raises [Invalid_argument], and
    [workspace] stays fit for reuse.  Cells outside [movable] contribute
    constants evaluated at [pos] — the "fixed cells outside W" of the
    local QP.  [cache] enables symbolic sparsity reuse across calls,
    [workspace] reuses the scratch (a fresh one otherwise); results are
    bit-identical with or without either. *)
val assemble :
  Netlist.t ->
  Placement.t ->
  ?cache:cache ->
  ?workspace:workspace ->
  movable:int array ->
  ?nets:int array ->
  clique_max_degree:int ->
  anchor:(int -> (float * float * float * float) option) ->
  unit ->
  system
