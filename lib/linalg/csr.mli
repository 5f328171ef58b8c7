(** Compressed-sparse-row matrices assembled from triplets (duplicates are
    accumulated), for the QP's Laplacian-plus-diagonal systems.

    The builder stores triplets in growable unboxed arrays; {!freeze} dedups
    rows with stamp arrays (no per-row hashing), in a reusable {!scratch}.
    Because the QP sparsity pattern is fixed across rounds,
    {!freeze_capture} records the symbolic structure once and {!refreeze}
    re-assembles later rounds as a flat value sweep — bit-identical to a
    fresh {!freeze}.  {!mul} runs on the calling domain. *)

type t

(** Triplets in insertion order: [rows], [cols], [vals] share one capacity
    and hold [count] entries of an assembly of dimension [dim].  The fields
    are public so that a hot assembly loop in another module can append
    without a call per triplet (dune's dev profile compiles with
    [-opaque], so a call into this module is never inlined and boxes its
    float argument).  Such a writer keeps indices in [\[0, dim)], drops
    zero values as {!add} does, and calls {!grow} when [count] reaches the
    capacity. *)
type builder = {
  mutable dim : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable count : int;
}

(** Temporaries of {!freeze}, for a caller that freezes repeatedly: with
    one, a freeze allocates only the matrix it returns.  Not safe for
    concurrent use. *)
type scratch

(** Symbolic sparsity structure captured by {!freeze_capture}: the raw
    triplet (row, col) stream plus the mapping from triplet slot to CSR
    slot.  Valid for any later builder producing the same stream. *)
type structure

(** [builder n] starts an empty n×n assembly. *)
val builder : int -> builder

(** Double the capacity of a full builder, keeping its triplets. *)
val grow : builder -> unit

(** Add a triplet; zero values are dropped. Raises on out-of-range. *)
val add : builder -> row:int -> col:int -> float -> unit

(** Laplacian stencil of a spring between [i] and [j] with stiffness [w]. *)
val add_spring : builder -> int -> int -> float -> unit

(** Add [w] to the diagonal entry [i] (anchors, fixed-pin stiffness). *)
val add_diag : builder -> int -> float -> unit

val create_scratch : unit -> scratch

(** Assemble into CSR: rows sorted by column, duplicates accumulated.
    [scratch] holds the temporaries (fresh ones otherwise); the result is
    the same with or without it.  In sanitizer mode the result is
    validated (site ["csr.freeze"]). *)
val freeze : ?scratch:scratch -> builder -> t

(** Like {!freeze}, but also captures the symbolic structure for
    {!refreeze}. *)
val freeze_capture : ?scratch:scratch -> builder -> t * structure

(** [refreeze s b] re-assembles [b] against the captured structure [s] as a
    flat value scatter (no sorting, no dedup bookkeeping), sharing the
    frozen index arrays.  Returns [None] when [b]'s triplet stream differs
    from the captured one — callers must then fall back to a full
    {!freeze_capture}.  When it succeeds the result is bit-identical to
    [freeze b]: value accumulation order is insertion order per duplicate
    group in both paths. *)
val refreeze : structure -> builder -> t option

(** Checked invariants (sanitizer mode; also exposed for tests): monotone
    row pointers, strictly increasing in-range columns per row, finite
    values.  Returns the first violation. *)
val validate : t -> (unit, string) result

val dim : t -> int
val nnz : t -> int

(** [mul a x out]: out <- A x on the first [dim a] entries; the vectors
    may be longer.  Raises when one is shorter.  Runs on the calling
    domain; each row is a fixed sequential sum. *)
val mul : t -> float array -> float array -> unit

(** [mul2 a x y ox oy]: ox <- A x and oy <- A y in one pass over the
    matrix, each product bit-identical to {!mul}'s.  Same length rules as
    {!mul}. *)
val mul2 : t -> float array -> float array -> float array -> float array -> unit

(** [diagonal a d] writes the diagonal of [a] into the first [dim a]
    entries of [d].  Raises when [d] is shorter. *)
val diagonal : t -> float array -> unit

(** Entry lookup (linear in the row's nnz); for tests. *)
val get : t -> int -> int -> float

(** Iterate stored entries in CSR order: [f row col value].  Used by the
    benchmark harness to replay a matrix through other assembly paths. *)
val iter_entries : t -> (int -> int -> float -> unit) -> unit

val is_symmetric : ?eps:float -> t -> bool
