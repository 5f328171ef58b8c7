(** Compressed-sparse-row matrices assembled from triplets (duplicates are
    accumulated), for the QP's Laplacian-plus-diagonal systems.

    The builder sums the diagonal densely and stores only off-diagonal
    triplets, in growable unboxed arrays; {!freeze} dedups rows with stamp
    arrays (no per-row hashing), in a reusable {!scratch}.  Because the QP
    sparsity pattern is fixed across rounds, {!freeze_capture} records the
    symbolic structure once and {!refreeze} re-assembles later rounds as a
    flat value sweep — bit-identical to a fresh {!freeze}.  {!mul} runs on
    the calling domain. *)

type t

(** An assembly of dimension [dim].  The diagonal is dense: [diag.(r)]
    sums row [r]'s diagonal pushes in push order from 0.0, and
    [has_diag.(r)] marks a row that got one, over the first [dim] entries
    of both arrays.  Off-diagonal pushes are triplets in insertion order:
    [rows], [cols], [vals] share one capacity and hold [count] entries.

    The fields are public so that a hot assembly loop in another module
    can push without a call per entry (dune's dev profile compiles with
    [-opaque], so a call into this module is never inlined and boxes its
    float argument).  Such a writer follows {!add}: it keeps indices in
    [\[0, dim)] and drops zero values; a push with [row = col] adds into
    [diag] and sets [has_diag]; any other push appends a triplet, calling
    {!grow} when [count] reaches the capacity.  Only {!reset} changes
    [dim]. *)
type builder = {
  mutable dim : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable count : int;
  mutable diag : float array;
  mutable has_diag : bool array;
}

(** Temporaries of {!freeze}, for a caller that freezes repeatedly: with
    one, a freeze allocates nothing once the scratch has grown, and the
    matrix it returns is a view of the scratch's arrays.  Not safe for
    concurrent use. *)
type scratch

(** Symbolic sparsity structure captured by {!freeze_capture}: the
    mapping from triplet slot to CSR slot (which names each off-diagonal
    triplet's row and column) and each row's diagonal slot (or none).
    Valid for any later builder with the same off-diagonal stream and the
    same rows holding a diagonal. *)
type structure

(** [builder n] starts an empty n×n assembly. *)
val builder : int -> builder

(** [reset b n] empties [b] for an n×n assembly, keeping its capacity. *)
val reset : builder -> int -> unit

(** [reserve b m] grows [b]'s triplet capacity to at least [m] (at least
    twofold when it grows), keeping its triplets: an assembly that knows
    a bound on its off-diagonal pushes reserves once. *)
val reserve : builder -> int -> unit

(** Double the capacity of a full builder, keeping its triplets. *)
val grow : builder -> unit

(** Add an entry; zero values are dropped, a diagonal one goes to the
    row's dense sum.  Raises on out-of-range. *)
val add : builder -> row:int -> col:int -> float -> unit

(** Laplacian stencil of a spring between [i] and [j] with stiffness [w]. *)
val add_spring : builder -> int -> int -> float -> unit

(** Add [w] to the diagonal entry [i] (anchors, fixed-pin stiffness). *)
val add_diag : builder -> int -> float -> unit

val create_scratch : unit -> scratch

(** Assemble into CSR: rows sorted by column, duplicates accumulated.
    With [scratch], the result is a view of the scratch's row-start,
    column and value arrays, which may be longer than the matrix needs;
    it is valid until the next freeze or {!freeze_capture} with that
    scratch.  Without one, the temporaries are fresh and the result owns
    exact-length arrays.  The entries are the same either way.  In sanitizer mode the result
    is validated (site ["csr.freeze"]). *)
val freeze : ?scratch:scratch -> builder -> t

(** Like {!freeze}, but also captures the symbolic structure for
    {!refreeze}.  The matrix always owns exact-length arrays, because the
    structure shares them and outlives the call; [scratch] only holds the
    temporaries. *)
val freeze_capture : ?scratch:scratch -> builder -> t * structure

(** [refreeze s b] re-assembles [b] against the captured structure [s] as a
    flat value scatter (no sorting, no dedup bookkeeping), sharing the
    frozen index arrays.  Returns [None] when [b]'s off-diagonal stream or
    the set of rows holding a diagonal differs from the captured one —
    callers must then fall back to a full {!freeze_capture}.  When it
    succeeds the result is bit-identical to [freeze b]: value accumulation
    order is insertion order per duplicate group in both paths. *)
val refreeze : structure -> builder -> t option

(** Checked invariants (sanitizer mode; also exposed for tests): monotone
    row pointers, strictly increasing in-range columns per row, finite
    values, over the stored entries; the arrays are at least as long as
    those entries (a view may run past them).  Returns the first
    violation. *)
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
