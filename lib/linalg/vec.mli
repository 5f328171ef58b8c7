(** Dense float vectors: the BLAS-1 kernels conjugate gradients needs.

    Every kernel works on the first [n] entries of its vectors; [n] is an
    argument, so a vector may be longer than the system it holds (CG's
    grow-only workspace).  Every kernel raises [Invalid_argument] when a
    vector holds fewer than [n] entries.

    Every kernel runs on the calling domain; parallelism happens one level
    up, over independent solves.  Reductions keep a fixed summation shape
    ({!Fbp_util.Pool.n_chunks} chunks at {!Fbp_util.Pool.chunk_bounds},
    partials combined in a fixed tree over chunk order), a pure function
    of [n], so every result is bit-identical wherever it runs.  The fused
    kernels save memory passes inside CG.

    The reductions CG runs per iteration ({!dot_into}, {!precond_dot2},
    {!update_residual}) write their chunk partials into a buffer the
    caller owns and leave their totals in its first two entries, so they
    allocate nothing and return no boxed float. *)

type t = float array

val create : int -> t
val copy : t -> t

(** Length of a partials buffer: two floats per chunk, for the most
    chunks any [n] gives ([2 * Fbp_util.Pool.max_chunks]). *)
val partials_len : int

(** A fresh partials buffer of {!partials_len} zeros. *)
val partials : unit -> float array

(** [dot_into parts ~n a b] writes a·b into [parts.(0)], its chunk sums
    into [parts]; raises [Invalid_argument] when [parts] holds fewer than
    two floats per chunk. *)
val dot_into : float array -> n:int -> t -> t -> unit

(** [dot ~n a b] is {!dot_into} with a fresh partials buffer. *)
val dot : n:int -> t -> t -> float

(** [dot a a] without the square root. *)
val sqnorm2 : n:int -> t -> float

val norm2 : n:int -> t -> float
val norm_inf : n:int -> t -> float

(** [axpy ~n ~alpha x y]: y <- y + alpha * x. *)
val axpy : n:int -> alpha:float -> t -> t -> unit

(** [xpby ~n ~beta x y]: y <- x + beta * y (the CG direction update). *)
val xpby : n:int -> beta:float -> t -> t -> unit

(** [scale ~n ~alpha x]: x <- alpha * x. *)
val scale : n:int -> alpha:float -> t -> unit

(** [sub ~n a b out]: out <- a - b. *)
val sub : n:int -> t -> t -> t -> unit

(** [precond_dot2 parts ~n d r z]: z <- d*r elementwise; r.z into
    [parts.(0)] and r.r into [parts.(1)], computed in the same sweep. *)
val precond_dot2 : float array -> n:int -> t -> t -> t -> unit

(** [update_residual parts ~n ~alpha ap r d z]: r <- r - alpha*ap,
    z <- d*r, r.z into [parts.(0)] and r.r into [parts.(1)] — one memory
    pass for the whole CG residual update. *)
val update_residual :
  float array -> n:int -> alpha:float -> t -> t -> t -> t -> unit
