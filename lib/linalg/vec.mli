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
    kernels save memory passes inside CG. *)

type t = float array

val create : int -> t
val copy : t -> t

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

(** [precond_dot2 ~n d r z]: z <- d*r elementwise; returns [(r.z, r.r)]
    computed in the same sweep. *)
val precond_dot2 : n:int -> t -> t -> t -> float * float

(** [update_residual ~n ~alpha ap r d z]: r <- r - alpha*ap, z <- d*r, and
    returns [(r.z, r.r)] — one memory pass for the whole CG residual
    update. *)
val update_residual : n:int -> alpha:float -> t -> t -> t -> t -> float * float
