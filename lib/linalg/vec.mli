(** Dense float vectors: the BLAS-1 kernels conjugate gradients needs.

    Every kernel runs on the calling domain; parallelism happens one level
    up, over independent solves.  Reductions keep a fixed summation shape
    ({!Fbp_util.Pool.n_chunks} chunks at {!Fbp_util.Pool.chunk_bounds},
    partials combined in a fixed tree over chunk order), a pure function
    of the length, so every result is bit-identical wherever it runs.  The
    fused kernels save memory passes inside CG. *)

type t = float array

val create : int -> t
val copy : t -> t

(** Raises [Invalid_argument] on length mismatch. *)
val dot : t -> t -> float

(** [dot a a] without the square root. *)
val sqnorm2 : t -> float

val norm2 : t -> float
val norm_inf : t -> float

(** [axpy ~alpha x y]: y <- y + alpha * x. *)
val axpy : alpha:float -> t -> t -> unit

(** [xpby ~beta x y]: y <- x + beta * y (the CG direction update). *)
val xpby : beta:float -> t -> t -> unit

(** [scale ~alpha x]: x <- alpha * x. *)
val scale : alpha:float -> t -> unit

(** [sub a b out]: out <- a - b. *)
val sub : t -> t -> t -> unit

(** [precond_dot2 d r z]: z <- d*r elementwise; returns [(r.z, r.r)]
    computed in the same sweep. *)
val precond_dot2 : t -> t -> t -> float * float

(** [update_residual ~alpha ap r d z]: r <- r - alpha*ap, z <- d*r, and
    returns [(r.z, r.r)] — one memory pass for the whole CG residual
    update. *)
val update_residual : alpha:float -> t -> t -> t -> t -> float * float
