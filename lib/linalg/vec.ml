(* Dense float vectors — the BLAS-1 kernels conjugate gradients needs.

   Every kernel runs on the calling domain.  Parallelism happens one level
   up, over independent solves: the global QP's x and y systems and
   realization's wave chunks (DESIGN §9).  A kernel that opened its own
   pool region would nest inside those and put more domains on the cores
   than there are cores.

   Reductions (dot / norm) keep a fixed summation shape: [Pool.n_chunks
   ~grain] chunks at [Pool.chunk_bounds], each summed left to right, then
   the partials combined in a fixed binary tree over chunk order.  The
   shape is a pure function of the length and part of the numerical
   contract: every CG iterate, and so every placement, depends on its
   last bits.  Elementwise kernels are plain loops.

   The fused kernels ([precond_dot2], [update_residual]) exist for CG:
   folding the preconditioner application and both residual dot products
   into one sweep saves three memory passes per iteration, which is where a
   memory-bound solve spends its time. *)

module Pool = Fbp_util.Pool

type t = float array

let create n = Array.make n 0.0

let copy = Array.copy

(* Items per reduction chunk.  Changing it changes float summation shape
   (and hence last-bit results), so treat it as part of the numerical
   contract. *)
let grain = 4096

(* Combines the partials of component [w] of chunks [lo, hi) into chunk
   [lo]'s slot: left half plus right half, split at [lo + (len+1)/2]. *)
let rec tree (parts : float array) w lo hi =
  if hi - lo > 1 then begin
    let mid = lo + (((hi - lo) + 1) / 2) in
    tree parts w lo mid;
    tree parts w mid hi;
    let at = (2 * lo) + w in
    Array.unsafe_set parts at
      (Array.unsafe_get parts at +. Array.unsafe_get parts ((2 * mid) + w))
  end

(* Two sums over [0, n) in the fixed shape.  [body parts c lo hi] sums
   chunk [c] = [lo, hi) into [parts.(2c)] and [parts.(2c + 1)]; the totals
   end in [parts.(0)] and [parts.(1)].  Bodies are partial applications of
   the top-level [*_chunk] loops below, which take their vectors as
   arguments: a loop over a closure's captured vectors reloads them from
   the closure on every iteration. *)
let sums n body =
  let k = max 1 (Pool.n_chunks ~grain n) in
  let parts = Array.make (2 * k) 0.0 in
  for c = 0 to k - 1 do
    let lo, hi = Pool.chunk_bounds ~n ~n_chunks:k c in
    body parts c lo hi
  done;
  tree parts 0 0 k;
  tree parts 1 0 k;
  parts

let[@inline never] dot_chunk (a : t) (b : t) (parts : float array) c lo hi =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
  done;
  parts.(2 * c) <- !acc

let dot a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Vec.dot: length mismatch";
  (sums n (dot_chunk a b)).(0)

let sqnorm2 a = dot a a

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

(* y <- y + alpha * x *)
let axpy ~alpha x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Vec.axpy: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (alpha *. Array.unsafe_get x i))
  done

(* y <- x + beta * y  (the CG direction update) *)
let xpby ~beta x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Vec.xpby: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set y i (Array.unsafe_get x i +. (beta *. Array.unsafe_get y i))
  done

(* x <- alpha * x *)
let scale ~alpha x =
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set x i (alpha *. Array.unsafe_get x i)
  done

(* out <- a - b *)
let sub a b out =
  let n = Array.length a in
  if Array.length b <> n || Array.length out <> n then
    invalid_arg "Vec.sub: length mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set out i (Array.unsafe_get a i -. Array.unsafe_get b i)
  done

let[@inline never] precond_chunk (d : t) (r : t) (z : t) (parts : float array) c lo hi =
  let rz = ref 0.0 and rr = ref 0.0 in
  for i = lo to hi - 1 do
    let ri = Array.unsafe_get r i in
    let zi = Array.unsafe_get d i *. ri in
    Array.unsafe_set z i zi;
    rz := !rz +. (ri *. zi);
    rr := !rr +. (ri *. ri)
  done;
  parts.(2 * c) <- !rz;
  parts.((2 * c) + 1) <- !rr

(* z <- d * r (Jacobi preconditioner); returns (r.z, r.r) in one sweep. *)
let precond_dot2 d r z =
  let n = Array.length r in
  if Array.length d <> n || Array.length z <> n then
    invalid_arg "Vec.precond_dot2: length mismatch";
  let parts = sums n (precond_chunk d r z) in
  (parts.(0), parts.(1))

let[@inline never] residual_chunk alpha (ap : t) (r : t) (d : t) (z : t)
    (parts : float array) c lo hi =
  let rz = ref 0.0 and rr = ref 0.0 in
  for i = lo to hi - 1 do
    let ri = Array.unsafe_get r i -. (alpha *. Array.unsafe_get ap i) in
    Array.unsafe_set r i ri;
    let zi = Array.unsafe_get d i *. ri in
    Array.unsafe_set z i zi;
    rz := !rz +. (ri *. zi);
    rr := !rr +. (ri *. ri)
  done;
  parts.(2 * c) <- !rz;
  parts.((2 * c) + 1) <- !rr

(* r <- r - alpha * ap;  z <- d * r;  returns (r.z, r.r) — the whole CG
   residual update in one memory pass. *)
let update_residual ~alpha ap r d z =
  let n = Array.length r in
  if Array.length ap <> n || Array.length d <> n || Array.length z <> n then
    invalid_arg "Vec.update_residual: length mismatch";
  let parts = sums n (residual_chunk alpha ap r d z) in
  (parts.(0), parts.(1))
