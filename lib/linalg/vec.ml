(* Dense float vectors — the BLAS-1 kernels conjugate gradients needs.

   Every kernel runs on the calling domain.  Parallelism happens one level
   up, over independent solves: the global QP's x and y systems and
   realization's wave chunks (DESIGN §9).  A kernel that opened its own
   pool region would nest inside those and put more domains on the cores
   than there are cores.

   Every kernel works on the first [n] entries of its vectors, and [n] is
   an argument: CG keeps its vectors in a grow-only workspace, so an array
   may be longer than the system it currently holds.

   Reductions (dot / norm) keep a fixed summation shape: [Pool.n_chunks
   ~grain] chunks at [Pool.chunk_bounds], each summed left to right, then
   the partials combined in a fixed binary tree over chunk order.  The
   shape is a pure function of [n] and part of the numerical contract:
   every CG iterate, and so every placement, depends on its last bits.
   The partials live in a buffer the caller owns ([partials]), so a
   reduction allocates nothing; [dot], [sqnorm2] and [norm2] make their
   own.  Elementwise kernels are plain loops.

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

(* Raises unless [n >= 0] and every vector named holds [n] entries. *)
let short name = invalid_arg ("Vec." ^ name ^ ": vector shorter than n")
let check1 name n (a : t) = if n < 0 || Array.length a < n then short name
let check2 name n (a : t) (b : t) =
  if n < 0 || Array.length a < n || Array.length b < n then short name

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

(* A reduction sums chunk [c] = [lo, hi) into [parts.(2c)] (and
   [parts.(2c + 1)]) and leaves its totals in [parts.(0)] and
   [parts.(1)], so the caller owns every partial: one buffer of
   [partials_len] floats serves any [n].  Each reduction calls its
   top-level [*_chunk] loop directly, with its vectors as arguments (a
   loop over a closure's captured vectors reloads them from the closure
   on every iteration), at [Pool.chunk_bounds]'s bounds computed in
   place, without its tuple. *)
let partials_len = 2 * Pool.max_chunks

let partials () = Array.make partials_len 0.0

(* The chunk count of a reduction over [n] entries, once [parts] is
   known to hold its partials. *)
let chunks name (parts : float array) n =
  let k = max 1 (Pool.n_chunks ~grain n) in
  if Array.length parts < 2 * k then
    invalid_arg ("Vec." ^ name ^ ": partials shorter than 2 * chunks");
  k

let[@inline never] dot_chunk (a : t) (b : t) (parts : float array) c lo hi =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
  done;
  parts.(2 * c) <- !acc

let dot_into parts ~n a b =
  check2 "dot" n a b;
  let k = chunks "dot" parts n in
  for c = 0 to k - 1 do
    dot_chunk a b parts c (c * n / k) ((c + 1) * n / k)
  done;
  tree parts 0 0 k

let dot ~n a b =
  let parts = partials () in
  dot_into parts ~n a b;
  parts.(0)

let sqnorm2 ~n a = dot ~n a a

let norm2 ~n a = sqrt (dot ~n a a)

let norm_inf ~n a =
  check1 "norm_inf" n a;
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := Float.max !acc (Float.abs (Array.unsafe_get a i))
  done;
  !acc

(* y <- y + alpha * x *)
let axpy ~n ~alpha x y =
  check2 "axpy" n x y;
  for i = 0 to n - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (alpha *. Array.unsafe_get x i))
  done

(* y <- x + beta * y  (the CG direction update) *)
let xpby ~n ~beta x y =
  check2 "xpby" n x y;
  for i = 0 to n - 1 do
    Array.unsafe_set y i (Array.unsafe_get x i +. (beta *. Array.unsafe_get y i))
  done

(* x <- alpha * x *)
let scale ~n ~alpha x =
  check1 "scale" n x;
  for i = 0 to n - 1 do
    Array.unsafe_set x i (alpha *. Array.unsafe_get x i)
  done

(* out <- a - b *)
let sub ~n a b out =
  check2 "sub" n a b;
  check1 "sub" n out;
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

(* z <- d * r (Jacobi preconditioner); r.z into [parts.(0)] and r.r into
   [parts.(1)], in one sweep. *)
let precond_dot2 parts ~n d r z =
  check2 "precond_dot2" n d r;
  check1 "precond_dot2" n z;
  let k = chunks "precond_dot2" parts n in
  for c = 0 to k - 1 do
    precond_chunk d r z parts c (c * n / k) ((c + 1) * n / k)
  done;
  tree parts 0 0 k;
  tree parts 1 0 k

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

(* r <- r - alpha * ap;  z <- d * r;  r.z into [parts.(0)] and r.r into
   [parts.(1)] — the whole CG residual update in one memory pass. *)
let update_residual parts ~n ~alpha ap r d z =
  check2 "update_residual" n ap r;
  check2 "update_residual" n d z;
  let k = chunks "update_residual" parts n in
  for c = 0 to k - 1 do
    residual_chunk alpha ap r d z parts c (c * n / k) ((c + 1) * n / k)
  done;
  tree parts 0 0 k;
  tree parts 1 0 k

(* r <- r - alpha * ap;  z <- d * r;  sums.(g) += c.(i) * z.(i) for each
   i of a group g = group.(i) >= 0, in index order — the residual update
   of a grouped CG step, whose dot products [project_dot2] then takes. *)
let update_residual_sums ~n ~alpha ap r d z group c (sums : t) =
  check2 "update_residual_sums" n ap r;
  check2 "update_residual_sums" n d z;
  check1 "update_residual_sums" n c;
  if Array.length group < n then short "update_residual_sums";
  for i = 0 to n - 1 do
    let ri = Array.unsafe_get r i -. (alpha *. Array.unsafe_get ap i) in
    Array.unsafe_set r i ri;
    let zi = Array.unsafe_get d i *. ri in
    Array.unsafe_set z i zi;
    let g = Array.unsafe_get group i in
    if g >= 0 then sums.(g) <- sums.(g) +. (Array.unsafe_get c i *. zi)
  done

let[@inline never] project_chunk (group : int array) (c : t) (lambda : t) (d : t)
    (r : t) (z : t) (parts : float array) k lo hi =
  let rz = ref 0.0 and rr = ref 0.0 in
  for i = lo to hi - 1 do
    let g = Array.unsafe_get group i in
    let ri = Array.unsafe_get r i and zi = Array.unsafe_get z i in
    if g >= 0 then begin
      let l = Array.unsafe_get c i *. lambda.(g) in
      let zi = zi -. (Array.unsafe_get d i *. l) and ri = ri -. l in
      Array.unsafe_set z i zi;
      rz := !rz +. (ri *. zi);
      rr := !rr +. (ri *. ri)
    end
    else begin
      rz := !rz +. (ri *. zi);
      rr := !rr +. (ri *. ri)
    end
  done;
  parts.(2 * k) <- !rz;
  parts.((2 * k) + 1) <- !rr

(* For i in a group g = group.(i) >= 0, with l = c.(i) * lambda.(g):
   z.(i) <- z.(i) - d.(i) * l and r^_i = r.(i) - l; elsewhere r^_i =
   r.(i).  r^.z into [parts.(0)] and r^.r^ into [parts.(1)], in one
   sweep: CG's centre-of-gravity projection.  [lambda] is read with a
   bounds check, so a group id past it raises. *)
let project_dot2 parts ~n group c lambda d r z =
  if n < 0 || Array.length group < n then short "project_dot2";
  check2 "project_dot2" n c d;
  check2 "project_dot2" n r z;
  let k = chunks "project_dot2" parts n in
  for ch = 0 to k - 1 do
    project_chunk group c lambda d r z parts ch (ch * n / k) ((ch + 1) * n / k)
  done;
  tree parts 0 0 k;
  tree parts 1 0 k
