(* Jacobi-preconditioned conjugate gradients for the symmetric
   positive-definite systems produced by the quadratic net models.

   The QP matrices are Laplacians plus positive diagonal (fixed pins and
   anchors), hence SPD whenever every connected component touches something
   fixed — which the placer guarantees by always adding at least a weak
   anchor per movable cell.

   The iteration is built on the fused [Vec] kernels: the residual update,
   preconditioner application and both dot products (r·z for beta, r·r for
   the convergence check) happen in one memory pass
   ([Vec.update_residual]), and the residual norm is tracked from that
   recurrence instead of re-running [Vec.norm2 r], so ||r|| is computed
   exactly once per convergence check and the final reported residual
   reuses it.

   Both axes of a QP share one matrix, so [iterate2] runs the x and y
   recurrences in lockstep: one [Csr.mul2] pass per iteration computes
   both products, and one inverse diagonal serves both.  Each axis keeps
   its own alpha, beta, stop test and iteration count, and [step] is the
   one iteration body of [solve] and [iterate2], so each axis's iterates
   equal a [solve] call's bit for bit.  When one axis stops, the other
   goes on with [Csr.mul]. *)

type stats = {
  iterations : int;
  residual : float;  (* final ||Ax - b|| / max(1, ||b||) *)
  converged : bool;
}

(* One axis's recurrence.  The vectors hold at least [n] entries (the
   workspace's are longer when it last served a bigger system); only the
   first [n] are read or written.  [f] holds the axis's floats: the
   partials of its reductions (the first [Vec.partials_len] entries, with
   each reduction's totals in [f.(0)] and [f.(1)]), then r.z, r.r and
   max(1, ||b||) at [rz], [rr] and [bnorm].  A float array stores them
   unboxed, where a mutable float field of this mixed record would box
   every write. *)
type axis = {
  b : float array;
  x : float array;  (* the iterate, improved in place *)
  r : float array;
  z : float array;
  p : float array;
  ap : float array;
  f : float array;
  mutable iter : int;
  mutable finished : bool;
}

let rz = Vec.partials_len
let rr = rz + 1
let bnorm = rz + 2

(* An axis's [f]. *)
let floats () = Array.make (bnorm + 1) 0.0

let axis ~f ~b ~x ~r ~z ~p ~ap =
  f.(rz) <- 0.0;
  f.(rr) <- 0.0;
  f.(bnorm) <- 1.0;
  { b; x; r; z; p; ap; f; iter = 0; finished = false }

(* The Jacobi preconditioner: the inverse diagonal (1 where it vanishes),
   written into [d]. *)
let inv_diagonal a d =
  Csr.diagonal a d;
  for i = 0 to Csr.dim a - 1 do
    let v = d.(i) in
    d.(i) <- (if Float.abs v > 1e-30 then 1.0 /. v else 1.0)
  done

(* r = b - A x; z = D^-1 r, with rz = r.z and rr = r.r from the same
   sweep; p = z. *)
let start a inv_diag ~n ~tol s =
  let f = s.f in
  Csr.mul a s.x s.ap;
  Vec.sub ~n s.b s.ap s.r;
  Vec.dot_into f ~n s.b s.b;
  f.(bnorm) <- Float.max 1.0 (sqrt f.(0));
  Vec.precond_dot2 f ~n inv_diag s.r s.z;
  Array.blit s.z 0 s.p 0 n;
  f.(rz) <- f.(0);
  f.(rr) <- f.(1);
  s.finished <- sqrt f.(rr) /. f.(bnorm) <= tol

let running ~max_iter s = (not s.finished) && s.iter < max_iter

(* One iteration, once [s.ap] holds A p. *)
let step inv_diag ~n ~tol s =
  let f = s.f in
  s.iter <- s.iter + 1;
  Vec.dot_into f ~n s.p s.ap;
  let pap = f.(0) in
  if pap <= 0.0 then
    (* matrix not SPD along p (numerical breakdown): stop with current x *)
    s.finished <- true
  else begin
    let alpha = f.(rz) /. pap in
    Vec.axpy ~n ~alpha s.p s.x;
    (* r -= alpha*ap; z = D^-1 r; rz' = r.z; rr' = r.r — one pass *)
    Vec.update_residual f ~n ~alpha s.ap s.r inv_diag s.z;
    let rz' = f.(0) and rr' = f.(1) in
    f.(rr) <- rr';
    if sqrt rr' /. f.(bnorm) <= tol then s.finished <- true
    else begin
      let beta = rz' /. f.(rz) in
      f.(rz) <- rz';
      Vec.xpby ~n ~beta s.z s.p
    end
  end

let stats_of ~tol s =
  let residual = sqrt s.f.(rr) /. s.f.(bnorm) in
  { iterations = s.iter; residual; converged = residual <= tol *. 10.0 }

let record_stats s =
  Fbp_obs.Obs.count "cg.solves";
  if not s.converged then Fbp_obs.Obs.count "cg.nonconverged";
  Fbp_obs.Obs.observe "cg.iterations" (float_of_int s.iterations)

(* Fault-injection shim, polled once per axis: tests can simulate
   numerical stagnation (the iterate is left untouched, as after a
   breakdown-stop) or a domain exception, to exercise the placer's
   safeguarded-restart path.  [true] means the axis stagnates. *)
let draw_fault () =
  match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Cg with
  | Some Fbp_resilience.Inject.Stagnate -> true
  | Some (Fbp_resilience.Inject.Raise msg) ->
    (* fbp-lint: allow error-taxonomy — fires only when the fuzz harness arms the registry, which converts it; CLI runs never arm *)
    raise (Fbp_resilience.Inject.Injected msg)
  | _ -> false

let stagnated ~max_iter = { iterations = max_iter; residual = 1.0; converged = false }

(* Vectors may be longer than the matrix (a caller's grow-only
   workspace); only the first [n] entries are read or written. *)
let prepare name ~max_iter a vs =
  let n = Csr.dim a in
  if List.exists (fun v -> Array.length v < n) vs then
    invalid_arg ("Cg." ^ name ^ ": dimension mismatch");
  (n, if max_iter > 0 then max_iter else max 100 (2 * n))

(* One axis's iteration, its fault already drawn; the axis owns its
   vectors and floats. *)
let run ~stagnate ~n ~max_iter ~tol a b x =
  if stagnate then stagnated ~max_iter
  else begin
    let inv_diag = Vec.create n in
    inv_diagonal a inv_diag;
    let s =
      axis ~f:(floats ()) ~b ~x ~r:(Vec.create n) ~z:(Vec.create n)
        ~p:(Vec.create n) ~ap:(Vec.create n)
    in
    start a inv_diag ~n ~tol s;
    while running ~max_iter s do
      Csr.mul a s.p s.ap;
      step inv_diag ~n ~tol s
    done;
    stats_of ~tol s
  end

let iterate ~stagnate ~max_iter ~tol a b x =
  let n, max_iter = prepare "iterate" ~max_iter a [ b; x ] in
  run ~stagnate ~n ~max_iter ~tol a b x

(* [record:false] defers metric recording to the caller (via
   [record_stats]): solves that run concurrently must be observed in a
   deterministic order. *)
let solve ?(record = true) ?(max_iter = 0) ?(tol = 1e-7) (a : Csr.t)
    (b : float array) (x : float array) =
  let n, max_iter = prepare "solve" ~max_iter a [ b; x ] in
  let st = run ~stagnate:(draw_fault ()) ~n ~max_iter ~tol a b x in
  if record then record_stats st;
  st

(* Grow-only vectors of [iterate2]: the inverse diagonal and each axis's
   r, z, p and A p; and each axis's floats, made once. *)
type workspace = {
  mutable inv_diag : float array;
  mutable vecs : float array array;  (* rx zx px apx ry zy py apy *)
  fx : float array;
  fy : float array;
}

let create_workspace () =
  { inv_diag = [||]; vecs = Array.make 8 [||]; fx = floats (); fy = floats () }

let reserve ws n =
  let cap = Array.length ws.inv_diag in
  if cap < n then begin
    let cap = max n (2 * cap) in
    ws.inv_diag <- Vec.create cap;
    ws.vecs <- Array.init 8 (fun _ -> Vec.create cap)
  end

(* Both axes' iterations in lockstep, their faults already drawn by the
   caller, x then y, as two [solve] calls draw them. *)
let iterate2 ?workspace ~stagnate:(stag_x, stag_y) ~max_iter ~tol (a : Csr.t)
    bx x by y =
  let n, max_iter = prepare "iterate2" ~max_iter a [ bx; x; by; y ] in
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  reserve ws n;
  let d = ws.inv_diag and v = ws.vecs in
  inv_diagonal a d;
  let sx = axis ~f:ws.fx ~b:bx ~x ~r:v.(0) ~z:v.(1) ~p:v.(2) ~ap:v.(3) in
  let sy = axis ~f:ws.fy ~b:by ~x:y ~r:v.(4) ~z:v.(5) ~p:v.(6) ~ap:v.(7) in
  if stag_x then sx.finished <- true else start a d ~n ~tol sx;
  if stag_y then sy.finished <- true else start a d ~n ~tol sy;
  while running ~max_iter sx || running ~max_iter sy do
    let ux = running ~max_iter sx and uy = running ~max_iter sy in
    if ux && uy then Csr.mul2 a sx.p sy.p sx.ap sy.ap
    else if ux then Csr.mul a sx.p sx.ap
    else Csr.mul a sy.p sy.ap;
    if ux then step d ~n ~tol sx;
    if uy then step d ~n ~tol sy
  done;
  let result stag s = if stag then stagnated ~max_iter else stats_of ~tol s in
  (result stag_x sx, result stag_y sy)
