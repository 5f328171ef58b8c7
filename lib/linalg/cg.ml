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
   goes on with [Csr.mul].

   Centre-of-gravity groups (taken by [iterate] and [iterate2]) turn a
   solve into an equality-constrained one: minimize 1/2 x'Ax - b'x
   subject to C x = C x0, where row g of C holds the weights c_i of group
   g's variables (GORDIAN's per-window constraints).  Projected
   preconditioned CG keeps every search direction in the null space of
   C: after the preconditioner writes z = D^-1 r, [project] removes, per
   group, the D^-1-weighted component along c, lambda_g = sum c_i z_i /
   sum c_i^2 D^-1_ii and z_i -= D^-1_ii c_i lambda_g.  The groups are
   disjoint, so C D^-1 C' is diagonal and the projection is exact in one
   pass.  The projected residual is r - C'lambda, and the stop test reads
   its norm.  A solve without groups runs none of this and keeps its
   bits. *)

type stats = {
  iterations : int;
  residual : float;  (* final ||Ax - b|| / max(1, ||b||), projected when grouped *)
  converged : bool;
}

type groups = { group : int array; weight : float array; n_groups : int }

(* A grouped axis's projection: its groups, sum c_i^2 D^-1_ii per group
   (made from the inverse diagonal, so both axes of one matrix share it),
   and the axis's own per-group sums, which [project] turns into the
   lambdas. *)
type projection = { groups : groups; mass : float array; lambda : float array }

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
  proj : projection option;
  mutable iter : int;
  mutable finished : bool;
}

let rz = Vec.partials_len
let rr = rz + 1
let bnorm = rz + 2

(* An axis's [f]. *)
let floats () = Array.make (bnorm + 1) 0.0

let axis ~proj ~f ~b ~x ~r ~z ~p ~ap =
  f.(rz) <- 0.0;
  f.(rr) <- 0.0;
  f.(bnorm) <- 1.0;
  { b; x; r; z; p; ap; f; proj; iter = 0; finished = false }

(* The Jacobi preconditioner: the inverse diagonal (1 where it vanishes),
   written into [d]. *)
let inv_diagonal a d =
  Csr.diagonal a d;
  for i = 0 to Csr.dim a - 1 do
    let v = d.(i) in
    d.(i) <- (if Float.abs v > 1e-30 then 1.0 /. v else 1.0)
  done

(* The projection of [groups] over the inverse diagonal [d]: each
   group's mass, and a fresh lambda array for one axis. *)
let projection (groups : groups) d ~n =
  let mass = Array.make groups.n_groups 0.0 in
  for i = 0 to n - 1 do
    let g = groups.group.(i) in
    if g >= 0 then begin
      let c = groups.weight.(i) in
      mass.(g) <- mass.(g) +. (c *. c *. d.(i))
    end
  done;
  { groups; mass; lambda = Array.make groups.n_groups 0.0 }

(* z's group sums, sum c_i z_i, into [pj.lambda], in index order on the
   calling domain, so their bits do not depend on where the axis runs. *)
let group_sums ~n z pj =
  let { group; weight; _ } = pj.groups and lambda = pj.lambda in
  Array.fill lambda 0 (Array.length lambda) 0.0;
  for i = 0 to n - 1 do
    let g = group.(i) in
    if g >= 0 then lambda.(g) <- lambda.(g) +. (weight.(i) *. z.(i))
  done

(* With z's group sums in [pj.lambda]: the lambdas, then z = D^-1 r in
   [s.z] projected onto the null space of C, with (r - C'lambda).z and
   ||r - C'lambda||^2 in [f.(0)] and [f.(1)]. *)
let project inv_diag ~n s pj =
  let lambda = pj.lambda and mass = pj.mass in
  for g = 0 to Array.length lambda - 1 do
    lambda.(g) <- (if mass.(g) > 0.0 then lambda.(g) /. mass.(g) else 0.0)
  done;
  Vec.project_dot2 s.f ~n pj.groups.group pj.groups.weight lambda inv_diag s.r s.z

(* r = b - A x; z = D^-1 r (projected), with rz = r.z and rr = r.r from
   the same sweep; p = z. *)
let start a inv_diag ~n ~tol s =
  let f = s.f in
  Csr.mul a s.x s.ap;
  Vec.sub ~n s.b s.ap s.r;
  Vec.dot_into f ~n s.b s.b;
  f.(bnorm) <- Float.max 1.0 (sqrt f.(0));
  Vec.precond_dot2 f ~n inv_diag s.r s.z;
  Option.iter
    (fun pj ->
      group_sums ~n s.z pj;
      project inv_diag ~n s pj)
    s.proj;
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
    (* r -= alpha*ap; z = D^-1 r; rz' = r.z; rr' = r.r — one pass; with
       groups, the group sums in that pass and the dot products in the
       projection's *)
    (match s.proj with
     | None -> Vec.update_residual f ~n ~alpha s.ap s.r inv_diag s.z
     | Some pj ->
       Array.fill pj.lambda 0 (Array.length pj.lambda) 0.0;
       Vec.update_residual_sums ~n ~alpha s.ap s.r inv_diag s.z pj.groups.group
         pj.groups.weight pj.lambda;
       project inv_diag ~n s pj);
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
   workspace); only the first [n] entries are read or written.  So may
   the groups' arrays, whose ids must lie below [n_groups]. *)
let prepare name ?groups ~max_iter a vs =
  let n = Csr.dim a in
  if List.exists (fun v -> Array.length v < n) vs then
    invalid_arg ("Cg." ^ name ^ ": dimension mismatch");
  Option.iter
    (fun g ->
      if Array.length g.group < n || Array.length g.weight < n then
        invalid_arg ("Cg." ^ name ^ ": groups shorter than the system");
      for i = 0 to n - 1 do
        if g.group.(i) >= g.n_groups then
          invalid_arg ("Cg." ^ name ^ ": group id out of range")
      done)
    groups;
  (n, if max_iter > 0 then max_iter else max 100 (2 * n))

(* One axis's iteration, its fault already drawn; the axis owns its
   vectors and floats. *)
let run ?groups ~stagnate ~n ~max_iter ~tol a b x =
  if stagnate then stagnated ~max_iter
  else begin
    let inv_diag = Vec.create n in
    inv_diagonal a inv_diag;
    let proj = Option.map (fun g -> projection g inv_diag ~n) groups in
    let s =
      axis ~proj ~f:(floats ()) ~b ~x ~r:(Vec.create n) ~z:(Vec.create n)
        ~p:(Vec.create n) ~ap:(Vec.create n)
    in
    start a inv_diag ~n ~tol s;
    while running ~max_iter s do
      Csr.mul a s.p s.ap;
      step inv_diag ~n ~tol s
    done;
    stats_of ~tol s
  end

let iterate ?groups ~stagnate ~max_iter ~tol a b x =
  let n, max_iter = prepare "iterate" ?groups ~max_iter a [ b; x ] in
  run ?groups ~stagnate ~n ~max_iter ~tol a b x

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
   caller, x then y, as two [solve] calls draw them.  Grouped axes share
   the masses and keep their own lambdas, made per call. *)
let iterate2 ?workspace ?groups ~stagnate:(stag_x, stag_y) ~max_iter ~tol
    (a : Csr.t) bx x by y =
  let n, max_iter = prepare "iterate2" ?groups ~max_iter a [ bx; x; by; y ] in
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  reserve ws n;
  let d = ws.inv_diag and v = ws.vecs in
  inv_diagonal a d;
  let px, py =
    match groups with
    | None -> (None, None)
    | Some g ->
      let p = projection g d ~n in
      (Some p, Some { p with lambda = Array.make g.n_groups 0.0 })
  in
  let sx = axis ~proj:px ~f:ws.fx ~b:bx ~x ~r:v.(0) ~z:v.(1) ~p:v.(2) ~ap:v.(3) in
  let sy = axis ~proj:py ~f:ws.fy ~b:by ~x:y ~r:v.(4) ~z:v.(5) ~p:v.(6) ~ap:v.(7) in
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
