(* Quadratic net models: turn nets into springs and assemble the SPD systems
   that quadratic placement minimizes.

   Small nets use the clique model with weight 2w/p per pin pair; larger
   nets a star with an auxiliary center variable (keeps the system sparse).
   Pin offsets enter the right-hand side, fixed pins and cells outside the
   movable set contribute constants — which is exactly what the realization
   needs for its local QP "with fixed cells outside W" (Section IV-B).

   The x and y forms are separable over the same springs, and every anchor
   weighs both axes alike, so the two axes share one Laplacian: it is
   assembled and frozen once, and only the right-hand sides are per axis. *)

open Fbp_netlist
module Csr = Fbp_linalg.Csr

type system = {
  n_vars : int;  (* movable-cell vars first, then star vars *)
  cells : int array;  (* var -> cell id, -1 for star vars *)
  ax : Csr.t;
  bx : float array;
  ay : Csr.t;  (* the same matrix as [ax] *)
  by : float array;
}

(* Symbolic-structure cache: across QP rounds of the same placement run the
   net topology and movable set are fixed, so the off-diagonal (row, col)
   stream and the diagonal pattern repeat exactly.  We capture them once
   and re-assemble later rounds as a flat value sweep.  Safety does not
   depend on the caller guessing right: [Csr.refreeze] verifies the full
   stream and pattern every time and we fall back to a fresh capture on
   any mismatch (a different net subset, a changed movable set...). *)
type cache = { mutable structure : Csr.structure option }

let create_cache () = { structure = None }

(* Everything [assemble] needs, and what a caller-owned workspace hands
   out.  [var_of_cell] is -1 everywhere between calls; [star_var] maps a
   position in the net list to its star var or -1.  [cells], [bx] and [by]
   become a system's arrays (only ever grown), as [freeze]'s arrays become
   its matrix. *)
type workspace = {
  mutable var_of_cell : int array;
  mutable star_var : int array;
  bld : Csr.builder;
  freeze : Csr.scratch;
  mutable cells : int array;
  mutable bx : float array;
  mutable by : float array;
}

let create_workspace () =
  {
    var_of_cell = [||];
    star_var = [||];
    bld = Csr.builder 0;
    freeze = Csr.create_scratch ();
    cells = [||];
    bx = [||];
    by = [||];
  }

(* The system's var-indexed arrays: the workspace's, grown to [nv] and
   cleared over their first [nv] entries, when the caller owns it
   ([owned]); fresh exact-length ones otherwise. *)
let system_arrays ws ~owned nv =
  if not owned then (Array.make nv (-1), Array.make nv 0.0, Array.make nv 0.0)
  else begin
    if Array.length ws.cells < nv then begin
      let cap = max nv (2 * Array.length ws.cells) in
      ws.cells <- Array.make cap (-1);
      ws.bx <- Array.make cap 0.0;
      ws.by <- Array.make cap 0.0
    end
    else begin
      Array.fill ws.cells 0 nv (-1);
      Array.fill ws.bx 0 nv 0.0;
      Array.fill ws.by 0 nv 0.0
    end;
    (ws.cells, ws.bx, ws.by)
  end

let freeze_cached ~scratch cache bld =
  match
    match cache.structure with
    | Some s -> Csr.refreeze s bld
    | None -> None
  with
  | Some t ->
    Fbp_obs.Obs.count "netmodel.refreeze_hits";
    t
  | None ->
    let t, s = Csr.freeze_capture ~scratch bld in
    cache.structure <- Some s;
    Fbp_obs.Obs.count "netmodel.refreeze_misses";
    t

(* The spring loop writes the builder itself instead of calling
   [Csr.add]: dune's dev profile compiles with -opaque, so a call into
   another module is never inlined and boxes its float argument.  Each
   writer follows [Csr.add]'s rule for the pushes it is given: zero values
   are dropped, a diagonal push adds into the row's dense sum
   ([push_diag]), an off-diagonal one appends a triplet ([push], with
   [row <> col]). *)
let[@inline] push_diag (b : Csr.builder) v w =
  if not (Float.equal w 0.0) then begin
    Array.unsafe_set b.Csr.diag v (Array.unsafe_get b.Csr.diag v +. w);
    Array.unsafe_set b.Csr.has_diag v true
  end

let[@inline] push (b : Csr.builder) row col v =
  if not (Float.equal v 0.0) then begin
    if b.Csr.count = Array.length b.Csr.rows then Csr.grow b;
    let k = b.Csr.count in
    Array.unsafe_set b.Csr.rows k row;
    Array.unsafe_set b.Csr.cols k col;
    Array.unsafe_set b.Csr.vals k v;
    b.Csr.count <- k + 1
  end

(* Absolute coordinate of an endpoint at offset [d] of cell [c], fixed in
   this solve; a pad ([c = -1]) sits at its offset.  Only ever used as an
   operand, so it inlines unboxed. *)
let[@inline] fixed_at coord c d = if c < 0 then d else coord.(c) +. d

(* A spring of stiffness [w] between endpoints a and b has the same
   Laplacian stencil on both axes, so it is pushed once ([stencil]); only
   the right-hand side is per axis ([spring_rhs], [coord] that axis's
   placement coordinates).  An endpoint is a pin offset [d] on cell [c],
   with [v] its var, or -1 when the cell is fixed in this solve (or a
   pad). *)
let[@inline] stencil b w va vb =
  if va >= 0 && vb >= 0 then begin
    if va <> vb then begin
      push_diag b va w;
      push_diag b vb w;
      push b va vb (-.w);
      push b vb va (-.w)
    end
  end
  else if va >= 0 then push_diag b va w
  else if vb >= 0 then push_diag b vb w

let[@inline] spring_rhs rhs coord w va da ca vb db cb =
  if va >= 0 && vb >= 0 then begin
    if va <> vb then begin
      rhs.(va) <- rhs.(va) +. (w *. (db -. da));
      rhs.(vb) <- rhs.(vb) +. (w *. (da -. db))
    end
  end
  else if va >= 0 then
    rhs.(va) <- rhs.(va) +. (w *. (fixed_at coord cb db -. da))
  else if vb >= 0 then
    rhs.(vb) <- rhs.(vb) +. (w *. (fixed_at coord ca da -. db))

let[@inline] var_of map c = if c < 0 then -1 else map.(c)

(* The springs of net [ni] with p >= 2 pins, read straight from the flat
   pin arrays: a clique of weight 2w/p per pin pair or, when [s >= 0], a
   star of weight 2w/(p-1) per pin to the star var [s] (offset 0).  Each
   spring pushes its stencil, then its x and y right-hand sides.  The
   weights and offsets stay locals so they are never boxed: everything
   called per spring inlines. *)
let net_springs ws (nl : Netlist.t) pos bx by ni s =
  let lo = nl.Netlist.net_start.(ni) and hi = nl.Netlist.net_start.(ni + 1) in
  let pin_cell = nl.Netlist.pin_cell in
  let pin_dx = nl.Netlist.pin_dx and pin_dy = nl.Netlist.pin_dy in
  let map = ws.var_of_cell and xs = pos.Placement.x and ys = pos.Placement.y in
  let p = hi - lo in
  let w_pair = 2.0 *. nl.Netlist.net_weight.(ni) /. float_of_int p in
  if s < 0 then
    for a = lo to hi - 1 do
      let ca = pin_cell.(a) in
      let va = var_of map ca in
      for b = a + 1 to hi - 1 do
        let cb = pin_cell.(b) in
        let vb = var_of map cb in
        stencil ws.bld w_pair va vb;
        spring_rhs bx xs w_pair va pin_dx.(a) ca vb pin_dx.(b) cb;
        spring_rhs by ys w_pair va pin_dy.(a) ca vb pin_dy.(b) cb
      done
    done
  else begin
    let w = w_pair *. float_of_int p /. float_of_int (p - 1) in
    for k = lo to hi - 1 do
      let c = pin_cell.(k) in
      let v = var_of map c in
      stencil ws.bld w v s;
      spring_rhs bx xs w v pin_dx.(k) c s 0.0 (-1);
      spring_rhs by ys w v pin_dy.(k) c s 0.0 (-1)
    done
  end

let has_movable map (nl : Netlist.t) ni =
  let k = ref nl.Netlist.net_start.(ni) and hi = nl.Netlist.net_start.(ni + 1) in
  while !k < hi && var_of map nl.Netlist.pin_cell.(!k) < 0 do incr k done;
  !k < hi

let build ws ~owned (nl : Netlist.t) (pos : Placement.t) ~cache ~movable
    ~net_ids ~n_nets ~clique_max_degree ~anchor =
  let n_cell_vars = Array.length movable in
  (* star variables: one per sufficiently wide net with >= 1 movable pin;
     beside them a bound on the off-diagonal pushes: p(p-1) for a clique
     of p pins, 2p for a star, none for a wide net with no movable pin *)
  if Array.length ws.star_var < n_nets then
    ws.star_var <- Array.make (max n_nets (2 * Array.length ws.star_var)) 0;
  let star_var = ws.star_var in
  let n_vars = ref n_cell_vars and bound = ref 0 in
  for k = 0 to n_nets - 1 do
    let ni = net_ids.(k) in
    let p = Netlist.degree nl ni in
    if p <= clique_max_degree then begin
      star_var.(k) <- -1;
      bound := !bound + (p * (p - 1))
    end
    else if has_movable ws.var_of_cell nl ni then begin
      star_var.(k) <- !n_vars;
      incr n_vars;
      bound := !bound + (2 * p)
    end
    else star_var.(k) <- -1
  done;
  let nv = !n_vars in
  let bld = ws.bld in
  Csr.reset bld nv;
  Csr.reserve bld !bound;
  let cells, bx, by = system_arrays ws ~owned nv in
  (* cliques also for wide all-fixed nets, which cost nothing *)
  for k = 0 to n_nets - 1 do
    let ni = net_ids.(k) in
    if Netlist.degree nl ni >= 2 then net_springs ws nl pos bx by ni star_var.(k)
  done;
  (* anchors and regularization: one diagonal entry each, shared by both
     axes, so an anchor must weigh x and y alike *)
  Array.iteri
    (fun v c ->
      (match anchor c with
       | Some (wx, tx, wy, ty) ->
         if not (Float.equal wx wy) then
           invalid_arg "Netmodel.assemble: anchor weights differ between axes";
         push_diag bld v wx;
         bx.(v) <- bx.(v) +. (wx *. tx);
         by.(v) <- by.(v) +. (wy *. ty)
       | None -> ());
      (* tiny regularizer keeps isolated cells solvable, pinned where they are *)
      let reg = 1e-9 in
      push_diag bld v reg;
      bx.(v) <- bx.(v) +. (reg *. pos.Placement.x.(c));
      by.(v) <- by.(v) +. (reg *. pos.Placement.y.(c)))
    movable;
  (* star vars regularization (in case every pin of the net is fixed-0) *)
  for v = n_cell_vars to nv - 1 do
    push_diag bld v 1e-9
  done;
  Array.blit movable 0 cells 0 n_cell_vars;
  Fbp_obs.Obs.count ~n:bld.Csr.count "netmodel.triplets";
  let scratch = ws.freeze in
  let a =
    match cache with
    | Some c -> freeze_cached ~scratch c bld
    | None when owned -> Csr.freeze ~scratch bld
    | None -> Csr.freeze bld
  in
  { n_vars = nv; cells; ax = a; bx; ay = a; by }

(* [assemble nl pos ~movable ?nets ?n_nets ~clique_max_degree ~anchor]
   builds the shared matrix and both right-hand sides over the first
   [n_nets] ids of [nets].  [anchor cell] returns optional (wx, tx, wy, ty)
   pulling the cell toward (tx, ty), with [wx] equal to [wy]. *)
let assemble (nl : Netlist.t) (pos : Placement.t) ?cache ?workspace
    ~(movable : int array) ?nets ?n_nets ~(clique_max_degree : int)
    ~(anchor : int -> (float * float * float * float) option) () =
  let owned = Option.is_some workspace in
  let ws =
    match workspace with Some ws -> ws | None -> create_workspace ()
  in
  let n = Netlist.n_cells nl in
  if Array.length ws.var_of_cell < n then ws.var_of_cell <- Array.make n (-1);
  let map = ws.var_of_cell in
  let net_ids =
    match nets with
    | Some ids -> ids
    | None ->
      if Option.is_some n_nets then
        invalid_arg "Netmodel.assemble: ~n_nets without ~nets";
      Array.init (Netlist.n_nets nl) Fun.id
  in
  let n_nets =
    match n_nets with
    | None -> Array.length net_ids
    | Some m ->
      if m < 0 || m > Array.length net_ids then
        invalid_arg "Netmodel.assemble: ~n_nets outside [0, length nets]";
      m
  in
  (* the map must read -1 again after the call, also when [anchor] raises *)
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun c -> if c >= 0 && c < Array.length map then map.(c) <- -1)
        movable)
    (fun () ->
      Array.iteri (fun v c -> map.(c) <- v) movable;
      build ws ~owned nl pos ~cache ~movable ~net_ids ~n_nets
        ~clique_max_degree ~anchor)
