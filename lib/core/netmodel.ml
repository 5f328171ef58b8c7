(* Quadratic net models: turn nets into springs and assemble the SPD systems
   that quadratic placement minimizes.

   Small nets use the clique model with weight 2w/p per pin pair; larger
   nets a star with an auxiliary center variable (keeps the system sparse).
   Pin offsets enter the right-hand side, fixed pins and cells outside the
   movable set contribute constants — which is exactly what the realization
   needs for its local QP "with fixed cells outside W" (Section IV-B). *)

open Fbp_netlist
module Csr = Fbp_linalg.Csr

type system = {
  n_vars : int;  (* movable-cell vars first, then star vars *)
  cells : int array;  (* var -> cell id, -1 for star vars *)
  ax : Csr.t;
  bx : float array;
  ay : Csr.t;
  by : float array;
}

(* Symbolic-structure cache: across QP rounds of the same placement run the
   net topology and movable set are fixed, so the triplet (row, col) stream
   per axis repeats exactly.  We capture it once and re-assemble later
   rounds as a flat value sweep.  Safety does not depend on the caller
   guessing right: [Csr.refreeze] verifies the full stream every time and
   we fall back to a fresh capture on any mismatch (anchors appearing or
   vanishing, a different net subset, a changed movable set...). *)
type cache = {
  mutable sx : Csr.structure option;
  mutable sy : Csr.structure option;
}

let create_cache () = { sx = None; sy = None }

(* Everything [assemble] needs besides what it returns.  [var_of_cell] is
   -1 everywhere between calls; [star_var] maps a position in the net list
   to its star var or -1. *)
type workspace = {
  mutable var_of_cell : int array;
  mutable star_var : int array;
  bldx : Csr.builder;
  bldy : Csr.builder;
  freeze : Csr.scratch;
}

let create_workspace () =
  {
    var_of_cell = [||];
    star_var = [||];
    bldx = Csr.builder 0;
    bldy = Csr.builder 0;
    freeze = Csr.create_scratch ();
  }

let freeze_cached ~scratch slot store bld =
  match
    match slot with
    | Some s -> Csr.refreeze s bld
    | None -> None
  with
  | Some t ->
    Fbp_obs.Obs.count "netmodel.refreeze_hits";
    t
  | None ->
    let t, s = Csr.freeze_capture ~scratch bld in
    store s;
    Fbp_obs.Obs.count "netmodel.refreeze_misses";
    t

(* The spring loop appends triplets itself instead of calling [Csr.add]:
   dune's dev profile compiles with -opaque, so a call into another module
   is never inlined and boxes its float argument.  Same zero-dropping and
   same triplet order as [Csr.add], [Csr.add_spring] and [Csr.add_diag]. *)
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

(* One spring of stiffness [w] on one axis ([coord] its placement
   coordinates) between endpoints a and b.  An endpoint is a pin offset
   [d] on cell [c], with [v] its var, or -1 when the cell is fixed in this
   solve (or a pad). *)
let[@inline] spring b rhs coord w va da ca vb db cb =
  if va >= 0 && vb >= 0 then begin
    if va <> vb then begin
      push b va va w;
      push b vb vb w;
      push b va vb (-.w);
      push b vb va (-.w);
      rhs.(va) <- rhs.(va) +. (w *. (db -. da));
      rhs.(vb) <- rhs.(vb) +. (w *. (da -. db))
    end
  end
  else if va >= 0 then begin
    push b va va w;
    rhs.(va) <- rhs.(va) +. (w *. (fixed_at coord cb db -. da))
  end
  else if vb >= 0 then begin
    push b vb vb w;
    rhs.(vb) <- rhs.(vb) +. (w *. (fixed_at coord ca da -. db))
  end

let[@inline] var_of map (pin : Netlist.pin) =
  if pin.Netlist.cell < 0 then -1 else map.(pin.Netlist.cell)

(* The x and y springs between two pins. *)
let[@inline] pin_pair ws (pos : Placement.t) bx by w (pa : Netlist.pin)
    (pb : Netlist.pin) =
  let va = var_of ws.var_of_cell pa and vb = var_of ws.var_of_cell pb in
  let ca = pa.Netlist.cell and cb = pb.Netlist.cell in
  spring ws.bldx bx pos.Placement.x w va pa.Netlist.dx ca vb pb.Netlist.dx cb;
  spring ws.bldy by pos.Placement.y w va pa.Netlist.dy ca vb pb.Netlist.dy cb

(* The springs of one net with p >= 2 pins, as a clique of weight 2w/p per
   pin pair or, when [s >= 0], as a star of weight 2w/(p-1) per pin to the
   star var [s] (offset 0).  The weight stays a local so it is never
   boxed: everything called per spring inlines. *)
let net_springs ws pos bx by (net : Netlist.net) s =
  let pins = net.Netlist.pins in
  let p = Array.length pins in
  let w_pair = 2.0 *. net.Netlist.weight /. float_of_int p in
  if s < 0 then
    for i = 0 to p - 1 do
      for j = i + 1 to p - 1 do
        pin_pair ws pos bx by w_pair pins.(i) pins.(j)
      done
    done
  else begin
    let w = w_pair *. float_of_int p /. float_of_int (p - 1) in
    for i = 0 to p - 1 do
      let pin = pins.(i) in
      let v = var_of ws.var_of_cell pin and c = pin.Netlist.cell in
      spring ws.bldx bx pos.Placement.x w v pin.Netlist.dx c s 0.0 (-1);
      spring ws.bldy by pos.Placement.y w v pin.Netlist.dy c s 0.0 (-1)
    done
  end

let has_movable map (pins : Netlist.pin array) =
  let i = ref 0 in
  while !i < Array.length pins && var_of map pins.(!i) < 0 do incr i done;
  !i < Array.length pins

let build ws (nl : Netlist.t) (pos : Placement.t) ~cache ~movable ~net_ids
    ~clique_max_degree ~anchor =
  let n_cell_vars = Array.length movable in
  (* star variables: one per sufficiently wide net with >= 1 movable pin *)
  let n_nets = Array.length net_ids in
  if Array.length ws.star_var < n_nets then
    ws.star_var <- Array.make (max n_nets (2 * Array.length ws.star_var)) 0;
  let star_var = ws.star_var in
  let n_vars = ref n_cell_vars in
  Array.iteri
    (fun k ni ->
      let pins = nl.Netlist.nets.(ni).Netlist.pins in
      if Array.length pins > clique_max_degree
         && has_movable ws.var_of_cell pins
      then begin
        star_var.(k) <- !n_vars;
        incr n_vars
      end
      else star_var.(k) <- -1)
    net_ids;
  let nv = !n_vars in
  let bldx = ws.bldx and bldy = ws.bldy in
  bldx.Csr.dim <- nv;
  bldx.Csr.count <- 0;
  bldy.Csr.dim <- nv;
  bldy.Csr.count <- 0;
  let bx = Array.make nv 0.0 and by = Array.make nv 0.0 in
  (* cliques also for wide all-fixed nets, which cost nothing *)
  Array.iteri
    (fun k ni ->
      let net = nl.Netlist.nets.(ni) in
      if Array.length net.Netlist.pins >= 2 then
        net_springs ws pos bx by net star_var.(k))
    net_ids;
  (* anchors and regularization *)
  Array.iteri
    (fun v c ->
      (match anchor c with
       | Some (wx, tx, wy, ty) ->
         push bldx v v wx;
         bx.(v) <- bx.(v) +. (wx *. tx);
         push bldy v v wy;
         by.(v) <- by.(v) +. (wy *. ty)
       | None -> ());
      (* tiny regularizer keeps isolated cells solvable, pinned where they are *)
      let reg = 1e-9 in
      push bldx v v reg;
      bx.(v) <- bx.(v) +. (reg *. pos.Placement.x.(c));
      push bldy v v reg;
      by.(v) <- by.(v) +. (reg *. pos.Placement.y.(c)))
    movable;
  (* star vars regularization (in case every pin of the net is fixed-0) *)
  for v = n_cell_vars to nv - 1 do
    push bldx v v 1e-9;
    push bldy v v 1e-9
  done;
  let cells = Array.make nv (-1) in
  Array.blit movable 0 cells 0 n_cell_vars;
  let scratch = ws.freeze in
  let ax, ay =
    match cache with
    | None -> (Csr.freeze ~scratch bldx, Csr.freeze ~scratch bldy)
    | Some c ->
      ( freeze_cached ~scratch c.sx (fun s -> c.sx <- Some s) bldx,
        freeze_cached ~scratch c.sy (fun s -> c.sy <- Some s) bldy )
  in
  { n_vars = nv; cells; ax; bx; ay; by }

(* [assemble nl pos ~movable ?nets ~clique_max_degree ~anchor] builds both
   axis systems.  [anchor cell] returns optional (wx, tx, wy, ty) pulling the
   cell toward (tx, ty). *)
let assemble (nl : Netlist.t) (pos : Placement.t) ?cache ?workspace
    ~(movable : int array) ?nets ~(clique_max_degree : int)
    ~(anchor : int -> (float * float * float * float) option) () =
  let ws =
    match workspace with Some ws -> ws | None -> create_workspace ()
  in
  let n = Netlist.n_cells nl in
  if Array.length ws.var_of_cell < n then ws.var_of_cell <- Array.make n (-1);
  let map = ws.var_of_cell in
  let net_ids =
    match nets with
    | Some ids -> ids
    | None -> Array.init (Netlist.n_nets nl) Fun.id
  in
  (* the map must read -1 again after the call, also when [anchor] raises *)
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun c -> if c >= 0 && c < Array.length map then map.(c) <- -1)
        movable)
    (fun () ->
      Array.iteri (fun v c -> map.(c) <- v) movable;
      build ws nl pos ~cache ~movable ~net_ids ~clique_max_degree ~anchor)
