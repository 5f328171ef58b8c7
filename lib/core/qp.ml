(* Quadratic placement solves.

   [solve_global] relaxes all movable cells at once (the QP step between
   partitioning rounds); [solve_local] relaxes only a given cell subset with
   everything else fixed — the local connectivity step of the realization
   (Section IV-B, "a local QP (considering all cells outside W as fixed)
   will be computed first to obtain more connectivity information"). *)

open Fbp_netlist

type stats = {
  vars : int;
  cg_iterations : int;
  residual : float;
  converged : bool;  (* both CG solves (x and y) converged *)
}

(* Reusable scratch of a local QP.  For the net dedup: a stamp array over
   net ids (stamp.(ni) = current epoch means "already collected") plus a
   growable id buffer, so there is no hashing and the collection order is
   fixed by construction (cells in order, each cell's nets in order).
   For the assembly: the Netmodel workspace, which owns the system.  For
   the solve: the x/y iterates (grow-only) and the lockstep CG's vectors.
   For the caller's transportation problem: its sizes, capacities and cost
   matrix (grow-only), a Transport workspace, and a float buffer for
   realization's per-sink QP boxes. *)
type scratch = {
  mutable stamp : int array;
  mutable buf : int array;
  mutable epoch : int;
  workspace : Netmodel.workspace;
  mutable x : float array;
  mutable y : float array;
  cg : Fbp_linalg.Cg.workspace;
  mutable sizes : float array;
  mutable caps : float array;
  mutable cost : float array;
  mutable boxes : float array;
  transport : Fbp_flow.Transport.workspace;
}

let create_scratch () =
  { stamp = [||]; buf = Array.make 64 0; epoch = 0;
    workspace = Netmodel.create_workspace (); x = [||]; y = [||];
    cg = Fbp_linalg.Cg.create_workspace (); sizes = [||]; caps = [||];
    cost = [||]; boxes = [||];
    transport = Fbp_flow.Transport.create_workspace () }

let transport_workspace s = s.transport

(* [a] with room for [m] floats; contents are not kept. *)
let fit (a : float array) m =
  if Array.length a >= m then a else Array.make (max m (2 * Array.length a)) 0.0

let transport_problem s ~n ~k =
  s.sizes <- fit s.sizes n;
  s.caps <- fit s.caps k;
  s.cost <- fit s.cost (n * k);
  { Fbp_flow.Transport.n; k; sizes = s.sizes; capacities = s.caps; cost = s.cost }

let boxes s m =
  s.boxes <- fit s.boxes m;
  s.boxes

(* Iterates over [sys]'s vars warm-started from [pos]: a cell var at its
   position, a star var at 0 (the regularizer pulls it to its net).  With
   [scratch] they are its arrays, grown to [n_vars] and valid until its
   next use; fresh exact-length ones otherwise. *)
let iterates ?scratch (sys : Netmodel.system) (pos : Placement.t) =
  let nv = sys.Netmodel.n_vars in
  let x, y =
    match scratch with
    | None -> (Array.make nv 0.0, Array.make nv 0.0)
    | Some s ->
      if Array.length s.x < nv then begin
        let cap = max nv (2 * Array.length s.x) in
        s.x <- Array.make cap 0.0;
        s.y <- Array.make cap 0.0
      end;
      (s.x, s.y)
  in
  for v = 0 to nv - 1 do
    let c = sys.Netmodel.cells.(v) in
    if c >= 0 then begin
      x.(v) <- pos.Placement.x.(c);
      y.(v) <- pos.Placement.y.(c)
    end
    else begin
      x.(v) <- 0.0;
      y.(v) <- 0.0
    end
  done;
  (x, y)

(* Below this many variables the two axis solves run in lockstep on the
   calling domain: a CG on a small system finishes in less time than a
   cross-domain wakeup costs, so [fork2] only adds latency (measured: QP
   time rose going from 1 to 4 domains on a ~500-cell design).  Results
   are bit-identical either way — each axis of the lockstep solve equals
   its own [Cg.solve]. *)
let qp_seq_vars = 4096

let solve_axes ?scratch ?groups ~stagnate ~max_iter ~tol (sys : Netmodel.system)
    x y =
  Fbp_linalg.Cg.iterate2
    ?workspace:(Option.map (fun s -> s.cg) scratch)
    ?groups ~stagnate ~max_iter ~tol sys.Netmodel.ax sys.Netmodel.bx x
    sys.Netmodel.by y

let solve_system ?scratch ?groups (cfg : Config.t) (sys : Netmodel.system)
    (pos : Placement.t) =
  let nv = sys.Netmodel.n_vars in
  let x, y = iterates ?scratch sys pos in
  (* The two axis solves share the matrix, which neither writes, and are
     otherwise independent.  On one domain they run in lockstep over it;
     a large system at two or more domains solves them concurrently on
     the pool, within the config's domain budget, with the CG kernels of
     each solve on its domain.  The fault registry is not synchronized,
     so both axes' faults are drawn here first, x then y, on either path.
     Metrics are deferred and recorded after the join in fixed x-then-y
     order, keeping observation streams deterministic regardless of
     interleaving.  Grouped or not, both paths run the same per-axis
     iteration, so the bits do not depend on the path. *)
  let max_iter = cfg.Config.cg_max_iter and tol = cfg.Config.cg_tol in
  let domains = Config.effective_domains cfg in
  let stag_x = Fbp_linalg.Cg.draw_fault () in
  let stag_y = Fbp_linalg.Cg.draw_fault () in
  let sx, sy =
    if nv < qp_seq_vars || domains < 2 then
      solve_axes ?scratch ?groups ~stagnate:(stag_x, stag_y) ~max_iter ~tol sys x
        y
    else begin
      let solve stagnate b v () =
        Fbp_linalg.Cg.iterate ?groups ~stagnate ~max_iter ~tol sys.Netmodel.ax b v
      in
      Fbp_util.Pool.fork2 ~domains
        (solve stag_x sys.Netmodel.bx x)
        (solve stag_y sys.Netmodel.by y)
    end
  in
  Fbp_linalg.Cg.record_stats sx;
  Fbp_linalg.Cg.record_stats sy;
  for v = 0 to nv - 1 do
    let c = sys.Netmodel.cells.(v) in
    if c >= 0 then begin
      pos.Placement.x.(c) <- x.(v);
      pos.Placement.y.(c) <- y.(v)
    end
  done;
  {
    vars = nv;
    cg_iterations = sx.Fbp_linalg.Cg.iterations + sy.Fbp_linalg.Cg.iterations;
    residual = Float.max sx.Fbp_linalg.Cg.residual sy.Fbp_linalg.Cg.residual;
    converged = sx.Fbp_linalg.Cg.converged && sy.Fbp_linalg.Cg.converged;
  }

let all_movable (nl : Netlist.t) =
  let fixed = nl.Netlist.fixed and n = Netlist.n_cells nl in
  let count = ref 0 in
  for c = 0 to n - 1 do
    if not fixed.(c) then incr count
  done;
  let out = Array.make !count 0 and j = ref 0 in
  for c = 0 to n - 1 do
    if not fixed.(c) then begin
      out.(!j) <- c;
      incr j
    end
  done;
  out

(* Cell groups as groups of [sys]'s variables: a cell variable takes its
   cell's group and weight, a star variable stays free.  Made per solve. *)
let var_groups (sys : Netmodel.system) (g : Fbp_linalg.Cg.groups) =
  let nv = sys.Netmodel.n_vars in
  let group = Array.make nv (-1) and weight = Array.make nv 0.0 in
  for v = 0 to nv - 1 do
    let c = sys.Netmodel.cells.(v) in
    if c >= 0 then begin
      group.(v) <- g.Fbp_linalg.Cg.group.(c);
      weight.(v) <- g.Fbp_linalg.Cg.weight.(c)
    end
  done;
  { g with Fbp_linalg.Cg.group; weight }

(* Global QP over every movable cell. *)
let solve_global (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t) ?cache
    ?groups ~anchor () =
  Fbp_obs.Obs.span "qp.global"
    ~args:(fun () -> [ ("cells", string_of_int (Netlist.n_cells nl)) ])
    (fun () ->
      let movable = all_movable nl in
      let sys =
        Netmodel.assemble nl pos ?cache ~movable
          ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ()
      in
      solve_system ?groups:(Option.map (var_groups sys) groups) cfg sys pos)

(* Deduplicated, sorted ids of every net incident to [cells], read from
   the netlist's incidence, as the first entries of [scratch.buf]; returns
   their count.  Sorting fixes the assembly order. *)
let dedup_nets scratch (nl : Netlist.t) ~(cells : int array) =
  let n_nets = Netlist.n_nets nl in
  if Array.length scratch.stamp < n_nets then begin
    scratch.stamp <- Array.make n_nets 0;
    scratch.epoch <- 0
  end;
  scratch.epoch <- scratch.epoch + 1;
  let epoch = scratch.epoch and stamp = scratch.stamp in
  let start = nl.Netlist.cell_net_start and ids = nl.Netlist.cell_net in
  let count = ref 0 in
  for i = 0 to Array.length cells - 1 do
    let c = cells.(i) in
    for k = start.(c) to start.(c + 1) - 1 do
      let ni = ids.(k) in
      if stamp.(ni) <> epoch then begin
        stamp.(ni) <- epoch;
        if !count = Array.length scratch.buf then begin
          let buf' = Array.make (2 * !count) 0 in
          Array.blit scratch.buf 0 buf' 0 !count;
          scratch.buf <- buf'
        end;
        scratch.buf.(!count) <- ni;
        incr count
      end
    done
  done;
  Fbp_util.Int_sort.sort scratch.buf 0 (!count - 1);
  !count

(* The local system over [cells], everything else fixed; only nets touching
   a cell are assembled. *)
let assemble_local (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t)
    scratch ~(cells : int array) ~anchor =
  let n_nets = dedup_nets scratch nl ~cells in
  Netmodel.assemble nl pos ~workspace:scratch.workspace ~movable:cells
    ~nets:scratch.buf ~n_nets ~clique_max_degree:cfg.Config.clique_max_degree
    ~anchor ()

(* Local QP over [cells] only.  [scratch] lets a sequential caller (the
   repartitioner) reuse the dedup arrays and the assembly workspace across
   windows. *)
let solve_local (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t) ?scratch
    ~(cells : int array) ~anchor () =
  if Array.length cells = 0 then
    { vars = 0; cg_iterations = 0; residual = 0.0; converged = true }
  else begin
    let scratch =
      match scratch with Some s -> s | None -> create_scratch ()
    in
    let sys = assemble_local cfg nl pos scratch ~cells ~anchor in
    solve_system ~scratch cfg sys pos
  end
