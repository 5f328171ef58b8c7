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

(* Below this many variables the two axis solves run sequentially: a CG on
   a small system finishes in less time than a cross-domain wakeup costs,
   so [fork2] only adds latency (measured: QP time rose going from 1 to 4
   domains on a ~500-cell design).  Results are bit-identical either way —
   the x and y systems are independent. *)
let qp_seq_vars = 4096

let solve_system (cfg : Config.t) (sys : Netmodel.system) (pos : Placement.t) =
  let nv = sys.Netmodel.n_vars in
  let x = Array.make nv 0.0 and y = Array.make nv 0.0 in
  (* warm start from current positions; star vars start at the mean of their
     net, approximated by 0 + regularizer pull (harmless) *)
  for v = 0 to nv - 1 do
    let c = sys.Netmodel.cells.(v) in
    if c >= 0 then begin
      x.(v) <- pos.Placement.x.(c);
      y.(v) <- pos.Placement.y.(c)
    end
  done;
  (* The two axis systems are independent, so they run concurrently on the
     pool, within the config's domain budget; the CG kernels inside each
     solve stay on its domain.  Each solve defers its metrics
     ([record:false]); we record them after the join in fixed x-then-y
     order, keeping observation streams deterministic regardless of
     interleaving. *)
  let solve a b v () =
    Fbp_linalg.Cg.solve ~record:false ~max_iter:cfg.Config.cg_max_iter
      ~tol:cfg.Config.cg_tol a b v
  in
  let domains = Config.effective_domains cfg in
  let sx, sy =
    if nv < qp_seq_vars || domains < 2 then
      ( solve sys.Netmodel.ax sys.Netmodel.bx x (),
        solve sys.Netmodel.ay sys.Netmodel.by y () )
    else
      Fbp_util.Pool.fork2 ~domains
        (solve sys.Netmodel.ax sys.Netmodel.bx x)
        (solve sys.Netmodel.ay sys.Netmodel.by y)
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
  let out = ref [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then out := c :: !out
  done;
  Array.of_list !out

(* Global QP over every movable cell. *)
let solve_global (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t) ?cache
    ~anchor () =
  Fbp_obs.Obs.span "qp.global"
    ~args:(fun () -> [ ("cells", string_of_int (Netlist.n_cells nl)) ])
    (fun () ->
      let movable = all_movable nl in
      let sys =
        Netmodel.assemble nl pos ?cache ~movable
          ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ()
      in
      solve_system cfg sys pos)

(* Reusable scratch of a local QP.  For the net dedup: a stamp array over
   net ids (stamp.(ni) = current epoch means "already collected") plus a
   growable id buffer, so there is no hashing and the collection order is
   fixed by construction (cells in order, each cell's net list in order).
   For the assembly: the Netmodel workspace. *)
type scratch = {
  mutable stamp : int array;
  mutable buf : int array;
  mutable epoch : int;
  workspace : Netmodel.workspace;
}

let create_scratch () =
  { stamp = [||]; buf = Array.make 64 0; epoch = 0;
    workspace = Netmodel.create_workspace () }

(* In-place ascending sort of a.(lo..hi), specialised to ints: [Array.sort
   Int.compare] pays a closure call per comparison, most of dedup's time on
   small nodes. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo > 8 then begin
    let pivot = a.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort_ints a lo !j;
    sort_ints a !i hi
  end
  else
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Deduplicated, sorted ids of every net incident to [cells]; sorting fixes
   the assembly order. *)
let dedup_nets scratch ~n_nets ~(cell_nets : int list array)
    ~(cells : int array) =
  if Array.length scratch.stamp < n_nets then begin
    scratch.stamp <- Array.make n_nets 0;
    scratch.epoch <- 0
  end;
  scratch.epoch <- scratch.epoch + 1;
  let epoch = scratch.epoch and stamp = scratch.stamp in
  let count = ref 0 in
  let push ni =
    if Array.unsafe_get stamp ni <> epoch then begin
      Array.unsafe_set stamp ni epoch;
      if !count = Array.length scratch.buf then begin
        let buf' = Array.make (2 * !count) 0 in
        Array.blit scratch.buf 0 buf' 0 !count;
        scratch.buf <- buf'
      end;
      scratch.buf.(!count) <- ni;
      incr count
    end
  in
  Array.iter (fun c -> List.iter push cell_nets.(c)) cells;
  sort_ints scratch.buf 0 (!count - 1);
  Array.sub scratch.buf 0 !count

(* The local system over [cells], everything else fixed; only nets touching
   a cell are assembled. *)
let assemble_local (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t)
    scratch ~(cell_nets : int list array) ~(cells : int array) ~anchor =
  let nets =
    dedup_nets scratch ~n_nets:(Netlist.n_nets nl) ~cell_nets ~cells
  in
  Netmodel.assemble nl pos ~workspace:scratch.workspace ~movable:cells ~nets
    ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ()

(* Local QP over [cells] only; [cell_nets] is the cached incidence map.
   [scratch] lets a sequential caller (the repartitioner) reuse the dedup
   arrays and the assembly workspace across windows. *)
let solve_local (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t) ?scratch
    ~(cell_nets : int list array) ~(cells : int array) ~anchor () =
  if Array.length cells = 0 then
    { vars = 0; cg_iterations = 0; residual = 0.0; converged = true }
  else begin
    let scratch =
      match scratch with Some s -> s | None -> create_scratch ()
    in
    let sys = assemble_local cfg nl pos scratch ~cell_nets ~cells ~anchor in
    solve_system cfg sys pos
  end
