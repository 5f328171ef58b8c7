(* PR 5 determinism suite: the pool/kernel stack must produce bit-identical
   results at any domain count, survive exceptions without losing workers,
   and the symbolic-reuse assembly path must equal the fresh path bitwise.

   "Bit-identical" is checked with [Alcotest.float 0.0] (zero tolerance) or
   by comparing [Int64.bits_of_float] directly. *)

open Fbp_netlist
open Fbp_core
module Pool = Fbp_util.Pool
module Vec = Fbp_linalg.Vec
module Csr = Fbp_linalg.Csr

let bits = Int64.bits_of_float

(* Run [f] with the pool default set to [d], restoring the previous default
   afterwards (the suites share one process). *)
let with_domains d f =
  let prev = Pool.get_default_domains () in
  Pool.set_default_domains d;
  Fun.protect ~finally:(fun () -> Pool.set_default_domains prev) f

(* ---------- chunking is a pure function of n ---------- *)

let test_chunking_pure () =
  List.iter
    (fun n ->
      let k = Pool.n_chunks ~grain:64 n in
      Alcotest.(check bool) "at least one chunk" true (n <= 0 || k >= 1);
      (* chunks tile [0, n) exactly, in order *)
      let covered = ref 0 in
      for c = 0 to k - 1 do
        let lo, hi = Pool.chunk_bounds ~n ~n_chunks:k c in
        Alcotest.(check int) "contiguous" !covered lo;
        Alcotest.(check bool) "nonempty" true (hi > lo);
        covered := hi
      done;
      if k > 0 then Alcotest.(check int) "covers n" n !covered)
    [ 1; 63; 64; 65; 1000; 4096; 100_000 ]

(* ---------- reductions bit-identical across domain counts ---------- *)

let test_dot_bitwise_across_domains () =
  let rng = Fbp_util.Rng.create 11 in
  let n = 30_000 in
  let a = Array.init n (fun _ -> Fbp_util.Rng.range rng (-1.0) 1.0) in
  let b = Array.init n (fun _ -> Fbp_util.Rng.range rng (-1.0) 1.0) in
  let reference = with_domains 1 (fun () -> (Vec.dot ~n a b, Vec.sqnorm2 ~n a)) in
  List.iter
    (fun d ->
      let got = with_domains d (fun () -> (Vec.dot ~n a b, Vec.sqnorm2 ~n a)) in
      Alcotest.(check int64)
        (Printf.sprintf "dot bits at %d domains" d)
        (bits (fst reference)) (bits (fst got));
      Alcotest.(check int64)
        (Printf.sprintf "sqnorm2 bits at %d domains" d)
        (bits (snd reference)) (bits (snd got)))
    [ 2; 3; 8 ]

(* ---------- spmv bit-identical across domain counts ---------- *)

let random_system rng n =
  let b = Csr.builder n in
  for i = 0 to n - 1 do
    Csr.add_diag b i (4.0 +. Fbp_util.Rng.float rng);
    let j = Fbp_util.Rng.int rng n in
    if j <> i then Csr.add_spring b i j (0.5 +. Fbp_util.Rng.float rng)
  done;
  b

let test_spmv_bitwise_across_domains () =
  let rng = Fbp_util.Rng.create 23 in
  let n = 9000 in
  let a = Csr.freeze (random_system rng n) in
  let x = Array.init n (fun _ -> Fbp_util.Rng.range rng (-5.0) 5.0) in
  let run d =
    with_domains d (fun () ->
        let out = Array.make n 0.0 in
        Csr.mul a x out;
        out)
  in
  let seq = run 1 in
  List.iter
    (fun d ->
      let par = run d in
      let mismatches = ref 0 in
      for i = 0 to n - 1 do
        if bits seq.(i) <> bits par.(i) then incr mismatches
      done;
      Alcotest.(check int)
        (Printf.sprintf "spmv bits at %d domains" d)
        0 !mismatches)
    [ 2; 8 ]

(* ---------- one level of parallelism ---------- *)

(* [a . b] summed in the fixed shape the kernels promise: 4096-item chunks
   from [Pool.chunk_bounds], each left to right, combined by the
   [lo + (len+1)/2] tree over chunk order. *)
let chunk_tree_dot a b =
  let n = Array.length a in
  let k = max 1 (Pool.n_chunks ~grain:4096 n) in
  let part c =
    let lo, hi = Pool.chunk_bounds ~n ~n_chunks:k c in
    let acc = ref 0.0 in
    for i = lo to hi - 1 do
      acc := !acc +. (a.(i) *. b.(i))
    done;
    !acc
  in
  let rec tree lo hi =
    if hi - lo = 1 then part lo
    else
      let mid = lo + ((hi - lo + 1) / 2) in
      let l = tree lo mid in
      l +. tree mid hi
  in
  tree 0 k

(* The CG kernels run on the calling domain: at a pool default of 8 they
   neither hand work to a worker nor spawn one, and a dot product keeps
   the chunk-and-tree summation shape. *)
let test_kernels_stay_on_caller () =
  let rng = Fbp_util.Rng.create 41 in
  let n = 30_000 in
  let a = Csr.freeze (random_system rng n) in
  let x = Array.init n (fun _ -> Fbp_util.Rng.range rng (-1.0) 1.0) in
  let b = Array.init n (fun _ -> Fbp_util.Rng.range rng (-1.0) 1.0) in
  with_domains 8 (fun () ->
      let d0 = Pool.n_dispatches () and s0 = Pool.n_workers_spawned () in
      let dot = Vec.dot ~n x b and expected = chunk_tree_dot x b in
      Vec.axpy ~n ~alpha:0.5 x b;
      Csr.mul a x (Array.make n 0.0);
      let st = Fbp_linalg.Cg.solve ~record:false a b (Array.make n 0.0) in
      Alcotest.(check int) "no dispatch" d0 (Pool.n_dispatches ());
      Alcotest.(check int) "no worker spawned" s0 (Pool.n_workers_spawned ());
      Alcotest.(check bool) "cg converged" true st.Fbp_linalg.Cg.converged;
      Alcotest.(check int64) "dot in the chunk-tree shape" (bits expected) (bits dot))

(* [Config.domains] bounds every region a placement opens, the global QP's
   x/y fork included: at one domain a system of 4096 or more variables
   solves on the caller whatever the pool default, and at two (unclamped)
   the fork is the only dispatch. *)
let test_config_domains_bound_global_qp () =
  let d = Generator.quick ~seed:9 ~name:"qp" 5000 in
  let nl = d.Design.netlist in
  let dispatches domains =
    with_domains 4 (fun () ->
        let pos = Placement.copy d.Design.initial in
        let d0 = Pool.n_dispatches () in
        let st =
          Qp.solve_global { Config.default with domains; hw_clamp = false } nl pos
            ~anchor:(fun _ -> None) ()
        in
        Alcotest.(check bool) "at least 4096 variables" true (st.Qp.vars >= 4096);
        (Pool.n_dispatches () - d0, pos))
  in
  let one, p1 = dispatches 1 and two, p2 = dispatches 2 in
  Alcotest.(check int) "domains = 1: no dispatch" 0 one;
  Alcotest.(check int) "domains = 2: the fork only" 1 two;
  Alcotest.(check (array (float 0.0))) "x bit-identical" p1.Placement.x p2.Placement.x;
  Alcotest.(check (array (float 0.0))) "y bit-identical" p1.Placement.y p2.Placement.y

(* The global QP's x ‖ y fork draws both axes' Cg faults on the calling
   domain before it forks, x then y, as the lockstep solve draws them:
   armed to skip one hit and fire once, the fault stagnates the y axis
   (its positions stay put) at one domain and at two, the site counts two
   hits per solve, and the positions agree bit for bit. *)
let test_global_qp_faults_drawn_before_fork () =
  let module Inject = Fbp_resilience.Inject in
  let d = Generator.quick ~seed:9 ~name:"qp" 5000 in
  let nl = d.Design.netlist in
  let init = d.Design.initial in
  let run domains =
    with_domains 4 (fun () ->
        Fun.protect ~finally:Inject.reset (fun () ->
            Inject.arm ~after:1 ~times:1 Inject.Cg Inject.Stagnate;
            let pos = Placement.copy init in
            let solve () =
              Qp.solve_global { Config.default with domains; hw_clamp = false }
                nl pos ~anchor:(fun _ -> None) ()
            in
            let st = solve () in
            Alcotest.(check bool) "at least 4096 variables" true (st.Qp.vars >= 4096);
            Alcotest.(check int) "two hits for the first solve" 2 (Inject.hits Inject.Cg);
            Alcotest.(check bool) "the stagnated solve did not converge" false
              st.Qp.converged;
            Alcotest.(check (array (float 0.0))) "y stagnated" init.Placement.y
              pos.Placement.y;
            Alcotest.(check bool) "x moved" false (pos.Placement.x = init.Placement.x);
            ignore (solve ());
            Alcotest.(check int) "two more for the second" 4 (Inject.hits Inject.Cg);
            pos))
  in
  let p1 = run 1 and p2 = run 2 in
  Alcotest.(check (array (float 0.0))) "x bit-identical" p1.Placement.x p2.Placement.x;
  Alcotest.(check (array (float 0.0))) "y bit-identical" p1.Placement.y p2.Placement.y

(* Realization draws each node's CG x, CG y and transport faults on the
   coordinating domain, in node order, before the wave runs, and hands
   the node its verdicts.  Armed to stagnate CG solves at random, a run
   at two domains, whose large waves run in parallel, fires the same
   sites in the same order as a run at one domain: the site hit counts
   and the placement bits agree.  Armed to raise at a given transport
   hit, both runs stop at exactly that hit. *)
let test_realization_faults_drawn_before_wave () =
  let module Inject = Fbp_resilience.Inject in
  let d = Generator.quick ~seed:61 ~name:"rf" 2000 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let design = inst.Fbp_movebound.Instance.design in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:design.Design.chip
      inst.Fbp_movebound.Instance.movebounds
  in
  let density = Density.create design in
  let grid =
    Grid.create ~chip:design.Design.chip ~nx:4 ~ny:4 ~regions ~density ()
  in
  let sol = Fbp_model.solve (Fbp_model.build inst regions grid design.Design.initial) in
  let run domains arm =
    with_domains domains (fun () ->
        Fun.protect ~finally:Inject.reset (fun () ->
            arm ();
            Fbp_obs.Obs.enable ();
            Fbp_obs.Obs.reset ();
            let pos = Placement.copy design.Design.initial in
            let outcome =
              match
                Realization.realize
                  { Config.default with domains; hw_clamp = false }
                  inst regions sol pos
              with
              | r -> Ok r.Realization.piece_of_cell
              | exception Inject.Injected msg -> Error msg
            in
            let disp = Fbp_obs.Obs.counter_value "pool.dispatches" in
            Fbp_obs.Obs.disable ();
            (pos, outcome, (Inject.hits Inject.Cg, Inject.hits Inject.Transport), disp)))
  in
  (* CG stagnation at random; the transport site only counts its hits *)
  let random () =
    Inject.arm ~seed:5 ~prob:0.3 Inject.Cg Inject.Stagnate;
    Inject.arm ~seed:6 ~prob:0.0 Inject.Transport Inject.Corrupt
  in
  let p1, o1, h1, _ = run 1 random in
  let p2, o2, h2, disp = run 2 random in
  if disp = 0 then Alcotest.fail "no parallel wave at 2 domains";
  Alcotest.(check bool) "some CG solves polled" true (fst h1 > 0);
  Alcotest.(check (pair int int)) "CG and transport hits" h1 h2;
  Alcotest.(check (array int64)) "x bits" (Array.map bits p1.Placement.x)
    (Array.map bits p2.Placement.x);
  Alcotest.(check (array int64)) "y bits" (Array.map bits p1.Placement.y)
    (Array.map bits p2.Placement.y);
  (match (o1, o2) with
  | Ok a1, Ok a2 -> Alcotest.(check (array int)) "piece assignment" a1 a2
  | _ -> Alcotest.fail "the random schedule raises nothing");
  (* a raise at the middle transport hit stops both runs right there *)
  let after = snd h1 / 2 in
  let raise_at () =
    Inject.arm ~after ~times:1 Inject.Transport (Inject.Raise "transport")
  in
  let _, r1, k1, _ = run 1 raise_at in
  let _, r2, k2, _ = run 2 raise_at in
  Alcotest.(check bool) "the raise escapes at 1 domain" true (Result.is_error r1);
  Alcotest.(check bool) "the raise escapes at 2 domains" true (Result.is_error r2);
  Alcotest.(check int) "stopped at the armed hit" (after + 1) (snd k1);
  Alcotest.(check (pair int int)) "same hits when stopped" k1 k2

(* ---------- symbolic reuse equals fresh assembly ---------- *)

(* Fixed topology (seed 31), values drawn from an independent stream — so
   two builders share the triplet (row, col) sequence but not the values,
   exactly the QP-round situation refreeze exists for. *)
let topo_system ~values_seed n =
  let topo_rng = Fbp_util.Rng.create 31 in
  let val_rng = Fbp_util.Rng.create values_seed in
  let b = Csr.builder n in
  for i = 0 to n - 1 do
    Csr.add_diag b i (4.0 +. Fbp_util.Rng.float val_rng);
    let j = Fbp_util.Rng.int topo_rng n in
    if j <> i then Csr.add_spring b i j (0.5 +. Fbp_util.Rng.float val_rng)
  done;
  b

let test_refreeze_bitwise () =
  let n = 500 in
  let _, structure = Csr.freeze_capture (topo_system ~values_seed:1 n) in
  let reference = Csr.freeze (topo_system ~values_seed:2 n) in
  match Csr.refreeze structure (topo_system ~values_seed:2 n) with
  | None -> Alcotest.fail "refreeze rejected an identical topology"
  | Some reused ->
    Alcotest.(check int) "nnz equal" (Csr.nnz reference) (Csr.nnz reused);
    let mismatches = ref 0 in
    Csr.iter_entries reference (fun r c v ->
        if bits (Csr.get reused r c) <> bits v then incr mismatches);
    Alcotest.(check int) "values bit-identical" 0 !mismatches

let test_refreeze_rejects_changed_topology () =
  let base () =
    let b = Csr.builder 4 in
    Csr.add_diag b 0 1.0;
    Csr.add_spring b 0 1 2.0;
    Csr.add_spring b 1 2 3.0;
    b
  in
  let _, structure = Csr.freeze_capture (base ()) in
  (* extra triplet: stream longer than captured *)
  let b2 = base () in
  Csr.add_diag b2 3 1.0;
  (match Csr.refreeze structure b2 with
  | Some _ -> Alcotest.fail "refreeze accepted a longer stream"
  | None -> ());
  (* same length, different endpoint in one spring *)
  let b3 = Csr.builder 4 in
  Csr.add_diag b3 0 1.0;
  Csr.add_spring b3 0 1 2.0;
  Csr.add_spring b3 1 3 3.0;
  (match Csr.refreeze structure b3 with
  | Some _ -> Alcotest.fail "refreeze accepted a different stream"
  | None -> ());
  (* unchanged stream still accepted *)
  match Csr.refreeze structure (base ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "refreeze rejected the captured stream"

(* ---------- exception propagation + pool reuse ---------- *)

exception Boom of int

(* Doubles [0, n) into a fresh array over 4 domains and checks every slot:
   a smoke test that the pool still runs regions correctly. *)
let doubled_ok n =
  let out = Array.make n 0 in
  let n_chunks = Pool.n_chunks ~grain:64 n in
  Pool.run_chunks ~domains:4 ~n_chunks (fun c ->
      let lo, hi = Pool.chunk_bounds ~n ~n_chunks c in
      for i = lo to hi - 1 do
        out.(i) <- 2 * i
      done);
  Array.for_all Fun.id (Array.mapi (fun i v -> v = 2 * i) out)

let test_pool_exceptions_and_reuse () =
  with_domains 4 (fun () ->
      (* first failure in chunk order wins, even when a later chunk also
         raises and scheduling is dynamic *)
      (match
         Pool.run_chunks ~domains:4 ~n_chunks:8 (fun c ->
             if c = 2 || c = 5 then raise (Boom c))
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom c -> Alcotest.(check int) "first chunk error" 2 c);
      (* fork2: f's exception takes precedence over g's *)
      (match
         Pool.fork2 ~domains:2
           (fun () -> raise (Boom 1))
           (fun () -> raise (Boom 2))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom c -> Alcotest.(check int) "fork2 f wins" 1 c);
      (* the pool is immediately reusable after failures *)
      Alcotest.(check bool) "pool reusable after exceptions" true
        (doubled_ok 1000);
      Alcotest.(check bool) "workers were actually spawned" true
        (Pool.n_workers_spawned () >= 1))

(* ---------- gang: reuse across regions + nesting ---------- *)

let test_gang_reuse_and_nesting () =
  with_domains 4 (fun () ->
      let n = 10_000 in
      let slots = Array.make n 0 in
      (* five consecutive regions reuse the same resident helpers: each
         costs one batch submission, not one dispatch per helper *)
      for round = 1 to 5 do
        let d0 = Pool.n_dispatches () in
        Pool.run_chunks ~domains:4 ~n_chunks:8 (fun c ->
            let lo, hi = Pool.chunk_bounds ~n ~n_chunks:8 c in
            for i = lo to hi - 1 do
              slots.(i) <- slots.(i) + round
            done);
        Alcotest.(check int)
          (Printf.sprintf "round %d costs one submission" round)
          1 (Pool.n_dispatches () - d0)
      done;
      Alcotest.(check bool) "all slots saw all five rounds" true
        (Array.for_all (fun v -> v = 15) slots);
      (* a region opened inside a chunk finds the gang claimed and runs its
         chunks on that chunk's domain: the 4-domain region spawns at most
         its own 3 helpers, and the nested 8-domain regions none *)
      let outer = 4 and inner = 16 in
      let out = Array.make (outer * inner) 0 in
      let s0 = Pool.n_workers_spawned () and d0 = Pool.n_dispatches () in
      Pool.run_chunks ~domains:4 ~n_chunks:outer (fun o ->
          Pool.run_chunks ~domains:8 ~n_chunks:inner (fun i ->
              out.((o * inner) + i) <- (o * inner) + i + 1));
      Alcotest.(check int) "nested regions submit nothing" 1
        (Pool.n_dispatches () - d0);
      Alcotest.(check int) "nested regions spawn no helper" (max s0 3)
        (Pool.n_workers_spawned ());
      Alcotest.(check bool) "nested result" true
        (Array.for_all Fun.id (Array.mapi (fun i v -> v = i + 1) out)))

(* ---------- fork2 inside a claimed gang ---------- *)

let test_fork2_inside_claimed_gang () =
  let ok = Array.make 2 false and winner = Array.make 2 0 in
  let d0 = Pool.n_dispatches () in
  Pool.run_chunks ~domains:2 ~n_chunks:2 (fun c ->
      let here = Domain.self () in
      let trail = ref [] in
      let branch name () =
        trail := (name, Domain.self () = here) :: !trail;
        String.length name
      in
      let r = Pool.fork2 ~domains:2 (branch "f") (branch "gg") in
      ok.(c) <- r = (1, 2) && List.rev !trail = [ ("f", true); ("gg", true) ];
      winner.(c) <-
        (match
           Pool.fork2 ~domains:2
             (fun () -> raise (Boom 1))
             (fun () -> raise (Boom 2))
         with
        | _ -> 0
        | exception Boom k -> k));
  Alcotest.(check int) "only the enclosing region submits" 1
    (Pool.n_dispatches () - d0);
  Alcotest.(check (array bool)) "f then g on the chunk's domain"
    [| true; true |] ok;
  Alcotest.(check (array int)) "f's exception wins" [| 1; 1 |] winner

(* ---------- realization: compact wave snapshot ---------- *)

let test_snapshot_compact () =
  let d = Generator.quick ~seed:41 ~name:"snap" 50 in
  let pos = Placement.copy d.Design.initial in
  let cells = [| 3; 7; 11; 42 |] in
  let xs, ys = Realization.snapshot pos cells in
  Alcotest.(check int) "snapshot is O(cells)" 4 (Array.length xs);
  Array.iteri
    (fun i c ->
      Alcotest.(check int64) "x bits" (bits pos.Placement.x.(c)) (bits xs.(i));
      Alcotest.(check int64) "y bits" (bits pos.Placement.y.(c)) (bits ys.(i)))
    cells;
  (* a later snapshot sees commits from earlier waves (shipped cells) *)
  pos.Placement.x.(7) <- 123.5;
  pos.Placement.y.(7) <- -2.25;
  let xs2, ys2 = Realization.snapshot pos cells in
  Alcotest.(check int64) "sees shipped-cell x" (bits 123.5) (bits xs2.(1));
  Alcotest.(check int64) "sees shipped-cell y" (bits (-2.25)) (bits ys2.(1));
  (* the snapshot is a copy: mutating it never writes through *)
  xs2.(0) <- 999.0;
  Alcotest.(check int64) "snapshot does not alias the placement"
    (bits pos.Placement.x.(3)) (bits xs.(0))

(* ------- realization: bitwise at 1 vs 2, 4, 8 domains + cost counters ----- *)

let test_realization_counters_and_bitwise () =
  let d = Generator.quick ~seed:61 ~name:"rc" 2000 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let design = inst.Fbp_movebound.Instance.design in
  let nl = design.Design.netlist in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:design.Design.chip
      inst.Fbp_movebound.Instance.movebounds
  in
  let density = Density.create design in
  let grid =
    Grid.create ~chip:design.Design.chip ~nx:4 ~ny:4 ~regions ~density ()
  in
  let model = Fbp_model.build inst regions grid design.Design.initial in
  let sol = Fbp_model.solve model in
  (* hw_clamp off so the parallel wave path actually runs on small CI
     machines *)
  let run domains =
    with_domains domains (fun () ->
        let pos = Placement.copy design.Design.initial in
        Fbp_obs.Obs.enable ();
        Fbp_obs.Obs.reset ();
        let stepped = ref 0 in
        let r =
          Realization.realize
            ~on_step:(fun s -> stepped := !stepped + s.Realization.n_cells)
            { Config.default with domains; hw_clamp = false }
            inst regions sol pos
        in
        let snap = Fbp_obs.Obs.counter_value "realization.snapshot_cells" in
        let disp = Fbp_obs.Obs.counter_value "pool.dispatches" in
        let scratches =
          Fbp_obs.Obs.histogram_values "realization.scratches"
        in
        Fbp_obs.Obs.disable ();
        (* one local-QP scratch per domain that drained a wave, never one
           per chunk *)
        (match scratches with
        | [| n |] ->
          if n < 1.0 || n > float_of_int domains then
            Alcotest.failf "%g scratches at %d domains" n domains
        | _ -> Alcotest.fail "one realization.scratches value per call");
        (pos, r, !stepped, snap, disp))
  in
  let p1, r1, s1, snap1, _ = run 1 in
  let same_as_one domains (p, (r : Realization.result), s) =
    let ctx = Printf.sprintf " at %d domains" domains in
    Alcotest.(check (array (float 0.0)))
      ("x bit-identical" ^ ctx) p1.Placement.x p.Placement.x;
    Alcotest.(check (array (float 0.0)))
      ("y bit-identical" ^ ctx) p1.Placement.y p.Placement.y;
    Alcotest.(check (array int)) ("piece assignment identical" ^ ctx)
      r1.Realization.piece_of_cell r.Realization.piece_of_cell;
    Alcotest.(check int) ("on_step streams equal" ^ ctx) s1 s
  in
  List.iter
    (fun domains ->
      let p, r, s, _, disp = run domains in
      if disp = 0 then
        Alcotest.failf "no parallel wave at %d domains (%d waves)" domains
          r.Realization.stats.Realization.n_waves;
      same_as_one domains (p, r, s))
    [ 2; 4 ];
  let p8, r8, s8, snap8, disp8 = run 8 in
  same_as_one 8 (p8, r8, s8);
  Alcotest.(check bool) "flow shipped cells" true
    (r1.Realization.stats.Realization.n_shipped_cells > 0);
  (* snapshot cost is O(wave): exactly the wave member cells (= the cells
     the steps commit), domain-count-invariant, and far below the seed's
     full-copy cost of n_waves * n_cells *)
  Alcotest.(check int) "snapshot_cells = committed step cells" s1 snap1;
  Alcotest.(check int) "snapshot_cells domain-invariant" snap1 snap8;
  Alcotest.(check bool) "snapshot cheaper than per-wave full copies" true
    (snap1 < r1.Realization.stats.Realization.n_waves * Netlist.n_cells nl);
  (* dispatch is O(1) per wave: at most one batch submission per wave *)
  Alcotest.(check bool)
    (Printf.sprintf "dispatches amortized (%d for %d waves)" disp8
       r8.Realization.stats.Realization.n_waves)
    true
    (disp8 <= r8.Realization.stats.Realization.n_waves)

(* ---------- e2e: placer bit-identical at any domain count ---------- *)

let test_placer_bitwise_and_records () =
  let d = Generator.quick ~seed:51 ~name:"det" 500 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let nl = d.Design.netlist in
  let run domains =
    with_domains domains (fun () ->
        Fbp_obs.Obs.enable ();
        Fbp_obs.Obs.reset ();
        let rep =
          match
            Placer.place ~config:{ Config.default with domains } inst
          with
          | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
          | Ok rep -> rep
        in
        let records =
          ( Fbp_obs.Obs.counter_value "cg.solves",
            Fbp_obs.Obs.counter_value "cg.nonconverged",
            Fbp_obs.Obs.histogram_values "cg.iterations" )
        in
        Fbp_obs.Obs.disable ();
        (rep.Placer.placement, Hpwl.total nl rep.Placer.placement, records))
  in
  let p1, h1, r1 = run 1 in
  let p8, h8, r8 = run 8 in
  Alcotest.(check (array (float 0.0))) "x bit-identical" p1.Placement.x p8.Placement.x;
  Alcotest.(check (array (float 0.0))) "y bit-identical" p1.Placement.y p8.Placement.y;
  Alcotest.(check int64) "hpwl bit-identical" (bits h1) (bits h8);
  let c1, nc1, it1 = r1 and c8, nc8, it8 = r8 in
  Alcotest.(check int) "cg.solves equal" c1 c8;
  Alcotest.(check int) "cg.nonconverged equal" nc1 nc8;
  Alcotest.(check (array (float 0.0))) "cg.iterations stream equal" it1 it8

let suite =
  [
    Alcotest.test_case "chunking pure in n" `Quick test_chunking_pure;
    Alcotest.test_case "dot bitwise across domains" `Quick
      test_dot_bitwise_across_domains;
    Alcotest.test_case "spmv bitwise across domains" `Quick
      test_spmv_bitwise_across_domains;
    Alcotest.test_case "kernels stay on the caller" `Quick
      test_kernels_stay_on_caller;
    Alcotest.test_case "config domains bound the global QP" `Quick
      test_config_domains_bound_global_qp;
    Alcotest.test_case "global QP draws its CG faults before the fork" `Quick
      test_global_qp_faults_drawn_before_fork;
    Alcotest.test_case "refreeze bitwise equals freeze" `Quick
      test_refreeze_bitwise;
    Alcotest.test_case "refreeze rejects changed topology" `Quick
      test_refreeze_rejects_changed_topology;
    Alcotest.test_case "pool exceptions + reuse" `Quick
      test_pool_exceptions_and_reuse;
    Alcotest.test_case "gang reuse + nesting" `Quick
      test_gang_reuse_and_nesting;
    Alcotest.test_case "fork2 inside a claimed gang" `Quick
      test_fork2_inside_claimed_gang;
    Alcotest.test_case "compact wave snapshot" `Quick test_snapshot_compact;
    Alcotest.test_case "realization draws its faults before the wave" `Quick
      test_realization_faults_drawn_before_wave;
    Alcotest.test_case "realization counters + bitwise" `Slow
      test_realization_counters_and_bitwise;
    Alcotest.test_case "placer bitwise + run records" `Slow
      test_placer_bitwise_and_records;
  ]
