(* Tests for fbp_flow: Dinic max-flow against brute-force min cuts,
   min-cost-flow optimality audits, and the transportation solver against
   the exact MCF reference. *)

open Fbp_flow

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Graph ---------- *)

let test_graph_arcs () =
  let g = Graph.create 3 in
  let a = Graph.add_edge g ~u:0 ~v:1 ~cap:5.0 ~cost:2.0 in
  let b = Graph.add_edge g ~u:1 ~v:2 ~cap:3.0 ~cost:1.0 in
  Alcotest.(check int) "ids even" 0 (a mod 2);
  Alcotest.(check int) "rev pairing" (a + 1) (Graph.rev a);
  Alcotest.(check int) "second arc id" 2 b;
  Alcotest.(check int) "dst" 1 (Graph.dst g a);
  Alcotest.(check int) "src" 0 (Graph.src g a);
  check_float "cost negated on twin" (-2.0) (Graph.cost g (Graph.rev a));
  Graph.push g a 2.0;
  check_float "flow recorded" 2.0 (Graph.flow g a);
  check_float "residual opened" 2.0 (Graph.capacity g (Graph.rev a));
  Graph.reset_flow g;
  check_float "reset" 0.0 (Graph.flow g a)

let test_graph_iter_out () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:2.0 ~cost:0.0);
  let count = ref 0 in
  Graph.iter_out g 0 (fun _ -> incr count);
  (* two forward arcs leave node 0; twins leave node 1 *)
  Alcotest.(check int) "out-degree" 2 !count

(* ---------- Maxflow ---------- *)

let test_maxflow_known () =
  (* Classic 4-node example: s=0, t=3; max flow 5. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:3.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~cap:2.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:1 ~v:2 ~cap:5.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:1 ~v:3 ~cap:2.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:2 ~v:3 ~cap:3.0 ~cost:0.0);
  let r = Maxflow.solve g ~source:0 ~sink:3 in
  check_float "value" 5.0 r.Maxflow.value;
  Alcotest.(check bool) "source in cut" true r.Maxflow.min_cut.(0);
  Alcotest.(check bool) "sink not in cut" false r.Maxflow.min_cut.(3)

let test_maxflow_disconnected () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:4.0 ~cost:0.0);
  let r = Maxflow.solve g ~source:0 ~sink:2 in
  check_float "no path -> 0" 0.0 r.Maxflow.value

(* Random graph generator for cross-checks: n <= 7 nodes, arcs with integer
   capacities so brute-force min-cut enumeration is exact. *)
let random_graph_arcs =
  QCheck.Gen.(
    let n = 6 in
    let arc = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 9) in
    map (fun arcs -> (n, arcs)) (list_size (int_range 1 14) arc))

let brute_force_mincut n arcs ~source ~sink =
  (* Enumerate all subsets containing source but not sink. *)
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl source) <> 0 && mask land (1 lsl sink) = 0 then begin
      let cut =
        List.fold_left
          (fun acc (u, v, c) ->
            if mask land (1 lsl u) <> 0 && mask land (1 lsl v) = 0 then
              acc +. float_of_int c
            else acc)
          0.0 arcs
      in
      if cut < !best then best := cut
    end
  done;
  !best

let prop_maxflow_equals_mincut =
  QCheck.Test.make ~name:"maxflow = brute-force mincut" ~count:200
    (QCheck.make random_graph_arcs)
    (fun (n, arcs) ->
      let arcs = List.filter (fun (u, v, _) -> u <> v) arcs in
      let g = Graph.create n in
      List.iter
        (fun (u, v, c) ->
          ignore (Graph.add_edge g ~u ~v ~cap:(float_of_int c) ~cost:0.0))
        arcs;
      let r = Maxflow.solve g ~source:0 ~sink:(n - 1) in
      let cut = brute_force_mincut n arcs ~source:0 ~sink:(n - 1) in
      Float.abs (r.Maxflow.value -. cut) < 1e-6)

let prop_maxflow_conservation =
  QCheck.Test.make ~name:"maxflow conserves at inner nodes" ~count:200
    (QCheck.make random_graph_arcs)
    (fun (n, arcs) ->
      let arcs = List.filter (fun (u, v, _) -> u <> v) arcs in
      let g = Graph.create n in
      List.iter
        (fun (u, v, c) ->
          ignore (Graph.add_edge g ~u ~v ~cap:(float_of_int c) ~cost:0.0))
        arcs;
      ignore (Maxflow.solve g ~source:0 ~sink:(n - 1));
      let balance = Array.make n 0.0 in
      Graph.iter_edges g (fun a ->
          let f = Graph.flow g a in
          balance.(Graph.src g a) <- balance.(Graph.src g a) -. f;
          balance.(Graph.dst g a) <- balance.(Graph.dst g a) +. f);
      let ok = ref true in
      for v = 1 to n - 2 do
        if Float.abs balance.(v) > 1e-6 then ok := false
      done;
      !ok)

(* ---------- Mcf ---------- *)

let test_mcf_known () =
  (* Two routes of different cost: cheap one has limited capacity. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:2.0 ~cost:1.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~cap:10.0 ~cost:3.0);
  ignore (Graph.add_edge g ~u:1 ~v:3 ~cap:10.0 ~cost:1.0);
  ignore (Graph.add_edge g ~u:2 ~v:3 ~cap:10.0 ~cost:1.0);
  let supply = [| 5.0; 0.0; 0.0; -5.0 |] in
  (match Mcf.solve g ~supply with
  | Mcf.Feasible { cost } ->
    (* 2 units via cheap route (cost 2 each), 3 via expensive (cost 4 each) *)
    check_float "optimal cost" 16.0 cost
  | Mcf.Infeasible _ -> Alcotest.fail "expected feasible");
  Alcotest.(check bool) "optimality audit" true (Mcf.check_optimal g)

let test_mcf_infeasible () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:0.0);
  (* node 2 demands 5 but only supplies at 0 reach node 1 *)
  let supply = [| 5.0; 0.0; -5.0 |] in
  match Mcf.solve g ~supply with
  | Mcf.Feasible _ -> Alcotest.fail "expected infeasible"
  | Mcf.Infeasible { unrouted } -> check_float "unrouted amount" 5.0 unrouted

let test_mcf_demand_slack () =
  (* Total demand exceeds supply: demands are upper bounds. *)
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:10.0 ~cost:1.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~cap:10.0 ~cost:2.0);
  let supply = [| 4.0; -10.0; -10.0 |] in
  match Mcf.solve g ~supply with
  | Mcf.Feasible { cost } -> check_float "all to cheap sink" 4.0 cost
  | Mcf.Infeasible _ -> Alcotest.fail "expected feasible"

let test_mcf_rejects_negative_cost () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:(-1.0));
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Mcf.solve: negative arc cost") (fun () ->
      ignore (Mcf.solve g ~supply:[| 1.0; -1.0 |]))

(* Random MCF instances: bipartite transportation with integer data, checked
   for optimality via the negative-cycle audit and conservation. *)
let random_transport =
  QCheck.Gen.(
    let src_n = int_range 1 4 and snk_n = int_range 1 4 in
    pair src_n snk_n >>= fun (ns, nk) ->
    let costs = list_size (return (ns * nk)) (int_range 0 9) in
    let supplies = list_size (return ns) (int_range 1 9) in
    let caps = list_size (return nk) (int_range 1 9) in
    map
      (fun (costs, supplies, caps) -> (ns, nk, costs, supplies, caps))
      (triple costs supplies caps))

let prop_mcf_optimal_and_conserving =
  QCheck.Test.make ~name:"mcf residual has no negative cycle + conservation" ~count:200
    (QCheck.make random_transport)
    (fun (ns, nk, costs, supplies, caps) ->
      let n = ns + nk in
      let g = Graph.create n in
      List.iteri
        (fun idx c ->
          let i = idx / nk and j = idx mod nk in
          ignore (Graph.add_edge g ~u:i ~v:(ns + j) ~cap:100.0 ~cost:(float_of_int c)))
        costs;
      let supply = Array.make n 0.0 in
      List.iteri (fun i s -> supply.(i) <- float_of_int s) supplies;
      List.iteri (fun j c -> supply.(ns + j) <- -.float_of_int c) caps;
      let total_supply = List.fold_left ( + ) 0 supplies in
      let total_cap = List.fold_left ( + ) 0 caps in
      match Mcf.solve g ~supply with
      | Mcf.Infeasible _ -> total_supply > total_cap
      | Mcf.Feasible { cost } ->
        let recomputed = ref 0.0 in
        let balance = Array.make n 0.0 in
        Graph.iter_edges g (fun a ->
            let f = Graph.flow g a in
            recomputed := !recomputed +. (f *. Graph.cost g a);
            balance.(Graph.src g a) <- balance.(Graph.src g a) -. f;
            balance.(Graph.dst g a) <- balance.(Graph.dst g a) +. f);
        let ok_balance = ref true in
        for i = 0 to ns - 1 do
          (* each source ships out exactly its supply *)
          if Float.abs (balance.(i) +. supply.(i)) > 1e-6 then ok_balance := false
        done;
        for j = ns to n - 1 do
          (* sinks receive at most their capacity *)
          if balance.(j) > -.supply.(j) +. 1e-6 then ok_balance := false
        done;
        total_supply <= total_cap
        && Float.abs (cost -. !recomputed) < 1e-6
        && !ok_balance
        && Mcf.check_optimal g)

(* Random general instances: up to 8 nodes with supply, deficit and transit
   nodes, finite capacities, costs from {0..3} (zero-cost arcs and cycles,
   many ties, so many degenerate pivots), and supply that may exceed or
   fall short of demand or be cut off from it. *)
let random_general =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    let node = int_range 0 (n - 1) in
    let cap = oneof [ int_range 1 9; return 100 ] in
    let arc = quad node node cap (int_range 0 3) in
    let balance = frequency [ (2, return 0); (3, int_range (-9) 9) ] in
    map
      (fun (arcs, supply) -> (n, arcs, Array.of_list supply))
      (pair (list_size (int_range 0 24) arc) (list_size (return n) balance)))

let print_general (n, arcs, supply) =
  Printf.sprintf "n=%d arcs=[%s] supply=[%s]" n
    (String.concat "; "
       (List.map (fun (u, v, c, w) -> Printf.sprintf "%d->%d cap %d cost %d" u v c w) arcs))
    (String.concat "; " (Array.to_list (Array.map string_of_int supply)))

let general_graph (n, arcs, _) =
  let g = Graph.create n in
  List.iter
    (fun (u, v, c, w) ->
      ignore (Graph.add_edge g ~u ~v ~cap:(float_of_int c) ~cost:(float_of_int w)))
    arcs;
  g

let prop_mcf_general_optimal =
  QCheck.Test.make ~name:"mcf general graphs: optimal, conserving, cost" ~count:500
    (QCheck.make ~print:print_general random_general)
    (fun ((_, _, b) as inst) ->
      let g = general_graph inst in
      let supply = Array.map float_of_int b in
      let verdict = Mcf.solve g ~supply in
      let exact = match verdict with Mcf.Feasible _ -> true | Mcf.Infeasible _ -> false in
      let recomputed = ref 0.0 in
      Graph.iter_edges g (fun a -> recomputed := !recomputed +. (Graph.flow g a *. Graph.cost g a));
      let cost_ok =
        match verdict with
        | Mcf.Feasible { cost } -> Float.abs (cost -. !recomputed) < 1e-6
        | Mcf.Infeasible _ -> true
      in
      cost_ok && Mcf.check_optimal g && Result.is_ok (Mcf.check_flow g ~supply ~exact))

(* Theorem 3's certificate, checked independently: the unrouted supply is
   total supply minus the max flow from a super source (arcs s -> v of
   capacity b(v)) to a super sink (arcs v -> t of capacity -b(v)). *)
let prop_mcf_unrouted_is_maxflow_gap =
  QCheck.Test.make ~name:"mcf unrouted = supply - maxflow" ~count:500
    (QCheck.make ~print:print_general random_general)
    (fun ((n, arcs, b) as inst) ->
      let supply = Array.map float_of_int b in
      let unrouted =
        match Mcf.solve (general_graph inst) ~supply with
        | Mcf.Feasible _ -> 0.0
        | Mcf.Infeasible { unrouted } -> unrouted
      in
      let h = general_graph (n + 2, arcs, b) in
      let total = ref 0.0 in
      Array.iteri
        (fun v s ->
          if s > 0.0 then begin
            total := !total +. s;
            ignore (Graph.add_edge h ~u:n ~v ~cap:s ~cost:0.0)
          end
          else if s < 0.0 then ignore (Graph.add_edge h ~u:v ~v:(n + 1) ~cap:(-.s) ~cost:0.0))
        supply;
      let mf = Maxflow.solve h ~source:n ~sink:(n + 1) in
      Float.abs (unrouted -. (!total -. mf.Maxflow.value)) < 1e-6)

(* ---------- Transport ---------- *)

(* A problem whose n·k cost matrix holds [cost i j]. *)
let mk_problem sizes caps cost =
  let k = Array.length caps in
  {
    Transport.sizes;
    capacities = caps;
    cost = Array.init (Array.length sizes * k) (fun ij -> cost (ij / k) (ij mod k));
  }

let test_transport_simple () =
  (* 3 unit cells, 2 sinks with capacity 2 and 1; cell 2 prefers sink 0 but
     must be displaced when sink 0 fills up. *)
  let cost i j =
    match (i, j) with
    | 0, 0 -> 0.0 | 0, 1 -> 10.0
    | 1, 0 -> 0.0 | 1, 1 -> 10.0
    | 2, 0 -> 1.0 | 2, 1 -> 2.0
    | _ -> infinity
  in
  let p = mk_problem [| 1.0; 1.0; 1.0 |] [| 2.0; 1.0 |] cost in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    Alcotest.(check bool) "capacities respected" true (Transport.max_overflow p a <= 1e-6);
    check_float "optimal cost" 2.0 a.Transport.cost

let test_transport_inadmissible () =
  let cost i j = if i = 0 && j = 0 then infinity else 1.0 in
  let p = mk_problem [| 1.0 |] [| 5.0 |] cost in
  match Transport.solve p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected no admissible sink error"

let test_transport_fractional_split () =
  (* One big cell of size 2 must split across two sinks of capacity 1. *)
  let cost _ j = float_of_int j in
  let p = mk_problem [| 2.0 |] [| 1.0; 1.0 |] cost in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    Alcotest.(check bool) "capacities respected" true (Transport.max_overflow p a <= 1e-6);
    Alcotest.(check int) "one fractional cell" 1 (Transport.n_fractional a);
    let fr = a.Transport.frac.(0) in
    check_float "fractions sum to 1" 1.0 (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 fr)

let random_transport_problem =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    int_range 2 4 >>= fun k ->
    let sizes = list_size (return n) (float_range 0.5 3.0) in
    let cost_rows = list_size (return (n * k)) (float_range 0.0 20.0) in
    map
      (fun (sizes, costs) ->
        let sizes = Array.of_list sizes in
        let total = Array.fold_left ( +. ) 0.0 sizes in
        (* capacities comfortably feasible: total * 1.2 split across sinks *)
        let caps = Array.make k (total *. 1.2 /. float_of_int k) in
        let costs = Array.of_list costs in
        (n, k, sizes, caps, costs))
      (pair sizes cost_rows))

let prop_transport_respects_capacities =
  QCheck.Test.make ~name:"transport respects capacities when feasible" ~count:150
    (QCheck.make random_transport_problem)
    (fun (_n, k, sizes, caps, costs) ->
      let cost i j = costs.((i * k) + j) in
      let p = mk_problem sizes caps cost in
      match Transport.solve p with
      | Error _ -> false
      | Ok a ->
        Transport.max_overflow p a <= 1e-6
        && Array.for_all
             (fun fr ->
               Float.abs (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 fr -. 1.0) < 1e-6)
             a.Transport.frac)

(* Total size minus the max flow from a super source through the admissible
   (cell, sink) pairs into the sink capacities — the overload no assignment
   can avoid (the network of [prop_mcf_unrouted_is_maxflow_gap]). *)
let maxflow_gap p =
  let n = Array.length p.Transport.sizes and k = Array.length p.Transport.capacities in
  let g = Graph.create (n + k + 2) in
  let s = n + k and t = n + k + 1 in
  Array.iteri (fun i size -> ignore (Graph.add_edge g ~u:s ~v:i ~cap:size ~cost:0.0)) p.sizes;
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      if p.Transport.cost.((i * k) + j) < infinity then
        ignore (Graph.add_edge g ~u:i ~v:(n + j) ~cap:p.sizes.(i) ~cost:0.0)
    done
  done;
  Array.iteri
    (fun j c -> ignore (Graph.add_edge g ~u:(n + j) ~v:t ~cap:c ~cost:0.0))
    p.capacities;
  Array.fold_left ( +. ) 0.0 p.sizes -. (Maxflow.solve g ~source:s ~sink:t).Maxflow.value

(* [Transport.solve] against the exact MCF reference, both outputs against
   the sink-price certificate.  Feasible: equal cost to 1e-9 relative.
   Infeasible: total overload equals the max-flow gap.  Returns whether the
   instance was feasible. *)
let check_transport_exact name p =
  let certified what a =
    match Transport.audit p a with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s certificate: %s" name what msg
  in
  let a =
    match Transport.solve p with Ok a -> a | Error e -> Alcotest.failf "%s: %s" name e
  in
  certified "solve" a;
  match Transport.solve_exact p with
  | Ok ex ->
    certified "solve_exact" ex;
    let worst = Transport.max_overflow p a in
    if worst > 1e-6 then Alcotest.failf "%s: overflow %g on a feasible instance" name worst;
    if Float.abs (a.cost -. ex.cost) > 1e-9 *. Float.max 1.0 ex.cost then
      Alcotest.failf "%s: cost %.17g, exact %.17g" name a.cost ex.cost;
    true
  | Error _ ->
    let over =
      Array.fold_left ( +. ) 0.0
        (Array.mapi (fun j l -> Float.max 0.0 (l -. p.capacities.(j))) a.load)
    and gap = maxflow_gap p in
    if Float.abs (over -. gap) > 1e-6 *. Float.max 1.0 gap then
      Alcotest.failf "%s: overload %.9g, max-flow gap %.9g" name over gap;
    false

(* Up to 300 cells and 13 sinks, ~10% inadmissible pairs (each cell keeps
   one admissible sink), integer costs so ties occur, and uneven capacities
   filled to 80-150% so some instances are infeasible. *)
let random_transport_instance rng =
  let module Rng = Fbp_util.Rng in
  let n = 1 + Rng.int rng 300 and k = 1 + Rng.int rng 13 in
  let sizes = Array.init n (fun _ -> Rng.range rng 0.5 4.0) in
  let costs =
    Array.init (n * k) (fun idx ->
        if idx mod k <> idx / k mod k && Rng.int rng 10 = 0 then infinity
        else float_of_int (Rng.int rng 21))
  in
  let weights = Array.init k (fun _ -> Rng.range rng 0.2 2.0) in
  let fill = Rng.range rng 0.8 1.5 *. Array.fold_left ( +. ) 0.0 sizes in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  mk_problem sizes
    (Array.map (fun w -> fill *. w /. wsum) weights)
    (fun i j -> costs.((i * k) + j))

(* The shape that once hung the budgeted predecessor solver: a dense QP
   cluster of 500 cells over 62 row segments (31 rows split at the
   cluster's center) of near-equal cost. *)
let dense_rows_instance () =
  let module Rng = Fbp_util.Rng in
  let rng = Rng.create 62 in
  let n = 500 and k = 62 in
  let x = Array.init n (fun _ -> Rng.range rng 45.0 55.0) in
  let y = Array.init n (fun _ -> Rng.range rng 28.0 34.0) in
  let sizes = Array.init n (fun _ -> float_of_int (1 + Rng.int rng 4)) in
  let cap = 1.02 *. Array.fold_left ( +. ) 0.0 sizes /. float_of_int k in
  let cost i j =
    let dx = if j mod 2 = 0 then Float.max 0.0 (x.(i) -. 50.0) else Float.max 0.0 (50.0 -. x.(i)) in
    dx +. Float.abs (y.(i) -. float_of_int (2 * (j / 2)))
  in
  mk_problem sizes (Array.make k cap) cost

let test_transport_exact () =
  let rng = Fbp_util.Rng.create 12345 in
  let feasible = ref 0 in
  for trial = 1 to 3000 do
    if check_transport_exact (Printf.sprintf "instance %d" trial) (random_transport_instance rng)
    then incr feasible
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both kinds drawn (%d of 3000 feasible)" !feasible)
    true
    (!feasible > 300 && !feasible < 2700);
  Alcotest.(check bool) "dense rows feasible" true
    (check_transport_exact "dense rows" (dense_rows_instance ()))

let prop_exact_transport_optimal =
  QCheck.Test.make ~name:"exact transport matches load bookkeeping" ~count:60
    (QCheck.make random_transport_problem)
    (fun (_n, k, sizes, caps, costs) ->
      let cost i j = costs.((i * k) + j) in
      let p = mk_problem sizes caps cost in
      match Transport.solve_exact p with
      | Error _ -> false
      | Ok a ->
        Transport.max_overflow p a <= 1e-6
        && Float.abs (Transport.total_cost p a.Transport.frac -. a.Transport.cost) < 1e-4)

let test_transport_round_integral () =
  let cost _ j = float_of_int j in
  let p = mk_problem [| 2.0; 1.0 |] [| 2.0; 2.0 |] cost in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    let assign = Transport.round_integral a in
    Array.iter (fun j -> Alcotest.(check bool) "sink valid" true (j >= 0 && j < 2)) assign

(* 300 cells and 10 sinks at seeded random points with L1 costs; every
   sink holds [factor] times an even share of the total size, so a smaller
   factor needs more augmenting paths. *)
let scattered_instance ~factor =
  let module Rng = Fbp_util.Rng in
  let rng = Rng.create 7 in
  let n = 300 and k = 10 in
  let point () = (Rng.range rng 0.0 100.0, Rng.range rng 0.0 100.0) in
  let cells = Array.init n (fun _ -> point ()) in
  let sinks = Array.init k (fun _ -> point ()) in
  let sizes = Array.init n (fun _ -> Rng.range rng 1.0 2.0) in
  let cap = factor *. Array.fold_left ( +. ) 0.0 sizes /. float_of_int k in
  mk_problem sizes (Array.make k cap) (fun i j ->
      let (cx, cy), (sx, sy) = (cells.(i), sinks.(j)) in
      Float.abs (cx -. sx) +. Float.abs (cy -. sy))

(* A solve allocates its set-up and its result, not a few hundred words per
   augmenting path: two warmed solves that differ only in capacity
   tightness allocate about the same beyond their results. *)
let test_transport_allocation_flat () =
  let module Obs = Fbp_obs.Obs in
  let run factor =
    let p = scattered_instance ~factor in
    Obs.reset ();
    Obs.enable ();
    ignore (Transport.solve p);
    Obs.disable ();
    let paths = int_of_float (Obs.histogram_values "transport.pivots").(0) in
    Obs.reset ();
    match Test_core.allocated_words (fun () -> Transport.solve p) with
    | Error e, _ -> Alcotest.fail e
    | Ok a, words -> (paths, words - Obj.reachable_words (Obj.repr a))
  in
  let n = 300 and k = 10 in
  let loose_paths, loose = run 1.42 and tight_paths, tight = run 1.184 in
  Alcotest.(check bool)
    (Printf.sprintf "tightness adds paths (%d vs %d)" loose_paths tight_paths)
    true
    (tight_paths >= loose_paths + 20);
  let per_path = (tight - loose) / (tight_paths - loose_paths) in
  if per_path > 100 then
    Alcotest.failf "%d more words per extra augmenting path (%d vs %d beyond the results)"
      per_path tight loose;
  if loose > 8 * n * k then
    Alcotest.failf "%d words beyond the result, above the %d-word set-up budget" loose
      (8 * n * k)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "graph arcs and twins" `Quick test_graph_arcs;
    Alcotest.test_case "graph iter_out" `Quick test_graph_iter_out;
    Alcotest.test_case "maxflow known" `Quick test_maxflow_known;
    Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
    qcheck prop_maxflow_equals_mincut;
    qcheck prop_maxflow_conservation;
    Alcotest.test_case "mcf known" `Quick test_mcf_known;
    Alcotest.test_case "mcf infeasible" `Quick test_mcf_infeasible;
    Alcotest.test_case "mcf demand slack" `Quick test_mcf_demand_slack;
    Alcotest.test_case "mcf rejects negative cost" `Quick test_mcf_rejects_negative_cost;
    qcheck prop_mcf_optimal_and_conserving;
    qcheck prop_mcf_general_optimal;
    qcheck prop_mcf_unrouted_is_maxflow_gap;
    Alcotest.test_case "transport simple" `Quick test_transport_simple;
    Alcotest.test_case "transport inadmissible" `Quick test_transport_inadmissible;
    Alcotest.test_case "transport fractional split" `Quick test_transport_fractional_split;
    qcheck prop_transport_respects_capacities;
    Alcotest.test_case "transport exact vs MCF (deterministic)" `Quick test_transport_exact;
    qcheck prop_exact_transport_optimal;
    Alcotest.test_case "transport round integral" `Quick test_transport_round_integral;
    Alcotest.test_case "transport allocation flat in paths" `Quick
      test_transport_allocation_flat;
  ]
