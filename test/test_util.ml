(* Tests for fbp_util: deterministic RNG, heap, union-find, stats, tables. *)

open Fbp_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 4)

let test_rng_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let s = Rng.split r in
  let x = Rng.next_int64 s in
  (* Splitting then advancing the parent must not affect the child stream. *)
  let r2 = Rng.create 5 in
  let s2 = Rng.split r2 in
  ignore (Rng.next_int64 r2);
  Alcotest.(check int64) "child unaffected by parent" x (Rng.next_int64 s2)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_pq_ordering () =
  let pq = Pq.create () in
  List.iter (fun k -> Pq.push pq k (int_of_float (k *. 10.))) [ 3.0; 1.0; 2.0; 0.5; 4.0 ];
  let keys = ref [] in
  let rec drain () =
    match Pq.pop pq with
    | None -> ()
    | Some (k, _) ->
      keys := k :: !keys;
      drain ()
  in
  drain ();
  Alcotest.(check (list (float 0.0))) "sorted" [ 4.0; 3.0; 2.0; 1.0; 0.5 ] !keys

let test_pq_clear () =
  let pq = Pq.create () in
  Pq.push pq 1.0 "a";
  Pq.clear pq;
  Alcotest.(check bool) "empty" true (Pq.is_empty pq);
  Alcotest.(check (option (pair (float 0.0) string))) "pop none" None (Pq.pop pq)

let prop_pq_heap_sort =
  QCheck.Test.make ~name:"pq pops keys in nondecreasing order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let pq = Pq.create () in
      List.iter (fun k -> Pq.push pq k ()) keys;
      let out = ref [] in
      let rec drain () =
        match Pq.pop pq with
        | None -> ()
        | Some (k, ()) ->
          out := k :: !out;
          drain ()
      in
      drain ();
      let out = List.rev !out in
      List.length out = List.length keys
      && out = List.sort compare keys)

let test_union_find () =
  let uf = Union_find.create 6 in
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Union_find.union uf 1 2;
  Alcotest.(check bool) "0~3" true (Union_find.same uf 0 3);
  Alcotest.(check bool) "0!~4" false (Union_find.same uf 0 4);
  let groups, n = Union_find.groups uf in
  Alcotest.(check int) "3 groups" 3 n;
  Alcotest.(check int) "0 and 3 same group" groups.(0) groups.(3);
  Alcotest.(check bool) "4 and 5 differ" true (groups.(4) <> groups.(5))

let prop_union_find_transitive =
  QCheck.Test.make ~name:"union-find equivalence is transitive" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
      (* find is idempotent and consistent with same *)
      let ok = ref true in
      for i = 0 to 19 do
        for j = 0 to 19 do
          let same = Union_find.same uf i j in
          let find_eq = Union_find.find uf i = Union_find.find uf j in
          if same <> find_eq then ok := false
        done
      done;
      !ok)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  check_float "sum" 10.0 (Stats.sum a);
  let lo, hi = Stats.min_max a in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi;
  check_float "median" 2.5 (Stats.percentile a 0.5);
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p100" 4.0 (Stats.percentile a 1.0)

let test_stats_edge_cases () =
  let a = [| 3.0; 1.0; 2.0 |] in
  (* out-of-range p used to index out of bounds; now clamps to [0, 1] *)
  check_float "p < 0 clamps to min" 1.0 (Stats.percentile a (-0.5));
  check_float "p > 1 clamps to max" 3.0 (Stats.percentile a 2.0);
  (* NaN sorts arbitrarily under polymorphic compare and poisons min/max;
     both functions must reject it outright *)
  let nan_data = [| 1.0; Float.nan; 2.0 |] in
  Alcotest.check_raises "percentile rejects NaN data"
    (Invalid_argument "Stats.percentile: NaN input") (fun () ->
      ignore (Stats.percentile nan_data 0.5));
  Alcotest.check_raises "percentile rejects NaN p"
    (Invalid_argument "Stats.percentile: NaN p") (fun () ->
      ignore (Stats.percentile a Float.nan));
  Alcotest.check_raises "min_max rejects NaN"
    (Invalid_argument "Stats.min_max: NaN input") (fun () ->
      ignore (Stats.min_max nan_data))

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 4.0 |]);
  check_float "geomean of equal" 3.0 (Stats.geomean [| 3.0; 3.0; 3.0 |])

let test_stats_stddev () =
  check_float "stddev" (sqrt (14.0 /. 3.0)) (Stats.stddev [| 1.0; 2.0; 3.0; 6.0 |]);
  check_float "single value" 0.0 (Stats.stddev [| 5.0 |])

let test_duration () =
  Alcotest.(check string) "hms" "1:02:03" (Duration.to_hms 3723.4);
  Alcotest.(check string) "zero" "0:00:00" (Duration.to_hms 0.0);
  Alcotest.(check string) "negative clamped" "0:00:00" (Duration.to_hms (-5.0));
  Alcotest.(check string) "sub-second" "0.500s" (Duration.pretty 0.5)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] ~aligns:[ Table.Left; Table.Right ] () in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains row" true (contains_sub s "yy")

let test_table_mismatch () =
  let t = Table.create ~title:"T" ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "row arity" (Invalid_argument "Table.add_row: wrong number of columns")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_formatters () =
  Alcotest.(check string) "pct" "99.3%" (Table.fmt_pct 0.993);
  Alcotest.(check string) "k (sub-million)" "857k" (Table.fmt_k 857123);
  Alcotest.(check string) "small" "42" (Table.fmt_k 42);
  Alcotest.(check string) "M" "9.3M" (Table.fmt_k 9316938)

(* [Array.map] over the pool's deterministic chunking: each chunk writes
   only its own slice of [out]. *)
let pool_map ~domains f a =
  let n = Array.length a in
  let out = Array.make n 0 in
  let n_chunks = Pool.n_chunks ~grain:64 n in
  Pool.run_chunks ~domains ~n_chunks (fun c ->
      let lo, hi = Pool.chunk_bounds ~n ~n_chunks c in
      for i = lo to hi - 1 do
        out.(i) <- f a.(i)
      done);
  out

let test_parallel_map_matches_sequential () =
  let a = Array.init 1000 (fun i -> i) in
  let f i = (i * i) + 1 in
  let seq = Array.map f a in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d) seq
        (pool_map ~domains:d f a))
    [ 1; 2; 3; 8 ]

let test_parallel_empty_and_small () =
  Alcotest.(check (array int)) "empty" [||] (pool_map ~domains:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 7 |]
    (pool_map ~domains:4 (fun x -> x + 1) [| 6 |])

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "pq ordering" `Quick test_pq_ordering;
    Alcotest.test_case "pq clear" `Quick test_pq_clear;
    Prop.qcheck prop_pq_heap_sort;
    Alcotest.test_case "union-find basic" `Quick test_union_find;
    Prop.qcheck prop_union_find_transitive;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats edge cases" `Quick test_stats_edge_cases;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "duration formatting" `Quick test_duration;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity check" `Quick test_table_mismatch;
    Alcotest.test_case "table formatters" `Quick test_table_formatters;
    Alcotest.test_case "parallel map = sequential" `Quick test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel edge cases" `Quick test_parallel_empty_and_small;
  ]
