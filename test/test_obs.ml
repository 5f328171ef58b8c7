(* Tests for the observability subsystem: span nesting and balance, the
   disabled fast path, counters and histograms, trace/metrics JSON emission,
   the minimal JSON parser, and the trace validator.  Every test resets the
   global registry in a [finally] so state cannot leak across suites. *)

module Obs = Fbp_obs.Obs

let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      Obs.enable ();
      f ())

(* ---------- primitives ---------- *)

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  Obs.count "c";
  Obs.observe "h" 1.0;
  let r = Obs.span "s" (fun () -> 41 + 1) in
  Alcotest.(check int) "span still runs the body" 42 r;
  Alcotest.(check int) "no counter" 0 (Obs.counter_value "c");
  Alcotest.(check int) "no histogram" 0 (Array.length (Obs.histogram_values "h"));
  Alcotest.(check int) "no events" 0 (Obs.n_events ())

let test_disabled_args_not_evaluated () =
  Obs.reset ();
  Obs.disable ();
  let evaluated = ref false in
  ignore
    (Obs.span "s"
       ~args:(fun () ->
         evaluated := true;
         [ ("k", "v") ])
       (fun () -> ()));
  Alcotest.(check bool) "args thunk skipped when disabled" false !evaluated

let test_counters_and_histograms () =
  with_obs (fun () ->
      Obs.count "a";
      Obs.count ~n:4 "a";
      Obs.count "b";
      Obs.observe "h" 3.0;
      Obs.observe "h" 1.0;
      Alcotest.(check int) "counter accumulates" 5 (Obs.counter_value "a");
      Alcotest.(check int) "independent counter" 1 (Obs.counter_value "b");
      Alcotest.(check int) "untouched counter" 0 (Obs.counter_value "zzz");
      Alcotest.(check (array (float 0.0))) "recording order" [| 3.0; 1.0 |]
        (Obs.histogram_values "h"))

let test_span_balance_on_exception () =
  with_obs (fun () ->
      (try Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> failwith "x"))
       with Failure _ -> ());
      Alcotest.(check int) "2 B + 2 E even under exceptions" 4 (Obs.n_events ());
      match Obs.validate_trace (Obs.trace_json ()) with
      | Ok n -> Alcotest.(check int) "both spans balance" 2 n
      | Error e -> Alcotest.fail e)

let test_nested_spans_balance () =
  with_obs (fun () ->
      Obs.span "l1" (fun () ->
          Obs.span "l2" (fun () -> Obs.span "l3" (fun () -> ()));
          Obs.span "l2b" (fun () -> ()));
      match Obs.validate_trace (Obs.trace_json ()) with
      | Ok n -> Alcotest.(check int) "4 balanced pairs" 4 n
      | Error e -> Alcotest.fail e)

let test_parallel_spans_balance_per_domain () =
  with_obs (fun () ->
      (* probes fire concurrently from realization domains; the validator
         keeps one LIFO stack per tid so the interleaving must still pass *)
      Fbp_util.Pool.run_chunks ~domains:4 ~n_chunks:64 (fun _ ->
          Obs.span "work" (fun () -> ()));
      match Obs.validate_trace (Obs.trace_json ()) with
      | Ok n -> Alcotest.(check int) "all spans balance" 64 n
      | Error e -> Alcotest.fail e)

(* ---------- JSON emission ---------- *)

let test_metrics_json_shape () =
  with_obs (fun () ->
      Obs.count ~n:3 "cg.solves";
      Obs.observe "cg.iterations" 10.0;
      Obs.observe "cg.iterations" 20.0;
      let j = Obs.Json.to_string (Obs.metrics ()) in
      match Obs.Json.parse j with
      | Error e -> Alcotest.fail ("metrics must parse: " ^ e)
      | Ok doc ->
        (match Obs.Json.member "counters" doc with
         | Some (Obs.Json.Obj kvs) ->
           Alcotest.(check bool) "counter present" true
             (List.mem_assoc "cg.solves" kvs)
         | _ -> Alcotest.fail "counters object missing");
        (match Obs.Json.member "histograms" doc with
         | Some h ->
           (match Obs.Json.member "cg.iterations" h with
            | Some summary ->
              let num k =
                match Obs.Json.member k summary with
                | Some (Obs.Json.Num v) -> v
                | _ -> Alcotest.failf "summary field %s missing" k
              in
              Alcotest.(check (float 1e-9)) "count" 2.0 (num "count");
              Alcotest.(check (float 1e-9)) "mean" 15.0 (num "mean");
              Alcotest.(check (float 1e-9)) "p50" 15.0 (num "p50");
              Alcotest.(check (float 1e-9)) "max" 20.0 (num "max")
            | None -> Alcotest.fail "cg.iterations summary missing")
         | None -> Alcotest.fail "histograms object missing"))

(* The metrics print every float in full, so a summary parses back to the
   exact double observed; 0.1234567891 needs ten significant digits. *)
let test_metrics_floats_exact () =
  with_obs (fun () ->
      let v = 0.1234567891 in
      Obs.observe "h" v;
      let mf = Filename.temp_file "fbp_metrics" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove mf)
        (fun () ->
          Obs.write_metrics mf;
          let ic = open_in_bin mf in
          let doc = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Obs.Json.parse doc with
          | Error e -> Alcotest.fail ("metrics must parse: " ^ e)
          | Ok root ->
            let summary =
              Option.bind (Obs.Json.member "histograms" root) (Obs.Json.member "h")
            in
            List.iter
              (fun k ->
                match Option.bind summary (Obs.Json.member k) with
                | Some (Obs.Json.Num x) ->
                  Alcotest.(check bool) (k ^ " exact") true (Float.equal x v)
                | _ -> Alcotest.failf "summary field %s missing" k)
              [ "sum"; "mean"; "min"; "max"; "p50"; "p90"; "p99" ]))

let test_trace_json_escaping () =
  with_obs (fun () ->
      Obs.span "weird \"name\"\\with\tescapes"
        ~args:(fun () -> [ ("k", "line\nbreak") ])
        (fun () -> ());
      match Obs.validate_trace (Obs.trace_json ()) with
      | Ok n -> Alcotest.(check int) "escaped names still balance" 1 n
      | Error e -> Alcotest.fail ("escaping broke the document: " ^ e))

(* ---------- JSON parser ---------- *)

let test_json_parser_roundtrip () =
  let ok s =
    match Obs.Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%s: %s" s e
  in
  (match ok {|{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}|} with
   | Obs.Json.Obj kvs ->
     (match List.assoc "a" kvs with
      | Obs.Json.Arr [ Obs.Json.Num a; Obs.Json.Num b; Obs.Json.Num c ] ->
        Alcotest.(check (float 1e-9)) "int" 1.0 a;
        Alcotest.(check (float 1e-9)) "float" 2.5 b;
        Alcotest.(check (float 1e-9)) "exponent" (-300.0) c
      | _ -> Alcotest.fail "array shape");
     (match List.assoc "b" kvs with
      | Obs.Json.Str s -> Alcotest.(check string) "escape decoded" "x\ny" s
      | _ -> Alcotest.fail "string");
     Alcotest.(check bool) "bool" true (List.assoc "c" kvs = Obs.Json.Bool true);
     Alcotest.(check bool) "null" true (List.assoc "d" kvs = Obs.Json.Null)
   | _ -> Alcotest.fail "object");
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "must reject %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "12 34"; "\"unterminated"; "" ]

(* JSON has no nan or infinity: the writer prints them as null, so its
   output always parses back. *)
let test_json_non_finite_is_null () =
  List.iter
    (fun f ->
      let s = Obs.Json.to_string (Obs.Json.Arr [ Obs.Json.Num f ]) in
      match Obs.Json.parse s with
      | Ok (Obs.Json.Arr [ Obs.Json.Null ]) -> ()
      | Ok _ -> Alcotest.failf "%F printed as %s, not null" f s
      | Error e -> Alcotest.failf "%F printed as %s, which does not parse: %s" f s e)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_validator_rejects_imbalance () =
  let bad =
    {|{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},{"name":"b","ph":"E","ts":1,"pid":1,"tid":1}]}|}
  in
  (match Obs.validate_trace bad with
   | Ok _ -> Alcotest.fail "mismatched E name must be rejected"
   | Error _ -> ());
  let unclosed =
    {|{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}|}
  in
  match Obs.validate_trace unclosed with
  | Ok _ -> Alcotest.fail "unclosed span must be rejected"
  | Error _ -> ()

let test_write_files () =
  with_obs (fun () ->
      Obs.span "s" (fun () -> Obs.count "c");
      let tf = Filename.temp_file "fbp_trace" ".json" in
      let mf = Filename.temp_file "fbp_metrics" ".json" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove tf;
          Sys.remove mf)
        (fun () ->
          Obs.write_trace tf;
          Obs.write_metrics mf;
          (match Obs.validate_trace_file tf with
           | Ok n -> Alcotest.(check int) "file trace balances" 1 n
           | Error e -> Alcotest.fail e);
          let ic = open_in mf in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          match Obs.Json.parse s with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("metrics file must parse: " ^ e)))

let suite =
  [
    Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "disabled args not evaluated" `Quick
      test_disabled_args_not_evaluated;
    Alcotest.test_case "counters and histograms" `Quick test_counters_and_histograms;
    Alcotest.test_case "span balance on exception" `Quick test_span_balance_on_exception;
    Alcotest.test_case "nested spans balance" `Quick test_nested_spans_balance;
    Alcotest.test_case "parallel spans balance" `Quick
      test_parallel_spans_balance_per_domain;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "metrics floats exact" `Quick test_metrics_floats_exact;
    Alcotest.test_case "trace json escaping" `Quick test_trace_json_escaping;
    Alcotest.test_case "json parser roundtrip" `Quick test_json_parser_roundtrip;
    Alcotest.test_case "json non-finite is null" `Quick test_json_non_finite_is_null;
    Alcotest.test_case "validator rejects imbalance" `Quick
      test_validator_rejects_imbalance;
    Alcotest.test_case "write files" `Quick test_write_files;
  ]
