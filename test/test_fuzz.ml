(* Tests for the property-based scenario fuzzer: generator determinism,
   scenario/repro JSON round-trips, single-run classification, global-state
   hygiene, the shrinker, fault-matrix termination, and campaign-level
   reproducibility.  Scenario counts are kept small — the seed-pinned CI
   smoke and the 1000-run acceptance campaign cover scale. *)

module Fuzz = Fbp_workloads.Fuzz
module Shrink = Fbp_resilience.Shrink
module Inject = Fbp_resilience.Inject
module Sanitize = Fbp_resilience.Sanitize
module Err = Fbp_resilience.Fbp_error
module Rng = Fbp_util.Rng

let gen_n seed n =
  let rng = Rng.create seed in
  List.init n (fun i -> Fuzz.gen_scenario rng ~seed:(1000 + i))

(* ---------- generation ---------- *)

let test_gen_deterministic () =
  let a = gen_n 7 50 and b = gen_n 7 50 in
  List.iter2
    (fun sa sb ->
      Alcotest.(check string) "same stream, same scenario"
        (Fuzz.scenario_to_json sa) (Fuzz.scenario_to_json sb))
    a b;
  let c = gen_n 8 50 in
  Alcotest.(check bool) "different seed, different stream" true
    (List.exists2
       (fun sa sc ->
         not (String.equal (Fuzz.scenario_to_json sa) (Fuzz.scenario_to_json sc)))
       a c)

let test_gen_covers_the_zoo () =
  let zoo = gen_n 42 300 in
  let some p ctx = Alcotest.(check bool) ctx true (List.exists p zoo) in
  some (fun s -> s.Fuzz.n_macros >= 2) "macro-heavy floorplans";
  some (fun s -> s.Fuzz.utilization > 0.85) "near-full utilization";
  some (fun s -> s.Fuzz.max_levels = 1) "degenerate single-level grids";
  some
    (fun s -> match s.Fuzz.mb_shape with Fuzz.Overlapping -> true | _ -> false)
    "overlapping movebounds";
  some
    (fun s -> match s.Fuzz.mb_shape with Fuzz.Mixed -> true | _ -> false)
    "inclusive+exclusive mixes";
  some (fun s -> s.Fuzz.exclusive) "exclusive movebounds";
  some (fun s -> s.Fuzz.round_trip) "bookshelf round-trips";
  some (fun s -> Option.is_some s.Fuzz.fault) "injected faults";
  some (fun s -> Option.is_none s.Fuzz.fault) "clean scenarios"

let test_with_fault_forces_preconditions () =
  let s = List.hd (gen_n 3 1) in
  let p = Fuzz.with_fault s (Fuzz.Parse, Fuzz.Corrupt) in
  Alcotest.(check bool) "parse fault forces round-trip" true p.Fuzz.round_trip;
  let d = Fuzz.with_fault { s with Fuzz.deadline = None } (Fuzz.Level, Fuzz.Delay) in
  Alcotest.(check bool) "delay fault forces a deadline" true
    (Option.is_some d.Fuzz.deadline)

(* ---------- serialization ---------- *)

let test_scenario_json_round_trip () =
  List.iter
    (fun s ->
      match Fuzz.scenario_of_json (Fuzz.scenario_to_json s) with
      | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
      | Ok s2 ->
        Alcotest.(check string) "identical after round-trip"
          (Fuzz.scenario_to_json s) (Fuzz.scenario_to_json s2))
    (gen_n 11 40)

(* Committed repro files must keep replaying: the exact bytes of a
   scenario that carries a fault and a deadline are pinned. *)
let test_scenario_json_bytes_pinned () =
  let s =
    {
      Fuzz.seed = 1_000_042;
      n_cells = 240;
      utilization = 0.85;
      n_macros = 2;
      macro_fraction = 0.125;
      avg_net_degree = 3.4;
      locality = 0.7;
      mb_shape = Fuzz.Mixed;
      n_movebounds = 3;
      coverage = 0.4;
      mb_density = 0.9;
      exclusive = false;
      max_levels = 1;
      strict = true;
      deadline = Some 0.25;
      round_trip = true;
      fault = Some { Fuzz.site = Fuzz.Transport; kind = Fuzz.Delay; fault_after = 2 };
    }
  in
  Alcotest.(check string) "scenario bytes"
    ({|{"seed":1000042,"n_cells":240,"utilization":0.84999999999999998,|}
     ^ {|"n_macros":2,"macro_fraction":0.125,"avg_net_degree":3.3999999999999999,|}
     ^ {|"locality":0.69999999999999996,"mb_shape":"mixed","n_movebounds":3,|}
     ^ {|"coverage":0.40000000000000002,"mb_density":0.90000000000000002,|}
     ^ {|"exclusive":false,"max_levels":1,"strict":true,"deadline":0.25,|}
     ^ {|"round_trip":true,"fault":{"site":"transport","kind":"delay","after":2}}|})
    (Fuzz.scenario_to_json s)

let test_scenario_json_rejects_garbage () =
  (match Fuzz.scenario_of_json "{" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated JSON accepted");
  match Fuzz.scenario_of_json {|{"seed": 1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete scenario accepted"

let test_repro_round_trip () =
  let s = List.hd (gen_n 5 1) in
  let shrunk = { s with Fuzz.n_cells = 16 } in
  let f =
    {
      Fuzz.original = s;
      shrunk;
      signature = "invariant: \"quoted\"\nsecond line";
      detail = "typed:internal";
      shrink_steps = 3;
      artifacts = [];
    }
  in
  match Fuzz.repro_of_json (Fuzz.repro_to_json f) with
  | Error msg -> Alcotest.fail ("repro parse failed: " ^ msg)
  | Ok s2 ->
    Alcotest.(check string) "replay scenario is the shrunk one"
      (Fuzz.scenario_to_json shrunk) (Fuzz.scenario_to_json s2)

let test_repro_rejects_wrong_schema () =
  match Fuzz.repro_of_json {|{"schema":"other","scenario":{}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted"

(* ---------- single runs ---------- *)

let small_clean () =
  let s = List.hd (gen_n 21 1) in
  {
    s with
    Fuzz.n_cells = 60;
    mb_shape = Fuzz.No_movebounds;
    n_movebounds = 0;
    utilization = 0.6;
    n_macros = 0;
    max_levels = 2;
    strict = false;
    deadline = None;
    round_trip = false;
    fault = None;
  }

let test_clean_run_passes () =
  let rr = Fuzz.run_scenario (small_clean ()) in
  (match rr.Fuzz.outcome with
  | Fuzz.Passed -> ()
  | o -> Alcotest.fail ("clean scenario must pass: " ^ Fuzz.outcome_label o));
  Alcotest.(check bool) "no fault fired" false rr.Fuzz.fault_fired

let test_run_deterministic () =
  let s = { (small_clean ()) with Fuzz.round_trip = true } in
  let a = Fuzz.run_scenario s and b = Fuzz.run_scenario s in
  Alcotest.(check string) "same outcome"
    (Fuzz.outcome_label a.Fuzz.outcome)
    (Fuzz.outcome_label b.Fuzz.outcome)

let test_run_restores_global_state () =
  let was_sanitize = Sanitize.enabled () in
  ignore (Fuzz.run_scenario (small_clean ()));
  Alcotest.(check bool) "sanitize flag restored" was_sanitize
    (Sanitize.enabled ());
  Alcotest.(check bool) "injection registry disarmed" false (Inject.active ());
  let s =
    {
      (small_clean ()) with
      Fuzz.fault = Some { Fuzz.site = Fuzz.Mcf; kind = Fuzz.Raise; fault_after = 0 };
    }
  in
  ignore (Fuzz.run_scenario s);
  Alcotest.(check bool) "registry disarmed after a fault run" false
    (Inject.active ())

let test_corruption_is_a_caught_control () =
  let s =
    {
      (small_clean ()) with
      Fuzz.fault =
        Some { Fuzz.site = Fuzz.Mcf; kind = Fuzz.Corrupt; fault_after = 0 };
    }
  in
  let rr = Fuzz.run_scenario s in
  Alcotest.(check bool) "fault fired" true rr.Fuzz.fault_fired;
  match rr.Fuzz.outcome with
  | Fuzz.Typed (Err.Sanitizer_violation { site; _ }) ->
    Alcotest.(check string) "caught at the mcf site" "mcf.solve" site
  | o -> Alcotest.fail ("expected a sanitizer catch: " ^ Fuzz.outcome_label o)

let test_fault_matrix_terminates_typed () =
  Alcotest.(check int) "all documented cells present" 13
    (List.length Fuzz.matrix_cells);
  let base = small_clean () in
  List.iter
    (fun cell ->
      let s = Fuzz.with_fault base cell in
      let rr = Fuzz.run_scenario s in
      match rr.Fuzz.outcome with
      | Fuzz.Uncaught msg ->
        Alcotest.fail
          (Printf.sprintf "cell %s escaped untyped: %s"
             (Fuzz.scenario_to_json s) msg)
      | Fuzz.Invariant msg ->
        Alcotest.fail
          (Printf.sprintf "cell %s broke an invariant: %s"
             (Fuzz.scenario_to_json s) msg)
      | Fuzz.Passed | Fuzz.Typed _ -> ())
    Fuzz.matrix_cells

(* ---------- the shrinker ---------- *)

let test_shrink_minimizes () =
  (* failing predicate: n >= 17; candidates halve — the greedy walk must
     stop exactly at the smallest failing value reachable by halving *)
  let o =
    Shrink.minimize
      ~steps:(fun n -> if n > 1 then [ n / 2; n - 1 ] else [])
      ~still_fails:(fun n -> n >= 17)
      100
  in
  Alcotest.(check int) "fully shrunk" 17 o.Shrink.value;
  Alcotest.(check bool) "steps counted" true (o.Shrink.shrink_steps > 0)

let test_shrink_respects_budget () =
  let evals = ref 0 in
  let o =
    Shrink.minimize ~max_attempts:5
      ~steps:(fun n -> [ n - 1 ])
      ~still_fails:(fun _ ->
        incr evals;
        true)
      1000
  in
  Alcotest.(check int) "stopped at the budget" 5 !evals;
  Alcotest.(check int) "partial result returned" 995 o.Shrink.value

let test_shrink_keeps_failure () =
  (* shrinking a real fuzz finding preserves its signature end to end *)
  let s =
    {
      (small_clean ()) with
      Fuzz.n_cells = 120;
      max_levels = 3;
      Fuzz.fault =
        Some { Fuzz.site = Fuzz.Transport; kind = Fuzz.Corrupt; fault_after = 0 };
    }
  in
  let fails s' =
    match (Fuzz.run_scenario s').Fuzz.outcome with
    | Fuzz.Typed (Err.Sanitizer_violation { site; _ }) ->
      String.equal site "transport.solve"
    | _ -> false
  in
  Alcotest.(check bool) "original fails" true (fails s);
  let o =
    Shrink.minimize ~max_attempts:32
      ~steps:(fun s' ->
        if s'.Fuzz.n_cells > 16 then
          [ { s' with Fuzz.n_cells = s'.Fuzz.n_cells / 2 } ]
        else [])
      ~still_fails:fails s
  in
  Alcotest.(check bool) "shrunk and still failing" true
    (o.Shrink.value.Fuzz.n_cells < 120 && fails o.Shrink.value)

(* ---------- campaigns ---------- *)

let test_campaign_reproducible () =
  let a = Fuzz.run ~seed:77 ~count:12 () in
  let b = Fuzz.run ~seed:77 ~count:12 () in
  Alcotest.(check int) "same digest" a.Fuzz.digest b.Fuzz.digest;
  Alcotest.(check string) "byte-identical report" (Fuzz.render_report a)
    (Fuzz.render_report b);
  Alcotest.(check int) "all scenarios ran" 12 a.Fuzz.total_scenarios;
  Alcotest.(check (list string)) "no unshrunk failures" []
    (List.map (fun f -> f.Fuzz.signature) a.Fuzz.failures)

let test_campaign_writes_replayable_artifacts () =
  (* find a corruption control deterministically and check the artifact it
     writes replays to the same signature *)
  let dir = Filename.temp_file "fbp-fuzz-out" "" in
  Sys.remove dir;
  let r = Fuzz.run ~matrix:true ~out_dir:dir ~seed:3 ~count:2 () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Alcotest.(check bool) "matrix campaign caught controls" true
        (r.Fuzz.n_controls > 0);
      match r.Fuzz.controls with
      | [] -> Alcotest.fail "no control artifacts kept"
      | f :: _ ->
        let repro =
          List.find
            (fun p -> Filename.check_suffix p ".json" && String.length p > 0)
            f.Fuzz.artifacts
        in
        let ic = open_in_bin repro in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (match Fuzz.repro_of_json text with
        | Error msg -> Alcotest.fail ("artifact must parse: " ^ msg)
        | Ok s ->
          let rr = Fuzz.run_scenario s in
          Alcotest.(check string) "replay reproduces the control signature"
            f.Fuzz.detail
            (Fuzz.outcome_label rr.Fuzz.outcome)))

let test_campaign_time_cap_truncates () =
  let r = Fuzz.run ~time_cap:0.0 ~seed:9 ~count:50 () in
  Alcotest.(check bool) "marked truncated" true r.Fuzz.truncated;
  Alcotest.(check bool) "stopped early" true (r.Fuzz.total_scenarios < 50)

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "generator covers the zoo" `Quick test_gen_covers_the_zoo;
    Alcotest.test_case "with_fault forces preconditions" `Quick
      test_with_fault_forces_preconditions;
    Alcotest.test_case "scenario json round-trip" `Quick
      test_scenario_json_round_trip;
    Alcotest.test_case "scenario json bytes pinned" `Quick
      test_scenario_json_bytes_pinned;
    Alcotest.test_case "scenario json rejects garbage" `Quick
      test_scenario_json_rejects_garbage;
    Alcotest.test_case "repro round-trip" `Quick test_repro_round_trip;
    Alcotest.test_case "repro rejects wrong schema" `Quick
      test_repro_rejects_wrong_schema;
    Alcotest.test_case "clean run passes" `Quick test_clean_run_passes;
    Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
    Alcotest.test_case "run restores global state" `Quick
      test_run_restores_global_state;
    Alcotest.test_case "corruption caught as control" `Quick
      test_corruption_is_a_caught_control;
    Alcotest.test_case "fault matrix terminates typed" `Quick
      test_fault_matrix_terminates_typed;
    Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
    Alcotest.test_case "shrink respects budget" `Quick test_shrink_respects_budget;
    Alcotest.test_case "shrink keeps failure" `Quick test_shrink_keeps_failure;
    Alcotest.test_case "campaign reproducible" `Quick test_campaign_reproducible;
    Alcotest.test_case "campaign artifacts replay" `Quick
      test_campaign_writes_replayable_artifacts;
    Alcotest.test_case "campaign time cap" `Quick test_campaign_time_cap_truncates;
  ]
