(* Tests for the quality flight recorder: JSON schema round-trip (exact,
   including non-finite floats), schema/version rejection, the diff-record
   regression gate, the HTML report renderer, metrics validation, and the
   GC sampling hooks — plus one end-to-end placer run with the recorder
   armed.  Every test resets the global recorder in a [finally]. *)

module R = Fbp_obs.Recorder
module Obs = Fbp_obs.Obs

let with_recorder f =
  Fun.protect
    ~finally:(fun () ->
      R.disable ();
      R.reset ();
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      R.reset ();
      R.enable ();
      f ())

(* ---------- fixtures ---------- *)

let gc1 =
  {
    R.minor_words = 1234.0;
    major_words = 56.5;
    major_collections = 2;
    compactions = 0;
    heap_words = 262144;
  }

let level_fixture ?(hpwl = 8250.75) ?(mb_violations = 3) ?(mcf_cost = 991.25)
    ~level () =
  {
    R.level;
    nx = 1 lsl level;
    ny = 1 lsl level;
    n_windows = 4 * level;
    n_pieces = 7 * level;
    flow_nodes = 68;
    flow_edges = 276;
    hpwl;
    density_overflow = 0.0125;
    mb_violations;
    cg_iterations = 59;
    cg_residual = 8.32e-06;
    cg_converged = true;
    mcf_cost;
    mcf_rounds = 29;
    waves = 4;
    shipped_cells = 379;
    fallback_cells = 0;
    qp_time = 0.003;
    flow_time = 0.0015;
    realization_time = 0.0056;
    gc = gc1;
  }

let record_fixture ?(hpwl = 8084.5) ?(violations = 0) ?(legal = true)
    ?(total_time = 0.0464) () =
  {
    R.version = R.schema_version;
    provenance =
      {
        R.design = "smoke.book";
        cells = 400;
        nets = 466;
        movebounds = 2;
        seed = Some 7;
        tool = "fbp";
        config = [ ("domains", "1"); ("strict", "false") ];
        host = None;
      };
    levels =
      [
        level_fixture ~level:1 ~hpwl:8474.17 ();
        (* an infeasible-verdict level carries [nan] for the flow cost;
           the round-trip must preserve it (JSON null <-> nan) *)
        level_fixture ~level:2 ~hpwl:(hpwl +. 10.0) ~mcf_cost:Float.nan ();
      ];
    legalization =
      Some
        {
          R.leg_hpwl = hpwl;
          leg_density_overflow = 0.0129;
          leg_mb_violations = violations;
          leg_time = 0.0003;
          spilled = 5;
          failed = 0;
          avg_displacement = 3.51;
          max_displacement = 26.45;
        };
    density =
      Some
        {
          R.dnx = 2;
          dny = 2;
          usage = [| 0.5; 0.25; 0.0; 1.75 |];
          capacity = [| 1.0; 1.0; 0.0; 1.0 |];
        };
    totals =
      Some
        {
          R.hpwl;
          global_time = 0.046;
          legalize_time = 0.0004;
          total_time;
          legal;
          violations;
        };
    metrics = None;
    profile = None;
  }

(* ---------- schema round-trip ---------- *)

let test_roundtrip () =
  let r = record_fixture () in
  match R.of_json (R.to_json r) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok r' ->
    Alcotest.(check bool) "field-by-field equal" true (R.equal r r');
    (* spot-check the awkward values explicitly *)
    let l2 = List.nth r'.R.levels 1 in
    Alcotest.(check bool) "nan mcf_cost survives" true (Float.is_nan l2.R.mcf_cost);
    Alcotest.(check (option int)) "seed survives" (Some 7)
      r'.R.provenance.R.seed;
    (match r'.R.density with
     | None -> Alcotest.fail "density dropped"
     | Some d ->
       Alcotest.(check (array (float 0.0))) "usage exact"
         [| 0.5; 0.25; 0.0; 1.75 |] d.R.usage)

let test_roundtrip_with_metrics () =
  with_recorder (fun () ->
      Obs.reset ();
      Obs.enable ();
      Obs.count ~n:3 "cg.solves";
      Obs.observe "cg.iterations" 12.0;
      let m =
        match Obs.Json.parse (Obs.metrics_json ()) with
        | Ok m -> m
        | Error e -> Alcotest.failf "metrics_json unparseable: %s" e
      in
      let r = { (record_fixture ()) with R.metrics = Some m } in
      match R.of_json (R.to_json r) with
      | Error e -> Alcotest.failf "round-trip parse failed: %s" e
      | Ok r' -> Alcotest.(check bool) "equal incl. metrics" true (R.equal r r'))

let test_rejects_bad_documents () =
  (match R.of_json "{\"schema\":\"not-a-run-record\",\"version\":1}" with
   | Ok _ -> Alcotest.fail "accepted wrong schema name"
   | Error _ -> ());
  (match
     R.of_json
       (Printf.sprintf "{\"schema\":\"fbp-run-record\",\"version\":%d}"
          (R.schema_version + 1))
   with
   | Ok _ -> Alcotest.fail "accepted a future version"
   | Error _ -> ());
  match R.of_json "{not json" with
  | Ok _ -> Alcotest.fail "accepted junk"
  | Error _ -> ()

let test_file_roundtrip () =
  let path = Filename.temp_file "fbp_record" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = record_fixture () in
      R.write_file path r;
      match R.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok r' -> Alcotest.(check bool) "file round-trip" true (R.equal r r'))

(* ---------- diff-record gate ---------- *)

let regressed_metrics c = List.map (fun g -> g.R.metric) c.R.regressions

let test_diff_self_clean () =
  let r = record_fixture () in
  let c = R.diff ~max_hpwl_regress:0.02 ~max_time_regress:0.25 ~base:r ~cand:r () in
  Alcotest.(check (list string)) "no regressions vs self" [] (regressed_metrics c);
  Alcotest.(check bool) "prints comparison lines" true (c.R.lines <> [])

let test_diff_hpwl_regression () =
  let base = record_fixture ~hpwl:8000.0 () in
  let cand = record_fixture ~hpwl:(8000.0 *. 1.05) () in
  let c =
    R.diff ~max_hpwl_regress:0.02 ~max_time_regress:0.25 ~base ~cand ()
  in
  Alcotest.(check (list string)) "hpwl gated" [ "hpwl" ] (regressed_metrics c);
  (* the same 5% bump passes with a 10% budget *)
  let c' = R.diff ~max_hpwl_regress:0.10 ~max_time_regress:0.25 ~base ~cand () in
  Alcotest.(check (list string)) "within budget" [] (regressed_metrics c')

let test_diff_improvement_never_regresses () =
  let base = record_fixture ~hpwl:8000.0 ~total_time:1.0 () in
  let cand = record_fixture ~hpwl:6000.0 ~total_time:0.2 () in
  let c = R.diff ~max_hpwl_regress:0.0 ~max_time_regress:0.0 ~base ~cand () in
  Alcotest.(check (list string)) "improvement passes zero budget" []
    (regressed_metrics c)

let test_diff_violations_and_legality () =
  let base = record_fixture ~violations:0 ~legal:true () in
  let cand = record_fixture ~violations:4 ~legal:false () in
  let c = R.diff ~max_hpwl_regress:0.5 ~max_time_regress:5.0 ~base ~cand () in
  let metrics = regressed_metrics c in
  Alcotest.(check bool) "violation increase gated" true
    (List.mem "violations" metrics);
  Alcotest.(check bool) "legal->illegal gated" true (List.mem "legal" metrics)

(* ---------- HTML report ---------- *)

let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_report_smoke () =
  let r = record_fixture () in
  let html = Fbp_viz.Report.render r in
  Alcotest.(check bool) "has svg" true (count_substring html "<svg" > 0);
  Alcotest.(check bool) "has convergence chart" true
    (count_substring html "id=\"convergence\"" = 1);
  Alcotest.(check bool) "has density heatmap" true
    (count_substring html "id=\"density-heatmap\"" = 1);
  Alcotest.(check int) "one table row per level" (List.length r.R.levels)
    (count_substring html "class=\"level-row\"");
  (* provenance strings are escaped before being interpolated *)
  let evil =
    { r with
      R.provenance =
        { r.R.provenance with R.design = "<script>alert(1)</script>" } }
  in
  let html' = Fbp_viz.Report.render evil in
  Alcotest.(check int) "html-escapes provenance" 0
    (count_substring html' "<script>alert(1)</script>")

(* ---------- metrics validation + GC sampling ---------- *)

let test_validate_metrics () =
  (match Obs.validate_metrics "{\"counters\":{},\"histograms\":{}}" with
   | Ok n -> Alcotest.(check int) "empty doc is valid" 0 n
   | Error e -> Alcotest.failf "empty doc rejected: %s" e);
  (match
     Obs.validate_metrics
       "{\"counters\":{\"a\":1,\"b\":2},\"histograms\":{\"h\":{\"count\":0}}}"
   with
   | Ok n -> Alcotest.(check int) "counts metrics" 3 n
   | Error _ -> Alcotest.fail "valid doc rejected");
  (match
     Obs.validate_metrics "{\"counters\":{\"a\":1.5},\"histograms\":{}}"
   with
   | Ok _ -> Alcotest.fail "accepted fractional counter"
   | Error _ -> ());
  (match
     Obs.validate_metrics "{\"counters\":{\"b\":1,\"a\":2},\"histograms\":{}}"
   with
   | Ok _ -> Alcotest.fail "accepted unsorted keys"
   | Error _ -> ());
  match
    Obs.validate_metrics
      "{\"counters\":{},\"histograms\":{\"h\":{\"count\":3,\"sum\":6}}}"
  with
  | Ok _ -> Alcotest.fail "accepted summary without percentiles"
  | Error _ -> ()

let test_sample_gc () =
  with_recorder (fun () ->
      Obs.reset ();
      Obs.enable ();
      Obs.sample_gc ();
      ignore (Sys.opaque_identity (Array.make 100_000 0.0));
      Obs.sample_gc ();
      Alcotest.(check bool) "gc.major_collections counter present" true
        (Obs.counter_value "gc.major_collections" >= 0);
      Alcotest.(check int) "heap sampled at each boundary" 2
        (Array.length (Obs.histogram_values "gc.heap_words"));
      (* the emitted document must satisfy its own validator *)
      match Obs.validate_metrics (Obs.metrics_json ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "metrics_json fails validation: %s" e)

let test_gc_boundary_accumulates () =
  with_recorder (fun () ->
      let _first = R.gc_boundary () in
      (* small boxed values land in the minor heap, whose allocation count
         quick_stat tracks exactly (large arrays go straight to the major
         heap and are only counted at the next slice) *)
      ignore (Sys.opaque_identity (List.init 10_000 float_of_int));
      let d = R.gc_boundary () in
      Alcotest.(check bool) "allocation observed between boundaries" true
        (d.R.minor_words > 0.0 || d.R.major_words > 0.0);
      Alcotest.(check bool) "heap size is absolute" true (d.R.heap_words > 0))

let test_disabled_recorder_is_empty () =
  R.disable ();
  R.reset ();
  R.record_level (level_fixture ~level:1 ());
  R.set_totals
    {
      R.hpwl = 1.0;
      global_time = 0.0;
      legalize_time = 0.0;
      total_time = 0.0;
      legal = true;
      violations = 0;
    };
  let r = R.current () in
  Alcotest.(check int) "no levels recorded while disabled" 0
    (List.length r.R.levels);
  Alcotest.(check bool) "no totals recorded while disabled" true
    (r.R.totals = None)

(* ---------- end-to-end ---------- *)

let test_end_to_end_placer_run () =
  with_recorder (fun () ->
      Obs.reset ();
      Obs.enable ();
      let d = Fbp_netlist.Generator.quick ~seed:11 ~name:"rec_e2e" 300 in
      let inst = Fbp_movebound.Instance.unconstrained d in
      match Fbp_workloads.Runner.run_fbp inst with
      | Error e ->
        Alcotest.failf "placer failed: %s" (Fbp_resilience.Fbp_error.to_string e)
      | Ok m ->
        let r = R.current () in
        Alcotest.(check bool) "levels recorded" true (r.R.levels <> []);
        List.iter
          (fun (l : R.level) ->
            Alcotest.(check bool) "level hpwl positive" true (l.R.hpwl > 0.0);
            Alcotest.(check bool) "grid sane" true (l.R.nx > 0 && l.R.ny > 0))
          r.R.levels;
        (match r.R.legalization with
         | None -> Alcotest.fail "legalization snapshot missing"
         | Some lg ->
           Alcotest.(check (float 1e-9)) "legalized hpwl matches runner"
             m.Fbp_workloads.Runner.hpwl lg.R.leg_hpwl);
        (match r.R.totals with
         | None -> Alcotest.fail "totals missing"
         | Some t ->
           Alcotest.(check (float 1e-9)) "total hpwl matches runner"
             m.Fbp_workloads.Runner.hpwl t.R.hpwl;
           Alcotest.(check int) "violations match" m.Fbp_workloads.Runner.violations
             t.R.violations);
        (match r.R.density with
         | None -> Alcotest.fail "density map missing"
         | Some dm ->
           Alcotest.(check int) "density array sized nx*ny"
             (dm.R.dnx * dm.R.dny)
             (Array.length dm.R.usage));
        (* and the whole record survives serialization *)
        (match R.of_json (R.to_json r) with
         | Error e -> Alcotest.failf "e2e record does not round-trip: %s" e
         | Ok r' -> Alcotest.(check bool) "e2e round-trip" true (R.equal r r'));
        (* the report renders from a real record, one row per level *)
        let html = Fbp_viz.Report.render r in
        Alcotest.(check int) "report rows = levels" (List.length r.R.levels)
          (count_substring html "class=\"level-row\""))

(* The host section records the budget the run's regions used:
   [Config.effective_domains], so a request above the core count under
   [hw_clamp] records the core count. *)
let test_host_records_effective_domains () =
  with_recorder (fun () ->
      let d = Fbp_netlist.Generator.quick ~seed:11 ~name:"rec_host" 200 in
      let inst = Fbp_movebound.Instance.unconstrained d in
      let hw = Fbp_util.Pool.hardware_domains in
      let config =
        { Fbp_core.Config.default with domains = hw + 1; hw_clamp = true }
      in
      match Fbp_workloads.Runner.run_fbp ~config inst with
      | Error e ->
        Alcotest.failf "placer failed: %s" (Fbp_resilience.Fbp_error.to_string e)
      | Ok _ -> (
        match (R.current ()).R.provenance.R.host with
        | None -> Alcotest.fail "host section missing"
        | Some h ->
          Alcotest.(check int) "eff_domains is the clamped budget" hw
            h.R.eff_domains))

let suite =
  [
    Alcotest.test_case "json round-trip exact" `Quick test_roundtrip;
    Alcotest.test_case "round-trip with metrics" `Quick test_roundtrip_with_metrics;
    Alcotest.test_case "rejects bad documents" `Quick test_rejects_bad_documents;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "diff: self is clean" `Quick test_diff_self_clean;
    Alcotest.test_case "diff: hpwl gate" `Quick test_diff_hpwl_regression;
    Alcotest.test_case "diff: improvements pass" `Quick
      test_diff_improvement_never_regresses;
    Alcotest.test_case "diff: violations + legality" `Quick
      test_diff_violations_and_legality;
    Alcotest.test_case "report html smoke" `Quick test_report_smoke;
    Alcotest.test_case "validate_metrics" `Quick test_validate_metrics;
    Alcotest.test_case "sample_gc" `Quick test_sample_gc;
    Alcotest.test_case "gc_boundary" `Quick test_gc_boundary_accumulates;
    Alcotest.test_case "disabled recorder records nothing" `Quick
      test_disabled_recorder_is_empty;
    Alcotest.test_case "end-to-end placer run" `Quick test_end_to_end_placer_run;
    Alcotest.test_case "host records effective domains" `Quick
      test_host_records_effective_domains;
  ]
