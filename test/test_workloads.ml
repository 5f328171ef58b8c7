(* Tests for fbp_workloads: design instantiation, movebound scenario
   generation (feasibility + Table III statistics), contest scoring, and
   the runner plumbing. *)

open Fbp_workloads

let check_float = Alcotest.(check (float 1e-6))

let test_specs_complete () =
  Alcotest.(check int) "all 21 Table II rows" 21 (Array.length Designs.table2_specs);
  Alcotest.(check int) "8 Table III scenarios" 8 (List.length Mb_gen.table3_scenarios);
  Alcotest.(check int) "8 ISPD specs" 8 (Array.length Ispd.specs);
  Alcotest.(check bool) "find_spec works" true (Designs.find_spec "erhard" <> None);
  Alcotest.(check bool) "unknown spec" true (Designs.find_spec "nonesuch" = None)

let test_designs_deterministic () =
  let spec = Option.get (Designs.find_spec "dagmar") in
  let d1 = Designs.instantiate ~scale:1.0 spec in
  let d2 = Designs.instantiate ~scale:1.0 spec in
  Alcotest.(check (array (float 0.0))) "same golden placement"
    d1.Fbp_netlist.Design.initial.Fbp_netlist.Placement.x
    d2.Fbp_netlist.Design.initial.Fbp_netlist.Placement.x

let test_designs_scale_monotone () =
  let spec = Option.get (Designs.find_spec "erik") in
  let small = Designs.n_cells_of_spec ~scale:1.0 spec in
  let big = Designs.n_cells_of_spec ~scale:3.0 spec in
  Alcotest.(check bool) "bigger scale, more cells" true (big > small);
  Alcotest.(check bool) "floor respected" true
    (Designs.n_cells_of_spec ~scale:0.2 (Option.get (Designs.find_spec "dagmar")) >= 1500)

(* FBP_BENCH_SCALE takes a finite positive number as given; anything else
   is a typed Invalid_input, never a silent default or clamp. *)
let test_scale_env_validated () =
  let saved = Sys.getenv_opt "FBP_BENCH_SCALE" in
  let scale_of v =
    Unix.putenv "FBP_BENCH_SCALE" v;
    Designs.scale ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* the stdlib cannot unset a variable; "2" is the default *)
      Unix.putenv "FBP_BENCH_SCALE" (Option.value saved ~default:"2"))
    (fun () ->
      check_float "a positive value is used as given" 0.1 (scale_of "0.1");
      List.iter
        (fun v ->
          match scale_of v with
          | s -> Alcotest.failf "FBP_BENCH_SCALE=%S accepted as %g" v s
          | exception
              Fbp_resilience.Fbp_error.Error
                (Fbp_resilience.Fbp_error.Invalid_input _) -> ())
        [ "abc"; "-3"; "0"; "nan"; "inf"; "" ])

let test_scenarios_feasible () =
  (* every Table III scenario must be movebound-feasible (Theorem 2) *)
  List.iter
    (fun (sc : Mb_gen.scenario) ->
      let spec = Option.get (Designs.find_spec sc.Mb_gen.design) in
      let d = Designs.instantiate ~scale:1.0 spec in
      let inst = Mb_gen.attach sc d in
      let density = Fbp_core.Density.create d in
      match
        Fbp_movebound.Feasibility.check_instance
          ~capacity_of:(fun (r : Fbp_movebound.Regions.region) ->
            Fbp_core.Density.capacity_set density r.Fbp_movebound.Regions.area)
          inst
      with
      | Error e -> Alcotest.failf "%s: %s" sc.Mb_gen.design e
      | Ok (Fbp_movebound.Feasibility.Feasible, _) -> ()
      | Ok (Fbp_movebound.Feasibility.Infeasible _, _) ->
        Alcotest.failf "%s scenario infeasible" sc.Mb_gen.design)
    Mb_gen.table3_scenarios

let test_scenario_stats_shape () =
  let sc = List.nth Mb_gen.table3_scenarios 2 (* erhard: 80% coverage *) in
  let spec = Option.get (Designs.find_spec sc.Mb_gen.design) in
  let d = Designs.instantiate ~scale:1.0 spec in
  let inst = Mb_gen.attach sc d in
  let st = Mb_gen.stats_of sc inst in
  Alcotest.(check int) "movebound count" 16 st.Mb_gen.n_movebounds;
  Alcotest.(check bool) "coverage near request" true
    (Float.abs (st.Mb_gen.pct_bound -. 0.80) < 0.15);
  Alcotest.(check bool) "density at most the cap + slack" true
    (st.Mb_gen.max_mb_density <= sc.Mb_gen.max_density +. 0.05);
  Alcotest.(check bool) "flatten flag" true st.Mb_gen.flattened;
  Alcotest.(check bool) "not overlapping" false st.Mb_gen.overlapping

let test_overlapping_scenarios_overlap () =
  let sc =
    List.find (fun (s : Mb_gen.scenario) -> Mb_gen.is_overlapping s.Mb_gen.shape)
      Mb_gen.table3_scenarios
  in
  let spec = Option.get (Designs.find_spec sc.Mb_gen.design) in
  let d = Designs.instantiate ~scale:1.0 spec in
  let inst = Mb_gen.attach sc d in
  let mbs = inst.Fbp_movebound.Instance.movebounds in
  let overlaps = ref false in
  Array.iteri
    (fun i (a : Fbp_movebound.Movebound.t) ->
      Array.iteri
        (fun j (b : Fbp_movebound.Movebound.t) ->
          if i < j
             && Fbp_geometry.Rect_set.overlaps a.Fbp_movebound.Movebound.area
                  b.Fbp_movebound.Movebound.area
          then overlaps := true)
        mbs)
    mbs;
  Alcotest.(check bool) "(O) scenarios really overlap" true !overlaps

let test_cpu_factor () =
  check_float "same time, no factor" 0.0 (Ispd.cpu_factor ~reference:10.0 ~time:10.0);
  check_float "2x faster = -4%" (-0.04) (Ispd.cpu_factor ~reference:10.0 ~time:5.0);
  check_float "truncated at -10%" (-0.10) (Ispd.cpu_factor ~reference:1000.0 ~time:1.0);
  check_float "truncated at +10%" 0.10 (Ispd.cpu_factor ~reference:1.0 ~time:1000.0)

let test_density_penalty_zero_when_spread () =
  (* a perfectly even legal-density placement has no penalty *)
  let d = Fbp_netlist.Generator.quick ~seed:51 ~name:"even" 1000 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:d.Fbp_netlist.Design.chip [||]
  in
  let pos = Fbp_netlist.Placement.copy d.Fbp_netlist.Design.initial in
  ignore
    (Fbp_legalize.Legalizer.run inst regions pos
       ~piece_of_cell:(Array.make 1000 (-1)) ~grid:None);
  let pen = Ispd.density_penalty d pos in
  Alcotest.(check bool)
    (Printf.sprintf "penalty %.3f below 0.5" pen)
    true (pen < 0.5)

let test_runner_fbp_metrics () =
  let d = Fbp_netlist.Generator.quick ~seed:53 ~name:"runner" 1000 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  match Runner.run_fbp inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok m ->
    Alcotest.(check bool) "legal" true m.Runner.legal;
    Alcotest.(check int) "no violations" 0 m.Runner.violations;
    Alcotest.(check bool) "hpwl positive" true (m.Runner.hpwl > 0.0);
    Alcotest.(check bool) "levels recorded" true (m.Runner.levels <> []);
    Alcotest.(check bool) "times recorded" true (m.Runner.total_time > 0.0)

let test_runner_rql_metrics () =
  let d = Fbp_netlist.Generator.quick ~seed:54 ~name:"runner2" 1000 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  match Runner.run_rql inst with
  | Error e -> Alcotest.fail (Fbp_resilience.Fbp_error.to_string e)
  | Ok m ->
    Alcotest.(check bool) "legal" true m.Runner.legal;
    Alcotest.(check bool) "hpwl positive" true (m.Runner.hpwl > 0.0)

(* The quality document is a pure function of the runs: two runs of the
   quick set give the same bytes, the document parses back to the same
   runs, a self-compare pairs every run at ratio 1 with no regression, and
   a candidate that loses legality, gains a violation or fails is
   counted, while HPWL 3% worse is listed but is no regression. *)
let test_quality_document () =
  let runs () = Quality.runs ~quick:true ~seeds:[ 0 ] () in
  let a = runs () in
  Alcotest.(check int) "3 designs, 1 inclusive and 1 exclusive scenario" 5
    (List.length a);
  let doc = Quality.to_string ~seeds:[ 0 ] a in
  Alcotest.(check string) "byte-identical rerun" doc
    (Quality.to_string ~seeds:[ 0 ] (runs ()));
  let back =
    match Quality.of_string doc with
    | Ok r -> r
    | Error msg -> Alcotest.failf "document does not parse back: %s" msg
  in
  Alcotest.(check string) "round trip" doc (Quality.to_string ~seeds:[ 0 ] back);
  let self = Quality.compare ~base:a ~cand:back in
  Alcotest.(check int) "self: no regression" 0 self.Quality.regressions;
  Alcotest.(check bool) "self: median and worst ratio 1" true
    (List.exists
       (String.starts_with
          ~prefix:"hpwl ratio (candidate / base): median 1.000, worst 1.000")
       self.Quality.lines);
  let with_outcome f (r : Quality.run) =
    match r.Quality.outcome with
    | Ok o -> { r with Quality.outcome = Ok (f o) }
    | Error _ -> Alcotest.fail "a quick run failed"
  in
  let cand =
    List.mapi
      (fun j (r : Quality.run) ->
        match j with
        | 0 -> with_outcome (fun o -> { o with Quality.hpwl = 1.03 *. o.Quality.hpwl }) r
        | 1 -> with_outcome (fun o -> { o with Quality.legal = false }) r
        | 2 -> with_outcome (fun o -> { o with Quality.violations = o.Quality.violations + 1 }) r
        | 3 -> { r with Quality.outcome = Error "boom" }
        | _ -> r)
      a
  in
  let c = Quality.compare ~base:a ~cand in
  Alcotest.(check int) "illegal, violation and failure regress" 3 c.Quality.regressions;
  Alcotest.(check bool) "3% worse is counted above 2%" true
    (List.mem "worse by > 1%: 1, by > 2%: 1" c.Quality.lines)

let suite =
  [
    Alcotest.test_case "specs complete" `Quick test_specs_complete;
    Alcotest.test_case "designs deterministic" `Quick test_designs_deterministic;
    Alcotest.test_case "scale monotone + floored" `Quick test_designs_scale_monotone;
    Alcotest.test_case "scale variable validated" `Quick test_scale_env_validated;
    Alcotest.test_case "table-3 scenarios feasible" `Slow test_scenarios_feasible;
    Alcotest.test_case "scenario stats shape" `Quick test_scenario_stats_shape;
    Alcotest.test_case "(O) scenarios overlap" `Quick test_overlapping_scenarios_overlap;
    Alcotest.test_case "cpu factor formula" `Quick test_cpu_factor;
    Alcotest.test_case "density penalty of even placement" `Quick
      test_density_penalty_zero_when_spread;
    Alcotest.test_case "runner fbp metrics" `Slow test_runner_fbp_metrics;
    Alcotest.test_case "runner rql metrics" `Quick test_runner_rql_metrics;
    Alcotest.test_case "quality document" `Quick test_quality_document;
  ]
