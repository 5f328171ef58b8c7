(* Command-line driver: generate designs, check movebound feasibility, place
   with any of the three engines, and draw placements.

     fbp_place generate --cells 5000 -o design.book
     fbp_place check design.book
     fbp_place place design.book --tool fbp --svg out.svg
     fbp_place place design.book --deadline 30 --strict
     fbp_place tables --table 2 --quick

   Failures exit with the typed error's class code (see
   Fbp_resilience.Fbp_error.exit_code): infeasible/capacity 2, parse 3,
   deadline 4, invalid input 5, CG divergence 6, internal 7. *)

open Cmdliner
module Err = Fbp_resilience.Fbp_error

let print_table t =
  print_string (Fbp_util.Table.render t);
  print_newline ()

let read_design path = Fbp_netlist.Bookshelf.read_file_result path

let fail_typed e =
  prerr_endline (Err.to_string e);
  Err.exit_code e

(* movebounds are carried in the bookshelf cell column; rebuild rectangles
   as the bounding boxes of each class's cells is lossy, so the CLI only
   supports movebounds generated via --movebounds *)
let instance_of design ~movebounds =
  if movebounds <= 0 then Fbp_movebound.Instance.unconstrained design
  else begin
    let scenario =
      {
        Fbp_workloads.Mb_gen.design = design.Fbp_netlist.Design.name;
        shape = Fbp_workloads.Mb_gen.Flatten movebounds;
        coverage = 0.5;
        max_density = 0.75;
        kind = Fbp_movebound.Movebound.Inclusive;
      }
    in
    Fbp_workloads.Mb_gen.attach scenario design
  end

(* ------------------------------------------------------------ generate *)

let generate_cmd =
  let cells =
    Arg.(value & opt int 2000 & info [ "cells"; "n" ] ~doc:"Number of cells.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let run cells seed out =
    let d = Fbp_netlist.Generator.quick ~seed ~name:(Filename.basename out) cells in
    Fbp_netlist.Bookshelf.write_file out d;
    Printf.printf "wrote %s (%d cells, %d nets)\n" out
      (Fbp_netlist.Netlist.n_cells d.Fbp_netlist.Design.netlist)
      (Fbp_netlist.Netlist.n_nets d.Fbp_netlist.Design.netlist);
    0
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic design.")
    Term.(const run $ cells $ seed $ out)

(* --------------------------------------------------------------- check *)

let check_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN") in
  let movebounds =
    Arg.(value & opt int 0 & info [ "movebounds" ] ~doc:"Attach N movebounds first.")
  in
  let run input movebounds =
    match read_design input with
    | Error e -> fail_typed e
    | Ok d ->
      let inst = instance_of d ~movebounds in
      (match Fbp_movebound.Feasibility.check_instance inst with
       | Error e -> fail_typed (Err.Invalid_input e)
       | Ok (Fbp_movebound.Feasibility.Feasible, regions) ->
         Printf.printf "feasible (%d maximal regions, %d movebounds)\n"
           (Fbp_movebound.Regions.n_regions regions)
           (Fbp_movebound.Instance.n_movebounds inst);
         0
       | Ok (Fbp_movebound.Feasibility.Infeasible { classes; demand; capacity }, _) ->
         let e = Err.Capacity_overflow { demand; capacity; classes } in
         Printf.printf "INFEASIBLE: %s\n" (Err.to_string e);
         Err.exit_code e)
  in
  Cmd.v (Cmd.info "check" ~doc:"Movebound feasibility check (Theorems 1-2).")
    Term.(const run $ input $ movebounds)

(* --------------------------------------------------------------- place *)

let place_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN") in
  let tool =
    Arg.(value & opt (enum [ ("fbp", `Fbp); ("rql", `Rql); ("kraftwerk", `Kw) ]) `Fbp
         & info [ "tool" ] ~doc:"Placement engine: fbp | rql | kraftwerk.")
  in
  let movebounds =
    Arg.(value & opt int 0 & info [ "movebounds" ] ~doc:"Attach N movebounds first.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains"; "j" ] ~doc:"Parallel domains (FBP).")
  in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~doc:"Plot output.") in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ]
           ~doc:"Wall-clock budget in seconds for global placement; on \
                 timeout the last-good per-level checkpoint is returned.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
           ~doc:"Fail with a typed error instead of degrading gracefully \
                 (reports Theorem 3 infeasibility certificates as errors).")
  in
  let sanitize =
    Arg.(value & flag
         & info [ "sanitize" ]
           ~doc:"Run flow-invariant sanitizer checks at solver-stage \
                 boundaries (MCF conservation and capacity bounds, \
                 transport row/column balance, CSR well-formedness, \
                 post-realization movebound containment); a violation \
                 stops the run with exit code 8.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
           ~doc:"Write a Chrome trace-event JSON of the run to $(docv) \
                 (loadable in chrome://tracing or Perfetto)." ~docv:"FILE")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ]
           ~doc:"Write solver counters and histogram summaries as JSON to \
                 $(docv)." ~docv:"FILE")
  in
  let record =
    Arg.(value & opt (some string) None
         & info [ "record" ]
           ~doc:"Write a quality flight record (per-level HPWL, density \
                 overflow, movebound violations, solver effort, phase \
                 times, GC deltas) as a versioned run-record JSON to \
                 $(docv); render it with $(b,fbp_place report), gate CI \
                 with $(b,fbp_place diff-record)." ~docv:"FILE")
  in
  let run input tool movebounds domains svg deadline strict sanitize trace metrics record =
    if sanitize then Fbp_resilience.Sanitize.set_enabled true;
    let module Obs = Fbp_obs.Obs in
    let module Rec = Fbp_obs.Recorder in
    if trace <> None || metrics <> None || record <> None then begin
      Obs.reset ();
      Obs.enable ()
    end;
    (* FBP_PROFILE=1 arms the domain profiler alongside whatever other
       exporters are on; its summary lands in the run record's [profile]
       section and its GC pauses in the trace's per-domain tracks *)
    let profile_armed = Sys.getenv_opt "FBP_PROFILE" = Some "1" in
    if profile_armed then Fbp_obs.Profiler.start ();
    (* export whatever was recorded on every exit path, including typed
       failures — a trace of a failed run is the one you want most *)
    let finish run_record code =
      (* stop first: the final drain injects gc.* intervals into the trace
         and the summary belongs in the record *)
      let profile =
        if profile_armed then Some (Fbp_obs.Profiler.stop ()) else None
      in
      (match trace with
       | Some f -> Obs.write_trace f; Printf.printf "wrote %s\n" f
       | None -> ());
      (match metrics with
       | Some f -> Obs.write_metrics f; Printf.printf "wrote %s\n" f
       | None -> ());
      (match record with
       | Some f ->
         Rec.write_file f
           { run_record with Rec.metrics = Some (Obs.metrics ()); profile };
         Printf.printf "wrote %s\n" f
       | None -> ());
      code
    in
    match read_design input with
    | Error e -> finish Rec.empty (fail_typed e)
    | Ok d ->
      let inst = instance_of d ~movebounds in
      let provenance =
        {
          Rec.design = input;
          cells = Fbp_netlist.Netlist.n_cells d.Fbp_netlist.Design.netlist;
          nets = Fbp_netlist.Netlist.n_nets d.Fbp_netlist.Design.netlist;
          movebounds = Fbp_movebound.Instance.n_movebounds inst;
          seed = None;
          tool = (match tool with `Fbp -> "fbp" | `Rql -> "rql" | `Kw -> "kraftwerk");
          config =
            [ ("domains", string_of_int domains);
              ("strict", string_of_bool strict);
              ("sanitize", string_of_bool (Fbp_resilience.Sanitize.enabled ())) ]
            @ (match deadline with
               | Some dl -> [ ("deadline", Printf.sprintf "%g" dl) ]
               | None -> []);
          host = None;  (* filled by Runner once the pool resolves *)
        }
      in
      let unrecorded = { Rec.empty with provenance } in
      let result, run_record =
        (* belt and braces: nothing may bypass [finish] — an exception
           escaping any engine (e.g. a sanitizer violation raised past a
           result boundary) still becomes a typed exit with the trace,
           metrics and run record written *)
        try
          Obs.span "cli.place"
            ~args:(fun () -> [ ("design", input) ])
            (fun () ->
              let config = { Fbp_core.Config.default with domains; deadline; strict } in
              (* a comparator's record: its totals, density map and host *)
              let baseline result =
                match result with
                | Ok m when Option.is_some record ->
                  (result, Fbp_workloads.Runner.record_outcome inst m unrecorded)
                | _ -> (result, unrecorded)
              in
              match tool with
              | `Fbp when Option.is_some record ->
                Fbp_workloads.Runner.run_fbp_recorded ~config ~provenance inst
              | `Fbp -> (Fbp_workloads.Runner.run_fbp ~config inst, unrecorded)
              | `Rql -> baseline (Fbp_workloads.Runner.run_rql inst)
              | `Kw -> baseline (Fbp_workloads.Runner.run_kraftwerk inst))
        with e -> (Error (Err.of_exn ~site:"cli.place" e), unrecorded)
      in
      (match result with
       | Error e -> finish run_record (fail_typed e)
       | Ok m ->
         Printf.printf "%s: HPWL %.6e  time %.2fs (global %.2fs + legalize %.2fs)\n"
           m.Fbp_workloads.Runner.tool m.Fbp_workloads.Runner.hpwl
           m.Fbp_workloads.Runner.total_time m.Fbp_workloads.Runner.global_time
           m.Fbp_workloads.Runner.legalize_time;
         Printf.printf "legal=%b movebound-violations=%d\n" m.Fbp_workloads.Runner.legal
           m.Fbp_workloads.Runner.violations;
         List.iter
           (fun dg ->
             Printf.printf "degraded: %s\n" (Fbp_core.Placer.degradation_to_string dg))
           m.Fbp_workloads.Runner.degradations;
         (match svg with
          | Some path ->
            let inst_n =
              match Fbp_movebound.Instance.normalize inst with Ok i -> i | Error _ -> inst
            in
            Fbp_viz.Svg.write_file path
              (Fbp_viz.Draw.placement inst_n m.Fbp_workloads.Runner.placement);
            Printf.printf "wrote %s\n" path
          | None -> ());
         finish run_record 0)
  in
  Cmd.v (Cmd.info "place" ~doc:"Place a design.")
    Term.(const run $ input $ tool $ movebounds $ domains $ svg $ deadline $ strict
          $ sanitize $ trace $ metrics $ record)

(* ------------------------------------------------------------- profile *)

let profile_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN") in
  let movebounds =
    Arg.(value & opt int 0 & info [ "movebounds" ] ~doc:"Attach N movebounds first.")
  in
  let domains =
    (* default 4 and no hardware clamp: the point of profiling is to see
       the helper domains, even on a small container *)
    Arg.(value & opt int 4 & info [ "domains"; "j" ] ~doc:"Parallel domains.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ]
           ~doc:"Write the machine-readable profile summary to $(docv)."
           ~docv:"FILE")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
           ~doc:"Write a Chrome trace with per-domain gc.* pause tracks to \
                 $(docv)." ~docv:"FILE")
  in
  let run input movebounds domains json trace =
    let module Obs = Fbp_obs.Obs in
    let module Prof = Fbp_obs.Profiler in
    Obs.reset ();
    Obs.enable ();
    Prof.start ();
    match read_design input with
    | Error e ->
      ignore (Prof.stop ());
      fail_typed e
    | Ok d ->
      let inst = instance_of d ~movebounds in
      let config =
        { Fbp_core.Config.default with domains; hw_clamp = false }
      in
      let result =
        try Fbp_workloads.Runner.run_fbp ~config inst
        with e -> Error (Err.of_exn ~site:"cli.profile" e)
      in
      let s = Prof.stop () in
      (match trace with
       | Some f -> Obs.write_trace f; Printf.printf "wrote %s\n" f
       | None -> ());
      Obs.disable ();
      (match json with
       | Some f ->
         let oc = open_out f in
         output_string oc (Fbp_util.Json.to_string (Prof.summary_json s));
         output_string oc "\n";
         close_out oc;
         Printf.printf "wrote %s\n" f
       | None -> ());
      (match result with
       | Error e -> fail_typed e
       | Ok m ->
         print_string (Prof.render s);
         Printf.printf
           "\n%s: HPWL %.6e  time %.2fs (global %.2fs + legalize %.2fs)\n"
           m.Fbp_workloads.Runner.tool m.Fbp_workloads.Runner.hpwl
           m.Fbp_workloads.Runner.total_time m.Fbp_workloads.Runner.global_time
           m.Fbp_workloads.Runner.legalize_time;
         0)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Place a design with the domain-level runtime profiler armed \
             and print the per-domain utilization / GC pause table.  The \
             profiler merges OCaml runtime events (minor/major GC, \
             stop-the-world rendezvous) with pool worker occupancy; the \
             placement result is bit-identical to an unprofiled run.")
    Term.(const run $ input $ movebounds $ domains $ json $ trace)

(* --------------------------------------------------------- trace-check *)

let trace_check_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE") in
  let run input =
    match Fbp_obs.Obs.validate_trace_file input with
    | Ok n ->
      Printf.printf "ok: %d balanced span pairs\n" n;
      0
    | Error msg ->
      Printf.eprintf "invalid trace: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome trace-event JSON file (parses, spans balance).")
    Term.(const run $ input)

(* ------------------------------------------------------------- report *)

let report_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"RECORD") in
  let out =
    Arg.(value & opt string "report.html"
         & info [ "o"; "output" ] ~doc:"HTML output file." ~docv:"FILE")
  in
  let run input out =
    match Fbp_obs.Recorder.read_file input with
    | Error msg ->
      Printf.eprintf "cannot read run record %s: %s\n" input msg;
      Err.exit_code (Err.Parse_error { file = input; line = 0; msg })
    | Ok rec_ ->
      let html = Fbp_viz.Report.render rec_ in
      let oc = open_out_bin out in
      output_string oc html;
      close_out oc;
      Printf.printf "wrote %s (%d levels, %d bytes)\n" out
        (List.length rec_.Fbp_obs.Recorder.levels)
        (String.length html);
      0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a flight-recorder run record as a self-contained HTML \
             report (convergence curve, phase times, density heatmap, \
             domain utilization, metric tables).")
    Term.(const run $ input $ out)

(* -------------------------------------------------------- diff-record *)

let diff_record_cmd =
  let base = Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE") in
  let cand = Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE") in
  let max_hpwl =
    Arg.(value & opt float 0.02
         & info [ "max-hpwl-regress" ]
           ~doc:"Maximum tolerated relative HPWL increase (e.g. 0.02 = 2%).")
  in
  let max_time =
    Arg.(value & opt float 0.25
         & info [ "max-time-regress" ]
           ~doc:"Maximum tolerated relative total-time increase.")
  in
  let max_gc =
    Arg.(value & opt (some float) None
         & info [ "max-gc-regress" ]
           ~doc:"Maximum tolerated relative GC/STW pause-time increase \
                 (profiled records only; 10ms absolute floor).")
  in
  let run base cand max_hpwl max_time max_gc =
    let read path =
      match Fbp_obs.Recorder.read_file path with
      | Ok r -> Ok r
      | Error msg ->
        Printf.eprintf "cannot read run record %s: %s\n" path msg;
        Error (Err.exit_code (Err.Parse_error { file = path; line = 0; msg }))
    in
    match (read base, read cand) with
    | Error c, _ | _, Error c -> c
    | Ok b, Ok c ->
      let cmp =
        Fbp_obs.Recorder.diff ?max_gc_regress:max_gc
          ~max_hpwl_regress:max_hpwl ~max_time_regress:max_time ~base:b
          ~cand:c ()
      in
      List.iter print_endline cmp.Fbp_obs.Recorder.lines;
      if cmp.Fbp_obs.Recorder.regressions = [] then begin
        Printf.printf "ok: no regressions (%s vs %s)\n" base cand;
        0
      end
      else begin
        Printf.printf "FAIL: %d regression(s)\n"
          (List.length cmp.Fbp_obs.Recorder.regressions);
        1
      end
  in
  Cmd.v
    (Cmd.info "diff-record"
       ~doc:"Compare two run records and exit non-zero if the candidate \
             regresses HPWL, wall time, legality, movebound violations, or \
             (with --max-gc-regress) GC pause time beyond the thresholds.")
    Term.(const run $ base $ cand $ max_hpwl $ max_time $ max_gc)

(* ------------------------------------------------------- metrics-check *)

let metrics_check_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"METRICS") in
  let run input =
    match Fbp_obs.Obs.validate_metrics_file input with
    | Ok n ->
      Printf.printf "ok: %d metrics\n" n;
      0
    | Error msg ->
      Printf.eprintf "invalid metrics: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "metrics-check"
       ~doc:"Validate a metrics JSON file (counters integral, histogram \
             summaries complete, keys sorted).")
    Term.(const run $ input)

(* ---------------------------------------------------------------- fuzz *)

let fuzz_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.") in
  let count =
    Arg.(value & opt int 200
         & info [ "count"; "n" ] ~doc:"Number of scenarios to generate.")
  in
  let matrix =
    Arg.(value & flag
         & info [ "matrix" ]
           ~doc:"Also run every scenario against all fault-matrix cells \
                 (each scenario crossed with every injection site × fault \
                 kind the pipeline documents).")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ]
           ~doc:"Replay a single repro artifact written by a previous fuzz \
                 run instead of fuzzing; exits with the scenario's taxonomy \
                 code." ~docv:"FILE")
  in
  let out_dir =
    Arg.(value & opt (some string) None
         & info [ "out" ]
           ~doc:"Write shrunk repro artifacts and run records for findings \
                 into $(docv)." ~docv:"DIR")
  in
  let time_cap =
    Arg.(value & opt (some float) None
         & info [ "time-cap" ]
           ~doc:"Wall-clock cap in seconds; generation stops early (the \
                 report is marked truncated) but never mid-scenario."
           ~docv:"SECONDS")
  in
  let run seed count matrix replay out_dir time_cap =
    let module Fuzz = Fbp_workloads.Fuzz in
    match replay with
    | Some file ->
      let text =
        let ic = open_in_bin file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      (match Fuzz.repro_of_json text with
       | Error msg ->
         prerr_endline ("bad repro artifact: " ^ msg);
         Err.exit_code (Err.Parse_error { file; line = 0; msg })
       | Ok scenario ->
         Printf.printf "replaying %s\n" (Fuzz.scenario_to_json scenario);
         let rr = Fuzz.run_scenario scenario in
         Printf.printf "outcome: %s (fault %s)\n"
           (Fuzz.outcome_label rr.Fuzz.outcome)
           (if rr.Fuzz.fault_fired then "fired" else "not fired");
         (match rr.Fuzz.outcome with
          | Fuzz.Passed -> 0
          | Fuzz.Typed e -> Err.exit_code e
          | Fuzz.Invariant _ | Fuzz.Uncaught _ -> 1))
    | None ->
      let report =
        Fuzz.run ~matrix ?time_cap ?out_dir ~seed ~count ()
      in
      print_string (Fuzz.render_report report);
      if report.Fuzz.failures = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Property-based scenario fuzzing: generate random design / \
             movebound / fault configurations, run each through the full \
             placer with the sanitizer on, check flow/transport/containment \
             invariants and the feasibility promise, shrink failures to \
             minimal replayable repro artifacts.  Deterministic for a given \
             seed.")
    Term.(const run $ seed $ count $ matrix $ replay $ out_dir $ time_cap)

(* -------------------------------------------------------------- tables *)

let tables_cmd =
  let which =
    Arg.(value & opt (some int) None & info [ "table" ] ~doc:"Only table N (1-7).")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
           ~doc:"Small subset: Table I on rabe, Table II on the quick \
                 designs, Tables IV/VI on rabe/ashraf/erhard, Table V on \
                 rabe/ashraf, Table VII on its first two specs.")
  in
  let tables which quick =
    let quick_names = if quick then Some Fbp_workloads.Designs.quick_names else None in
    let want n = match which with None -> true | Some w -> w = n in
    if want 1 then begin
      let t, _ = Fbp_workloads.Tables.table1 ~design:(if quick then "rabe" else "erhard") () in
      print_table t
    end;
    if want 2 then begin
      let t, _ = Fbp_workloads.Tables.table2 ?names:quick_names () in
      print_table t
    end;
    if want 3 then begin
      let t, _ = Fbp_workloads.Tables.table3 () in
      print_table t
    end;
    (if want 4 || want 6 then begin
       let scenarios =
         if quick then
           List.filter
             (fun (s : Fbp_workloads.Mb_gen.scenario) ->
               List.exists (String.equal s.Fbp_workloads.Mb_gen.design) [ "rabe"; "ashraf"; "erhard" ])
             Fbp_workloads.Mb_gen.table3_scenarios
         else Fbp_workloads.Mb_gen.table3_scenarios
       in
       let t4, rows = Fbp_workloads.Tables.table4 ~scenarios () in
       if want 4 then print_table t4;
       if want 6 then print_table (Fbp_workloads.Tables.table6 rows)
     end);
    if want 5 then begin
      let designs = if quick then [ "rabe"; "ashraf" ] else Fbp_workloads.Mb_gen.table5_designs in
      let t, _ = Fbp_workloads.Tables.table5 ~designs () in
      print_table t
    end;
    if want 7 then begin
      let specs = Array.to_list Fbp_workloads.Ispd.specs in
      let specs = if quick then List.filteri (fun i _ -> i < 2) specs else specs in
      print_table (Fbp_workloads.Tables.table7 ~specs ())
    end;
    if Option.is_none which then print_table (Fbp_workloads.Tables.ablations ());
    0
  in
  (* a bad FBP_BENCH_SCALE is a typed error from the first design built *)
  let run which quick = try tables which quick with Err.Error e -> fail_typed e in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Reproduce the paper's tables; without $(b,--table), also the \
             ablation table.")
    Term.(const run $ which $ quick)

let () =
  let info = Cmd.info "fbp_place" ~doc:"BonnPlace-FBP reproduction toolkit." in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ generate_cmd; check_cmd; place_cmd; profile_cmd; fuzz_cmd;
            report_cmd; diff_record_cmd; metrics_check_cmd; tables_cmd;
            trace_check_cmd ]))
