(* Tests for the resilience layer: the fault-injection harness itself, the
   placer's degradation ladder (margin drop, movebound relaxation, bisection
   fallback, checkpoint returns), CG safeguarded restarts, deadline stops,
   parser hardening, Mcf eps-degenerate supplies, and the no-leaked-domains
   guarantee of Pool.  Every test disarms the injection registry in a
   [finally] so a failure cannot poison later suites. *)

open Fbp_netlist
open Fbp_core
module Inject = Fbp_resilience.Inject
module Err = Fbp_resilience.Fbp_error

let with_inject f = Fun.protect ~finally:Inject.reset f

let small_instance ?(n_cells = 400) ?(seed = 3) () =
  let d = Generator.quick ~seed ~name:"t" n_cells in
  Fbp_movebound.Instance.unconstrained d

let place ?config ?fallback inst = Placer.place ?config ?fallback inst

let fail_err ctx e = Alcotest.fail (ctx ^ ": " ^ Err.to_string e)

let placement_finite (p : Placement.t) =
  Array.for_all Float.is_finite p.Placement.x
  && Array.for_all Float.is_finite p.Placement.y

(* ---------- the harness itself ---------- *)

let test_inject_schedule () =
  with_inject (fun () ->
      Inject.arm ~after:2 ~times:1 Inject.Parse Inject.Corrupt;
      Alcotest.(check bool) "hit 1 skipped" true (Inject.fire Inject.Parse = None);
      Alcotest.(check bool) "hit 2 skipped" true (Inject.fire Inject.Parse = None);
      Alcotest.(check bool) "hit 3 fires" true
        (Inject.fire Inject.Parse = Some Inject.Corrupt);
      Alcotest.(check bool) "budget spent" true (Inject.fire Inject.Parse = None);
      Alcotest.(check int) "hits counted" 4 (Inject.hits Inject.Parse);
      Inject.disarm Inject.Parse;
      Alcotest.(check bool) "disarmed" false (Inject.active ()))

let test_inject_prob_deterministic () =
  with_inject (fun () ->
      let run () =
        Inject.arm ~seed:42 ~prob:0.5 Inject.Mcf (Inject.Infeasible 1.0);
        let fired = ref [] in
        for _ = 1 to 32 do
          fired := (Inject.fire Inject.Mcf <> None) :: !fired
        done;
        !fired
      in
      let a = run () and b = run () in
      Alcotest.(check (list bool)) "seeded stream replays" a b;
      Alcotest.(check bool) "some fire" true (List.mem true a);
      Alcotest.(check bool) "some skip" true (List.mem false a))

(* ---------- MCF infeasibility ---------- *)

let test_mcf_injected_strict () =
  with_inject (fun () ->
      Inject.arm Inject.Mcf (Inject.Infeasible 7.5);
      match place ~config:{ Config.default with strict = true } (small_instance ()) with
      | Error (Err.Infeasible_flow { unrouted; level }) ->
        Alcotest.(check (float 1e-9)) "certificate amount" 7.5 unrouted;
        Alcotest.(check int) "at the first level" 1 level
      | Error e -> fail_err "expected Infeasible_flow" e
      | Ok _ -> Alcotest.fail "strict mode must surface injected infeasibility")

let test_mcf_injected_fallback () =
  with_inject (fun () ->
      Inject.arm Inject.Mcf (Inject.Infeasible 3.0);
      let inst = small_instance () in
      let n = Netlist.n_cells inst.Fbp_movebound.Instance.design.Design.netlist in
      let sentinel = Placement.create n in
      Array.fill sentinel.Placement.x 0 n 1.5;
      Array.fill sentinel.Placement.y 0 n 2.5;
      match place ~fallback:(fun () -> Ok sentinel) inst with
      | Error e -> fail_err "graceful mode must not fail" e
      | Ok rep ->
        Alcotest.(check bool) "fallback recorded" true
          (List.exists
             (function Placer.Bisection_fallback _ -> true | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check int) "no level completed" 0 (List.length rep.Placer.levels);
        (* the returned placement is the fallback's *)
        Alcotest.(check (float 0.0)) "fallback x" 1.5 rep.Placer.placement.Placement.x.(0);
        Alcotest.(check (float 0.0)) "fallback y" 2.5 rep.Placer.placement.Placement.y.(0))

let test_mcf_injected_no_fallback_checkpoints () =
  with_inject (fun () ->
      (* first level fails and there is no fallback: the QP-only checkpoint
         still comes back as a usable (finite) placement *)
      Inject.arm Inject.Mcf (Inject.Infeasible 3.0);
      match place (small_instance ()) with
      | Error e -> fail_err "graceful mode must not fail" e
      | Ok rep ->
        Alcotest.(check bool) "aborted recorded" true
          (List.exists
             (function
               | Placer.Level_aborted { reason = Err.Infeasible_flow _; _ } -> true
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "checkpoint finite" true
          (placement_finite rep.Placer.placement))

let test_mcf_relaxation_recovers () =
  with_inject (fun () ->
      (* two injected infeasibilities burn the margin drop and the plain
         rebuild; the movebound-relaxed solve is real and succeeds *)
      Inject.arm ~times:2 Inject.Mcf (Inject.Infeasible 0.25);
      match place (small_instance ()) with
      | Error e -> fail_err "relaxation should recover" e
      | Ok rep ->
        let has p = List.exists p rep.Placer.degradations in
        Alcotest.(check bool) "margin dropped" true
          (has (function Placer.Margin_dropped _ -> true | _ -> false));
        Alcotest.(check bool) "movebounds relaxed" true
          (has (function
             | Placer.Movebounds_relaxed { unrouted; _ } -> unrouted > 0.0
             | _ -> false));
        Alcotest.(check int) "all levels still completed"
          rep.Placer.levels_planned (List.length rep.Placer.levels))

(* ---------- CG divergence ---------- *)

let test_cg_stagnation_restart_level0 () =
  with_inject (fun () ->
      (* level 0's x/y solves stagnate; the restart with the stronger center
         anchor (fault budget exhausted) is real and converges *)
      Inject.arm ~times:2 Inject.Cg Inject.Stagnate;
      match place (small_instance ()) with
      | Error e -> fail_err "restart should recover" e
      | Ok rep ->
        Alcotest.(check bool) "level-0 restart recorded" true
          (List.exists
             (function
               | Placer.Cg_restarted { level = 0; stats } -> not stats.Err.converged
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check int) "all levels completed"
          rep.Placer.levels_planned (List.length rep.Placer.levels))

let test_cg_stagnation_restart () =
  with_inject (fun () ->
      (* arm from the level-1 report callback so the fault lands exactly on
         level 2's first x/y pair, whatever realization's own CG usage is;
         the safeguarded restart from the checkpoint is real and converges *)
      let arm_on_level (l : Placer.level_report) _ =
        if l.Placer.level = 1 then Inject.arm ~times:2 Inject.Cg Inject.Stagnate
      in
      match Placer.place ~on_level:arm_on_level (small_instance ()) with
      | Error e -> fail_err "restart should recover" e
      | Ok rep ->
        Alcotest.(check bool) "restart recorded" true
          (List.exists
             (function
               | Placer.Cg_restarted { level; stats } ->
                 level = 2 && not stats.Err.converged
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check int) "all levels completed"
          rep.Placer.levels_planned (List.length rep.Placer.levels);
        List.iter
          (fun (l : Placer.level_report) ->
            Alcotest.(check bool) "level converged after restart" true
              l.Placer.cg_converged)
          rep.Placer.levels)

(* The Cg site fires once per axis, x then y, also when the two axes run
   in lockstep: armed from the level-1 callback with [~after:1], the fault
   skips level 2's x solve and stagnates its y solve only.  The restart
   recorded at level 2 then carries the stagnated y solve's [max_iter]
   iterations plus the converged x solve's, fewer than two stagnations. *)
let test_cg_stagnation_one_axis () =
  with_inject (fun () ->
      let arm_on_level (l : Placer.level_report) _ =
        if l.Placer.level = 1 then
          Inject.arm ~after:1 ~times:1 Inject.Cg Inject.Stagnate
      in
      let max_iter = Config.default.Config.cg_max_iter in
      match Placer.place ~on_level:arm_on_level (small_instance ()) with
      | Error e -> fail_err "restart should recover" e
      | Ok rep ->
        let restarts =
          List.filter_map
            (function
              | Placer.Cg_restarted { level; stats } -> Some (level, stats)
              | _ -> None)
            rep.Placer.degradations
        in
        (match restarts with
         | [ (2, stats) ] ->
           Alcotest.(check bool) "the restarted solve did not converge" false
             stats.Err.converged;
           Alcotest.(check bool) "one stagnated axis, one converged" true
             (stats.Err.iterations >= max_iter
             && stats.Err.iterations < 2 * max_iter)
         | _ ->
           Alcotest.failf "expected one Cg_restarted at level 2, got %d"
             (List.length restarts));
        Alcotest.(check int) "all levels completed"
          rep.Placer.levels_planned (List.length rep.Placer.levels);
        List.iter
          (fun (l : Placer.level_report) ->
            Alcotest.(check bool) "level converged after restart" true
              l.Placer.cg_converged)
          rep.Placer.levels)

let test_cg_divergence_strict () =
  with_inject (fun () ->
      Inject.arm Inject.Cg Inject.Stagnate;
      match place ~config:{ Config.default with strict = true } (small_instance ()) with
      | Error (Err.Cg_diverged stats) ->
        Alcotest.(check bool) "stats say diverged" false stats.Err.converged
      | Error e -> fail_err "expected Cg_diverged" e
      | Ok _ -> Alcotest.fail "strict mode must surface CG divergence")

let test_cg_stagnation_graceful_survives () =
  with_inject (fun () ->
      (* even permanent stagnation must still yield a finite placement and
         honest per-level convergence flags *)
      Inject.arm Inject.Cg Inject.Stagnate;
      match place (small_instance ()) with
      | Error e -> fail_err "graceful mode must not fail" e
      | Ok rep ->
        Alcotest.(check bool) "placement finite" true
          (placement_finite rep.Placer.placement);
        List.iter
          (fun (l : Placer.level_report) ->
            if l.Placer.level > 1 then
              Alcotest.(check bool) "non-convergence surfaced" false
                l.Placer.cg_converged)
          rep.Placer.levels)

(* ---------- parser ---------- *)

let with_tmp_design contents f =
  let path = Filename.temp_file "fbp_resilience" ".book" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let expect_parse_error ?line:expected ctx contents =
  with_tmp_design contents (fun path ->
      match Bookshelf.read_file_result path with
      | Error (Err.Parse_error { line; _ }) ->
        Alcotest.(check bool) (ctx ^ ": positioned") true (line >= 1);
        Option.iter
          (fun l -> Alcotest.(check int) (ctx ^ ": line") l line)
          expected
      | Error e -> fail_err (ctx ^ ": expected Parse_error") e
      | Ok _ -> Alcotest.fail (ctx ^ ": malformed input accepted"))

let preamble = "chip 0 0 10 10\nrowheight 1\ndensity 1\n"

let test_parser_rejects_malformed () =
  expect_parse_error "NaN dimension"
    (preamble ^ "cells 1\ncell a nan 1 0 0 movable -\nnets 0\nblockages 0\n");
  expect_parse_error "negative dimension"
    (preamble ^ "cells 1\ncell a -2 1 0 0 movable -\nnets 0\nblockages 0\n");
  expect_parse_error "non-finite coordinate"
    (preamble ^ "cells 1\ncell a 1 1 inf 0 movable -\nnets 0\nblockages 0\n");
  expect_parse_error "truncated cells" (preamble ^ "cells 5\ncell a 1 1 0 0 movable -\n");
  expect_parse_error "net count mismatch"
    (preamble ^ "cells 1\ncell a 1 1 0 0 movable -\nnets 2\nnet 1 0\nblockages 0\n");
  (* the pin is on line 8; the file ends on line 9 *)
  expect_parse_error ~line:8 "pin index out of range"
    (preamble
   ^ "cells 1\ncell a 1 1 0 0 movable -\nnets 1\nnet 1 1\npin 7 0 0\nblockages 0\n");
  expect_parse_error "truncated net pins"
    (preamble ^ "cells 1\ncell a 1 1 0 0 movable -\nnets 1\nnet 1 3\npin 0 0 0\n");
  expect_parse_error "bad mobility"
    (preamble ^ "cells 1\ncell a 1 1 0 0 sideways -\nnets 0\nblockages 0\n");
  expect_parse_error "empty chip" "chip 3 3 3 3\ncells 0\nnets 0\nblockages 0\n";
  (* inverted rectangles: positioned at their own line, not the
     unpositioned Invalid_argument of Rect.make *)
  expect_parse_error ~line:1 "inverted chip"
    "chip 5 5 1 1\ncells 0\nnets 0\nblockages 0\n";
  expect_parse_error ~line:7 "inverted blockage"
    (preamble ^ "cells 0\nnets 0\nblockages 1\nblockage 2 6 4 4\n")

let test_parser_injected_corruption () =
  with_inject (fun () ->
      let d = Generator.quick ~seed:9 ~name:"t" 40 in
      with_tmp_design "" (fun path ->
          Bookshelf.write_file path d;
          (match Bookshelf.read_file_result path with
           | Ok d2 ->
             Alcotest.(check int) "round-trips clean" 40
               (Netlist.n_cells d2.Design.netlist)
           | Error e -> fail_err "clean read" e);
          (* the site fires on the 4th physical input line *)
          Inject.arm ~after:3 Inject.Parse Inject.Corrupt;
          match Bookshelf.read_file_result path with
          | Error (Err.Parse_error { file; line; msg }) ->
            Alcotest.(check string) "file recorded" path file;
            Alcotest.(check int) "positioned at line 4" 4 line;
            Alcotest.(check bool) "says corruption" true
              (String.length msg > 0)
          | Error e -> fail_err "expected Parse_error" e
          | Ok _ -> Alcotest.fail "corrupted read must fail"))

(* ---------- deadlines ---------- *)

let deadline_config ~strict =
  { Config.default with deadline = Some 0.5; strict }

let test_deadline_returns_checkpoint () =
  with_inject (fun () ->
      (* level 1 runs clean (3 Level polls: start, post-QP, post-flow); the
         delay injected at level 2's start poll then blows the budget, so
         the run halts with level 1's realization as checkpoint *)
      Inject.arm ~after:3 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:false) (small_instance ()) with
      | Error e -> fail_err "graceful deadline must not fail" e
      | Ok rep ->
        Alcotest.(check int) "exactly one level realized" 1
          (List.length rep.Placer.levels);
        Alcotest.(check bool) "more levels were planned" true
          (rep.Placer.levels_planned > 1);
        Alcotest.(check bool) "deadline stop recorded" true
          (List.exists
             (function
               | Placer.Deadline_stop { level; elapsed; budget } ->
                 level = 2 && elapsed > budget
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "checkpoint finite" true
          (placement_finite rep.Placer.placement))

let test_deadline_strict () =
  with_inject (fun () ->
      Inject.arm ~after:3 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:true) (small_instance ()) with
      | Error (Err.Deadline_exceeded { elapsed; budget; level }) ->
        Alcotest.(check int) "before level 2" 2 level;
        Alcotest.(check bool) "elapsed > budget" true (elapsed > budget)
      | Error e -> fail_err "expected Deadline_exceeded" e
      | Ok _ -> Alcotest.fail "strict mode must surface the deadline")

(* The boundary check alone would let a slow QP or flow solve overshoot the
   budget by a whole level; these hit the two mid-level checks.  Poll order
   per level: start (hit 3k+1), post-QP (3k+2), post-flow (3k+3). *)
let test_deadline_mid_level_post_qp () =
  with_inject (fun () ->
      (* fires at level 2's post-QP poll: level 2 is half-done and must be
         rolled back to level 1's checkpoint *)
      Inject.arm ~after:4 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:false) (small_instance ()) with
      | Error e -> fail_err "graceful deadline must not fail" e
      | Ok rep ->
        Alcotest.(check int) "only level 1 realized" 1 (List.length rep.Placer.levels);
        Alcotest.(check bool) "deadline stop at level 2" true
          (List.exists
             (function
               | Placer.Deadline_stop { level; elapsed; budget } ->
                 level = 2 && elapsed > budget
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "checkpoint finite" true
          (placement_finite rep.Placer.placement))

let test_deadline_mid_level_post_flow () =
  with_inject (fun () ->
      Inject.arm ~after:5 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:true) (small_instance ()) with
      | Error (Err.Deadline_exceeded { elapsed; budget; level }) ->
        Alcotest.(check int) "inside level 2" 2 level;
        Alcotest.(check bool) "elapsed > budget" true (elapsed > budget)
      | Error e -> fail_err "expected Deadline_exceeded" e
      | Ok _ -> Alcotest.fail "strict mode must surface the mid-level deadline")

(* ---------- combined stress: deadline expiry while a fault is live ----------

   The degradation ladder and the deadline clock interact inside one level:
   a fault burns ladder rungs (margin drop, CG restart) and then the budget
   expires mid-level.  The run must still come back with the last-good
   checkpoint (graceful) or the deadline's exit code (strict) — never the
   half-recovered level or an uncaught exception. *)

let test_deadline_during_mcf_recovery_checkpoint () =
  with_inject (fun () ->
      (* level 2's flow solve is injected infeasible: the ladder drops the
         margin and re-solves (real, feasible).  The post-flow poll then
         blows the budget, so the whole half-recovered level must be rolled
         back to level 1's checkpoint. *)
      Inject.arm ~after:1 ~times:1 Inject.Mcf (Inject.Infeasible 2.0);
      Inject.arm ~after:5 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:false) (small_instance ()) with
      | Error e -> fail_err "graceful mode must not fail" e
      | Ok rep ->
        Alcotest.(check int) "only level 1 realized" 1
          (List.length rep.Placer.levels);
        Alcotest.(check bool) "ladder engaged before the deadline" true
          (List.exists
             (function Placer.Margin_dropped { level = 2 } -> true | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "deadline stop at level 2" true
          (List.exists
             (function
               | Placer.Deadline_stop { level = 2; elapsed; budget } ->
                 elapsed > budget
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "checkpoint finite" true
          (placement_finite rep.Placer.placement))

let test_deadline_during_cg_stagnation_checkpoint () =
  with_inject (fun () ->
      (* permanent CG stagnation (restarts keep failing) plus a delay at
         level 2's start poll: the deadline must still win and return level
         1's checkpoint, with both degradations on the record *)
      Inject.arm Inject.Cg Inject.Stagnate;
      Inject.arm ~after:3 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:false) (small_instance ()) with
      | Error e -> fail_err "graceful mode must not fail" e
      | Ok rep ->
        Alcotest.(check int) "only level 1 realized" 1
          (List.length rep.Placer.levels);
        Alcotest.(check bool) "cg restart recorded" true
          (List.exists
             (function Placer.Cg_restarted _ -> true | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "deadline stop recorded" true
          (List.exists
             (function Placer.Deadline_stop { level = 2; _ } -> true | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "checkpoint finite" true
          (placement_finite rep.Placer.placement))

let test_deadline_during_fault_strict_exit_code () =
  with_inject (fun () ->
      (* strict mode, a silent corruption in flight (sanitizer off, so it
         does not trip) and the budget expiring mid-level: the typed error
         must be the deadline, with its documented exit code *)
      Inject.arm ~after:1 ~times:1 Inject.Mcf Inject.Corrupt;
      Inject.arm ~after:5 Inject.Level (Inject.Delay 100.0);
      match place ~config:(deadline_config ~strict:true) (small_instance ()) with
      | Error (Err.Deadline_exceeded { level; elapsed; budget } as e) ->
        Alcotest.(check int) "inside level 2" 2 level;
        Alcotest.(check bool) "elapsed > budget" true (elapsed > budget);
        Alcotest.(check int) "deadline exit code" 4 (Err.exit_code e)
      | Error e -> fail_err "expected Deadline_exceeded" e
      | Ok _ -> Alcotest.fail "strict mode must surface the deadline")

(* ---------- escaped exceptions ---------- *)

let test_domain_exception_checkpointed () =
  with_inject (fun () ->
      Inject.arm ~after:3 Inject.Level (Inject.Raise "boom");
      match place (small_instance ()) with
      | Error e -> fail_err "graceful mode must not fail" e
      | Ok rep ->
        Alcotest.(check int) "level 1's checkpoint returned" 1
          (List.length rep.Placer.levels);
        Alcotest.(check bool) "abort recorded as Internal" true
          (List.exists
             (function
               | Placer.Level_aborted { level = 2; reason = Err.Internal _ } -> true
               | _ -> false)
             rep.Placer.degradations);
        Alcotest.(check bool) "checkpoint finite" true
          (placement_finite rep.Placer.placement))

let test_domain_exception_strict () =
  with_inject (fun () ->
      Inject.arm ~after:3 Inject.Level (Inject.Raise "boom");
      match place ~config:{ Config.default with strict = true } (small_instance ()) with
      | Error (Err.Internal { msg; _ }) ->
        Alcotest.(check string) "message preserved" "boom" msg
      | Error e -> fail_err "expected Internal" e
      | Ok _ -> Alcotest.fail "strict mode must surface the exception")

(* ---------- runner integration ---------- *)

let test_runner_wires_fallback () =
  with_inject (fun () ->
      (* Runner.run_fbp plugs Recursive bisection in as the fallback, so a
         permanently infeasible flow still yields a legal-izable placement
         end to end *)
      Inject.arm Inject.Mcf (Inject.Infeasible 2.0);
      match Fbp_workloads.Runner.run_fbp ~repartition:0 (small_instance ()) with
      | Error e -> fail_err "runner must degrade, not fail" e
      | Ok m ->
        Alcotest.(check bool) "fallback recorded" true
          (List.exists
             (function Placer.Bisection_fallback _ -> true | _ -> false)
             m.Fbp_workloads.Runner.degradations);
        Alcotest.(check bool) "placement finite" true
          (placement_finite m.Fbp_workloads.Runner.placement))

(* ---------- Mcf eps-degenerate supplies ---------- *)

let test_mcf_degenerate_supplies () =
  (* eps in Mcf is 1e-7: excesses below it are noise, above it must route *)
  let g = Fbp_flow.Graph.create 2 in
  (match Fbp_flow.Mcf.solve g ~supply:[| 5e-8; -5e-8 |] with
  | Fbp_flow.Mcf.Feasible _ -> ()
  | Fbp_flow.Mcf.Infeasible _ -> Alcotest.fail "sub-eps supply must be ignored");
  let g = Fbp_flow.Graph.create 2 in
  (match Fbp_flow.Mcf.solve g ~supply:[| 2e-7; -2e-7 |] with
  | Fbp_flow.Mcf.Infeasible { unrouted } ->
    Alcotest.(check (float 1e-9)) "unrouted = stranded supply" 2e-7 unrouted
  | Fbp_flow.Mcf.Feasible _ -> Alcotest.fail "no arcs: above-eps supply is stranded");
  let g = Fbp_flow.Graph.create 2 in
  ignore (Fbp_flow.Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:1.0);
  match Fbp_flow.Mcf.solve g ~supply:[| 2e-7; -2e-7 |] with
  | Fbp_flow.Mcf.Feasible _ ->
    Alcotest.(check (float 1e-12)) "near-eps flow shipped" 2e-7
      (Fbp_flow.Graph.flow g 0)
  | Fbp_flow.Mcf.Infeasible _ -> Alcotest.fail "near-eps supply must route over the arc"

(* ---------- parallel: no leaked domains ---------- *)

let test_parallel_joins_on_exception () =
  let module Pool = Fbp_util.Pool in
  let n = 100 and n_chunks = 4 in
  let out = Array.make n 0 in
  let run f =
    Pool.run_chunks ~domains:4 ~n_chunks (fun c ->
        let lo, hi = Pool.chunk_bounds ~n ~n_chunks c in
        for i = lo to hi - 1 do
          out.(i) <- f i
        done)
  in
  (try
     run (fun i -> if i = 50 then failwith "kaboom" else i * 2);
     Alcotest.fail "exception swallowed"
   with Failure msg -> Alcotest.(check string) "original exception" "kaboom" msg);
  (* all domains were joined: the pool is immediately reusable and correct *)
  run (fun i -> i * 2);
  Alcotest.(check int) "subsequent run correct" 198 out.(99);
  try
    run (fun i -> if i = 7 then raise Exit else i);
    Alcotest.fail "second exception swallowed"
  with Exit -> ()

let suite =
  [
    Alcotest.test_case "inject schedule" `Quick test_inject_schedule;
    Alcotest.test_case "inject prob deterministic" `Quick test_inject_prob_deterministic;
    Alcotest.test_case "mcf injected strict" `Quick test_mcf_injected_strict;
    Alcotest.test_case "mcf injected fallback" `Quick test_mcf_injected_fallback;
    Alcotest.test_case "mcf injected checkpoint" `Quick
      test_mcf_injected_no_fallback_checkpoints;
    Alcotest.test_case "mcf relaxation recovers" `Quick test_mcf_relaxation_recovers;
    Alcotest.test_case "cg restart at level 0" `Quick test_cg_stagnation_restart_level0;
    Alcotest.test_case "cg stagnation restart" `Quick test_cg_stagnation_restart;
    Alcotest.test_case "cg stagnation on one axis" `Quick test_cg_stagnation_one_axis;
    Alcotest.test_case "cg divergence strict" `Quick test_cg_divergence_strict;
    Alcotest.test_case "cg stagnation graceful" `Quick test_cg_stagnation_graceful_survives;
    Alcotest.test_case "parser rejects malformed" `Quick test_parser_rejects_malformed;
    Alcotest.test_case "parser injected corruption" `Quick test_parser_injected_corruption;
    Alcotest.test_case "deadline returns checkpoint" `Quick test_deadline_returns_checkpoint;
    Alcotest.test_case "deadline strict" `Quick test_deadline_strict;
    Alcotest.test_case "deadline mid-level post-qp" `Quick test_deadline_mid_level_post_qp;
    Alcotest.test_case "deadline mid-level post-flow" `Quick
      test_deadline_mid_level_post_flow;
    Alcotest.test_case "deadline during mcf recovery" `Quick
      test_deadline_during_mcf_recovery_checkpoint;
    Alcotest.test_case "deadline during cg stagnation" `Quick
      test_deadline_during_cg_stagnation_checkpoint;
    Alcotest.test_case "deadline during fault strict exit code" `Quick
      test_deadline_during_fault_strict_exit_code;
    Alcotest.test_case "domain exception checkpointed" `Quick
      test_domain_exception_checkpointed;
    Alcotest.test_case "domain exception strict" `Quick test_domain_exception_strict;
    Alcotest.test_case "runner wires fallback" `Quick test_runner_wires_fallback;
    Alcotest.test_case "mcf degenerate supplies" `Quick test_mcf_degenerate_supplies;
    Alcotest.test_case "parallel joins on exception" `Quick
      test_parallel_joins_on_exception;
  ]
