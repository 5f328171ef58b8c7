(* Tests for the flow-invariant sanitizer mode: the check runner itself,
   each per-stage invariant (MCF flow, transport balance, CSR structure),
   and the end-to-end behavior — a clean sanitized run succeeds while an
   injected flow corruption surfaces as a typed Sanitizer_violation that
   the placer refuses to degrade away.  The enable flag is process-global,
   so every test restores it in a [finally]. *)

open Fbp_flow
module Sanitize = Fbp_resilience.Sanitize
module Inject = Fbp_resilience.Inject
module Err = Fbp_resilience.Fbp_error

let with_sanitize f =
  let was = Sanitize.enabled () in
  Sanitize.set_enabled true;
  Fun.protect ~finally:(fun () -> Sanitize.set_enabled was) f

let with_inject f = Fun.protect ~finally:Inject.reset f

(* ---------- the runner ---------- *)

let test_check_disabled_is_free () =
  Sanitize.set_enabled false;
  let evaluated = ref false in
  Sanitize.check ~site:"t" ~invariant:"i" (fun () ->
      evaluated := true;
      Error "never seen");
  Alcotest.(check bool) "thunk not evaluated when disabled" false !evaluated

let test_check_enabled_raises_typed () =
  with_sanitize (fun () ->
      let before = Sanitize.checks_run () in
      Sanitize.check ~site:"t" ~invariant:"i" (fun () -> Ok ());
      Alcotest.(check int) "check counted" (before + 1) (Sanitize.checks_run ());
      match
        Sanitize.check ~site:"mcf.solve" ~invariant:"conservation" (fun () ->
            Error "node 3 leaks")
      with
      | () -> Alcotest.fail "violation must raise"
      | exception Err.Error (Err.Sanitizer_violation { site; invariant; detail })
        ->
        Alcotest.(check string) "site" "mcf.solve" site;
        Alcotest.(check string) "invariant" "conservation" invariant;
        Alcotest.(check string) "detail" "node 3 leaks" detail)

let test_exit_code_is_8 () =
  Alcotest.(check int) "sanitizer violations exit 8" 8
    (Err.exit_code
       (Err.Sanitizer_violation { site = "s"; invariant = "i"; detail = "d" }))

(* ---------- MCF flow invariants ---------- *)

(* 0 --(cap 3)--> 1 --(cap 3)--> 2, supply 2 at node 0, demand 2 at node 2 *)
let small_flow () =
  let g = Graph.create 3 in
  let a01 = Graph.add_edge g ~u:0 ~v:1 ~cap:3.0 ~cost:1.0 in
  let a12 = Graph.add_edge g ~u:1 ~v:2 ~cap:3.0 ~cost:1.0 in
  let supply = [| 2.0; 0.0; -2.0 |] in
  (g, supply, a01, a12)

let test_check_flow_accepts_solver_output () =
  let g, supply, _, _ = small_flow () in
  (match Mcf.solve g ~supply with
  | Mcf.Feasible _ -> ()
  | Mcf.Infeasible _ -> Alcotest.fail "path instance must be feasible");
  match Mcf.check_flow g ~supply ~exact:true with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("solver output must verify: " ^ msg)

let test_check_flow_catches_conservation_break () =
  let g, supply, a01, _ = small_flow () in
  (match Mcf.solve g ~supply with Mcf.Feasible _ -> () | _ -> assert false);
  (* extra flow into node 1 that never leaves: conservation broken *)
  Graph.push g a01 0.5;
  match Mcf.check_flow g ~supply ~exact:true with
  | Ok () -> Alcotest.fail "tampered flow must not verify"
  | Error _ -> ()

let test_check_flow_catches_capacity_break () =
  let g, supply, a01, a12 = small_flow () in
  (match Mcf.solve g ~supply with Mcf.Feasible _ -> () | _ -> assert false);
  (* conservation-preserving overflow: push 2 more through the whole path,
     total 4 > capacity 3 on both arcs *)
  Graph.push g a01 2.0;
  Graph.push g a12 2.0;
  match Mcf.check_flow g ~supply:[| 4.0; 0.0; -4.0 |] ~exact:true with
  | Ok () -> Alcotest.fail "over-capacity flow must not verify"
  | Error _ -> ()

let test_solve_under_sanitizer_passes () =
  with_sanitize (fun () ->
      let g, supply, _, _ = small_flow () in
      match Mcf.solve g ~supply with
      | Mcf.Feasible _ -> ()
      | Mcf.Infeasible _ -> Alcotest.fail "feasible instance")

let test_injected_corruption_trips_sanitizer () =
  with_sanitize (fun () ->
      with_inject (fun () ->
          Inject.arm Inject.Mcf Inject.Corrupt;
          let g, supply, _, _ = small_flow () in
          match Mcf.solve g ~supply with
          | _ -> Alcotest.fail "corrupted flow must trip the sanitizer"
          | exception Err.Error (Err.Sanitizer_violation { site; _ }) ->
            Alcotest.(check string) "at the mcf site" "mcf.solve" site))

(* ---------- MCF optimality certificate ---------- *)

let certificate_violation f =
  match f () with
  | () -> Alcotest.fail "a broken certificate must trip the sanitizer"
  | exception Err.Error (Err.Sanitizer_violation { site; invariant; _ }) ->
    Alcotest.(check string) "at the mcf site" "mcf.solve" site;
    Alcotest.(check string) "the certificate check" "reduced-cost optimality certificate"
      invariant

let test_certificate_accepts_solver_output () =
  with_sanitize (fun () ->
      let g, supply, _, _ = small_flow () in
      let before = Sanitize.checks_run () in
      let out = Mcf.solve_stats g ~supply in
      Alcotest.(check int) "flow and certificate checks ran" (before + 2)
        (Sanitize.checks_run ());
      Mcf.audit g ~supply out)

let test_certificate_catches_perturbed_potential () =
  let g, supply, _, _ = small_flow () in
  let verdict, stats = Mcf.solve_stats g ~supply in
  (* lifting node 1 gives the carrying, unsaturated arc 0->1 a negative
     reduced cost *)
  let potentials = Array.copy stats.Mcf.potentials in
  potentials.(1) <- potentials.(1) +. 5.0;
  with_sanitize (fun () ->
      certificate_violation (fun () ->
          Mcf.audit g ~supply (verdict, { stats with Mcf.potentials })))

let test_certificate_catches_suboptimal_flow () =
  (* two routes 0->1->3 (cost 2) and 0->2->3 (cost 4); moving one unit
     from the cheap route to the dear one keeps the flow feasible, so only
     the certificate can object *)
  let g = Graph.create 4 in
  let a01 = Graph.add_edge g ~u:0 ~v:1 ~cap:5.0 ~cost:1.0 in
  let a02 = Graph.add_edge g ~u:0 ~v:2 ~cap:5.0 ~cost:3.0 in
  let a13 = Graph.add_edge g ~u:1 ~v:3 ~cap:5.0 ~cost:1.0 in
  let a23 = Graph.add_edge g ~u:2 ~v:3 ~cap:5.0 ~cost:1.0 in
  let supply = [| 2.0; 0.0; 0.0; -2.0 |] in
  let out = Mcf.solve_stats g ~supply in
  Graph.push g a01 (-1.0);
  Graph.push g a13 (-1.0);
  Graph.push g a02 1.0;
  Graph.push g a23 1.0;
  (match Mcf.check_flow g ~supply ~exact:true with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("rerouted flow is still feasible: " ^ msg));
  with_sanitize (fun () -> certificate_violation (fun () -> Mcf.audit g ~supply out))

(* ---------- transport balance ---------- *)

let transport_problem () =
  {
    Transport.n = 4;
    k = 2;
    sizes = [| 1.0; 2.0; 1.5; 0.5 |];
    capacities = [| 3.0; 3.0 |];
    cost =
      Array.init 8 (fun ij ->
          let i = ij / 2 and j = ij mod 2 in
          Float.abs (float_of_int i -. (3.0 *. float_of_int j)));
  }

(* [a] with cell [i]'s chain replaced by new entries holding [entries] in
   order, appended past [a]'s own. *)
let with_chain (a : Transport.assignment) i entries =
  let used = Array.length a.Transport.sink and m = List.length entries in
  let extend arr fill = Array.append arr (Array.make m fill) in
  let head = Array.copy a.Transport.head and sink = extend a.Transport.sink 0 in
  let frac = extend a.Transport.frac 0.0 and next = extend a.Transport.next (-1) in
  List.iteri
    (fun t (j, f) ->
      let e = used + t in
      sink.(e) <- j;
      frac.(e) <- f;
      next.(e) <- (if t + 1 < m then e + 1 else -1))
    entries;
  head.(i) <- (if m = 0 then -1 else used);
  { a with Transport.head; sink; frac; next }

let test_transport_audit_accepts_solver_output () =
  let p = transport_problem () in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a -> (
    match Transport.audit p a with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("solver output must verify: " ^ msg))

let test_transport_audit_catches_tampering () =
  let p = transport_problem () in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    (* column tamper: reported load no longer matches the fractions *)
    a.Transport.load.(0) <- a.Transport.load.(0) +. 1.0;
    (match Transport.audit p a with
    | Ok () -> Alcotest.fail "tampered load must not verify"
    | Error _ -> ());
    (* row tamper: a cell loses mass *)
    (match Transport.solve p with
    | Error e -> Alcotest.fail e
    | Ok a2 ->
      (match Transport.audit p (with_chain a2 0 [ (0, 0.25) ]) with
      | Ok () -> Alcotest.fail "short row must not verify"
      | Error _ -> ());
      (* the same tamper in place, on the solver's own entry *)
      let e = a2.Transport.head.(0) in
      a2.Transport.sink.(e) <- 0;
      a2.Transport.frac.(e) <- 0.25;
      a2.Transport.next.(e) <- -1;
      (match Transport.audit p a2 with
      | Ok () -> Alcotest.fail "short row must not verify"
      | Error _ -> ());
      (* a chain that never ends *)
      (match Transport.solve p with
      | Error e -> Alcotest.fail e
      | Ok a3 ->
        let e = a3.Transport.head.(1) in
        a3.Transport.next.(e) <- e;
        (match Transport.audit p a3 with
        | Ok () -> Alcotest.fail "a cyclic chain must not verify"
        | Error _ -> ())))

let test_transport_solve_under_sanitizer () =
  with_sanitize (fun () ->
      match Transport.solve (transport_problem ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

(* ---------- transport sink-price certificate ---------- *)

(* sink 0 starts 0.5 overfull, so the solver moves half a unit of cell 1
   (the cheapest to relocate) and prices sink 1 at 1 *)
let overloaded_transport () =
  { (transport_problem ()) with Transport.capacities = [| 2.5; 3.5 |] }

let certificate_rejects what p a =
  match Transport.audit p a with
  | Ok () -> Alcotest.failf "%s must not verify" what
  | Error _ -> ()

let test_transport_certificate_accepts_solver_output () =
  let p = overloaded_transport () in
  with_sanitize (fun () ->
      List.iter
        (fun (what, solve) ->
          match solve p with
          | Error e -> Alcotest.fail e
          | Ok a -> (
            Alcotest.(check bool) (what ^ ": prices differ") true
              (a.Transport.prices.(0) <> a.Transport.prices.(1));
            match Transport.audit p a with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s output must verify: %s" what msg))
        [ ("solve", fun p -> Transport.solve p); ("solve_exact", Transport.solve_exact) ])

let test_transport_certificate_catches_perturbed_price () =
  let p = overloaded_transport () in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    (* cheaper to leave sink 0 now: cell 1's share there is no longer at a
       minimum of cost - price *)
    let prices = Array.copy a.Transport.prices in
    prices.(1) <- prices.(1) +. 0.5;
    certificate_rejects "a perturbed price" p { a with Transport.prices }

let test_transport_certificate_catches_costlier_swap () =
  let p = overloaded_transport () in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    (* cell 0 (size 1) to sink 1 and two thirds of cell 2 (size 1.5) to sink
       0: every load stays, the cost rises by 4 *)
    let swapped =
      with_chain (with_chain a 0 [ (1, 1.0) ]) 2
        [ (0, 2.0 /. 3.0); (1, 1.0 /. 3.0) ]
    in
    Alcotest.(check bool) "costlier" true
      (Transport.total_cost p swapped > a.Transport.cost +. 3.0);
    certificate_rejects "a costlier swap" p swapped

(* ---------- CSR structure ---------- *)

let test_csr_validate_frozen () =
  let b = Fbp_linalg.Csr.builder 4 in
  (* insertion order deliberately scrambled; duplicates accumulate *)
  Fbp_linalg.Csr.add b ~row:2 ~col:3 1.0;
  Fbp_linalg.Csr.add b ~row:0 ~col:2 5.0;
  Fbp_linalg.Csr.add b ~row:0 ~col:0 1.0;
  Fbp_linalg.Csr.add b ~row:0 ~col:2 (-2.0);
  Fbp_linalg.Csr.add_spring b 1 3 2.0;
  let t = Fbp_linalg.Csr.freeze b in
  (match Fbp_linalg.Csr.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("frozen matrix must validate: " ^ msg));
  Alcotest.(check (float 1e-12)) "duplicates accumulated" 3.0
    (Fbp_linalg.Csr.get t 0 2)

let test_csr_freeze_under_sanitizer () =
  with_sanitize (fun () ->
      let b = Fbp_linalg.Csr.builder 3 in
      Fbp_linalg.Csr.add_spring b 0 2 1.0;
      Fbp_linalg.Csr.add_diag b 1 4.0;
      let t = Fbp_linalg.Csr.freeze b in
      Alcotest.(check int) "dim" 3 (Fbp_linalg.Csr.dim t))

(* ---------- end to end ---------- *)

let small_instance () =
  let d = Fbp_netlist.Generator.quick ~seed:11 ~name:"sanitize" 300 in
  Fbp_movebound.Instance.unconstrained d

let test_sanitized_place_succeeds () =
  let place () =
    match Fbp_core.Placer.place (small_instance ()) with
    | Error e -> Alcotest.fail (Err.to_string e)
    | Ok rep -> rep.Fbp_core.Placer.placement
  in
  let was = Sanitize.enabled () in
  Sanitize.set_enabled false;
  let off = Fun.protect ~finally:(fun () -> Sanitize.set_enabled was) place in
  with_sanitize (fun () ->
      let before = Sanitize.checks_run () in
      let on_ = place () in
      Alcotest.(check bool) "sanitizer actually ran checks" true
        (Sanitize.checks_run () > before);
      (* the sanitizer is an observer: its checks only read solver state,
         so the placement is bit-identical with it off and on *)
      let bits a = Array.map Int64.bits_of_float a in
      Alcotest.(check (array int64)) "x bit-identical"
        (bits off.Fbp_netlist.Placement.x) (bits on_.Fbp_netlist.Placement.x);
      Alcotest.(check (array int64)) "y bit-identical"
        (bits off.Fbp_netlist.Placement.y) (bits on_.Fbp_netlist.Placement.y))

let test_corruption_stops_even_graceful_mode () =
  with_sanitize (fun () ->
      with_inject (fun () ->
          (* graceful (non-strict) mode degrades most failures away; a
             sanitizer violation must hard-stop instead *)
          Inject.arm Inject.Mcf Inject.Corrupt;
          match Fbp_core.Placer.place (small_instance ()) with
          | Error (Err.Sanitizer_violation { site; _ }) ->
            Alcotest.(check string) "mcf site" "mcf.solve" site
          | Error e -> Alcotest.fail ("wrong error: " ^ Err.to_string e)
          | Ok _ -> Alcotest.fail "corruption must not yield a placement"))

let test_corruption_unnoticed_without_sanitizer () =
  (* control: same fault, sanitizer off — the run completes, which is
     exactly the silent-wrong-answer mode the sanitizer exists to catch *)
  with_inject (fun () ->
      Sanitize.set_enabled false;
      Inject.arm Inject.Mcf Inject.Corrupt;
      match Fbp_core.Placer.place (small_instance ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("unsanitized run failed: " ^ Err.to_string e))

(* ---------- transport injection site ---------- *)

let test_transport_injected_corruption_trips () =
  with_sanitize (fun () ->
      with_inject (fun () ->
          Inject.arm Inject.Transport Inject.Corrupt;
          match Transport.solve (transport_problem ()) with
          | _ -> Alcotest.fail "corrupted transport must trip the sanitizer"
          | exception Err.Error (Err.Sanitizer_violation { site; _ }) ->
            Alcotest.(check string) "at the transport site" "transport.solve"
              site))

let test_transport_injected_raise () =
  with_inject (fun () ->
      Inject.arm Inject.Transport (Inject.Raise "boom");
      match Transport.solve (transport_problem ()) with
      | _ -> Alcotest.fail "armed raise must fire"
      | exception Inject.Injected msg ->
        Alcotest.(check string) "message" "boom" msg)

let test_transport_corruption_unnoticed_without_sanitizer () =
  with_inject (fun () ->
      Sanitize.set_enabled false;
      Inject.arm Inject.Transport Inject.Corrupt;
      match Transport.solve (transport_problem ()) with
      | Ok a ->
        (* the corruption really happened: the audit fails after the fact *)
        (match Transport.audit (transport_problem ()) a with
        | Ok () -> Alcotest.fail "corrupted output must not audit clean"
        | Error _ -> ())
      | Error e -> Alcotest.fail e)

(* ---------- legalize injection site ---------- *)

let legalize_small () =
  let d = Fbp_netlist.Generator.quick ~seed:13 ~name:"lg-inject" 200 in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:d.Fbp_netlist.Design.chip
      inst.Fbp_movebound.Instance.movebounds
  in
  let pos = Fbp_netlist.Placement.copy d.Fbp_netlist.Design.initial in
  let n = Fbp_netlist.Netlist.n_cells d.Fbp_netlist.Design.netlist in
  Fbp_legalize.Legalizer.run inst regions pos
    ~piece_of_cell:(Array.make n (-1)) ~grid:None

let test_legalize_injected_corruption_trips () =
  with_sanitize (fun () ->
      with_inject (fun () ->
          Inject.arm Inject.Legalize Inject.Corrupt;
          match legalize_small () with
          | _ -> Alcotest.fail "corrupted legalization must trip the sanitizer"
          | exception Err.Error (Err.Sanitizer_violation { site; invariant; _ })
            ->
            Alcotest.(check string) "at the legalize site" "legalize.run" site;
            Alcotest.(check string) "containment invariant" "chip containment"
              invariant))

let test_legalize_injected_raise () =
  with_inject (fun () ->
      Inject.arm Inject.Legalize (Inject.Raise "legalize down");
      match legalize_small () with
      | _ -> Alcotest.fail "armed raise must fire"
      | exception Inject.Injected msg ->
        Alcotest.(check string) "message" "legalize down" msg)

let test_legalize_clean_run_passes_sanitizer () =
  with_sanitize (fun () ->
      let before = Sanitize.checks_run () in
      let st = legalize_small () in
      Alcotest.(check int) "no failures" 0 st.Fbp_legalize.Legalizer.n_failed;
      Alcotest.(check bool) "containment check ran" true
        (Sanitize.checks_run () > before))

(* ---------- run record on sanitizer-violation exits ---------- *)

let test_record_written_on_sanitizer_violation () =
  (* regression: a sanitizer violation raised from the post-placement
     stages (legalization) must come back as a typed [Error] value from the
     runner — not an exception unwinding past the CLI's record-writing exit
     path — and the run record returned beside it must keep the levels
     completed before the failure and read back from its file *)
  with_sanitize (fun () ->
      with_inject (fun () ->
          let module Rec = Fbp_obs.Recorder in
          Inject.arm Inject.Legalize Inject.Corrupt;
          let inst = small_instance () in
          let result, record =
            Fbp_workloads.Runner.run_fbp_recorded
              ~provenance:Rec.empty.Rec.provenance inst
          in
          (match result with
          | Ok _ -> Alcotest.fail "corruption must not yield metrics"
          | Error (Err.Sanitizer_violation { site; _ }) ->
            Alcotest.(check string) "legalize site" "legalize.run" site
          | Error e -> Alcotest.fail ("wrong error: " ^ Err.to_string e));
          let path = Filename.temp_file "fbp-record" ".json" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Rec.write_file path record;
              match Rec.read_file path with
              | Ok r ->
                Alcotest.(check bool) "record has levels" true
                  (List.length r.Rec.levels > 0)
              | Error msg -> Alcotest.fail ("record must read back: " ^ msg))))

let suite =
  [
    Alcotest.test_case "disabled check is free" `Quick test_check_disabled_is_free;
    Alcotest.test_case "enabled check raises typed" `Quick
      test_check_enabled_raises_typed;
    Alcotest.test_case "exit code 8" `Quick test_exit_code_is_8;
    Alcotest.test_case "mcf: solver output verifies" `Quick
      test_check_flow_accepts_solver_output;
    Alcotest.test_case "mcf: conservation break caught" `Quick
      test_check_flow_catches_conservation_break;
    Alcotest.test_case "mcf: capacity break caught" `Quick
      test_check_flow_catches_capacity_break;
    Alcotest.test_case "mcf: sanitized solve passes" `Quick
      test_solve_under_sanitizer_passes;
    Alcotest.test_case "mcf: injected corruption trips" `Quick
      test_injected_corruption_trips_sanitizer;
    Alcotest.test_case "mcf: certificate verifies" `Quick
      test_certificate_accepts_solver_output;
    Alcotest.test_case "mcf: perturbed potential caught" `Quick
      test_certificate_catches_perturbed_potential;
    Alcotest.test_case "mcf: suboptimal flow caught" `Quick
      test_certificate_catches_suboptimal_flow;
    Alcotest.test_case "transport: solver output verifies" `Quick
      test_transport_audit_accepts_solver_output;
    Alcotest.test_case "transport: tampering caught" `Quick
      test_transport_audit_catches_tampering;
    Alcotest.test_case "transport: sanitized solve passes" `Quick
      test_transport_solve_under_sanitizer;
    Alcotest.test_case "transport: certificate verifies" `Quick
      test_transport_certificate_accepts_solver_output;
    Alcotest.test_case "transport: perturbed price caught" `Quick
      test_transport_certificate_catches_perturbed_price;
    Alcotest.test_case "transport: costlier swap caught" `Quick
      test_transport_certificate_catches_costlier_swap;
    Alcotest.test_case "csr: frozen matrix validates" `Quick
      test_csr_validate_frozen;
    Alcotest.test_case "csr: sanitized freeze passes" `Quick
      test_csr_freeze_under_sanitizer;
    Alcotest.test_case "e2e: sanitized place succeeds" `Quick
      test_sanitized_place_succeeds;
    Alcotest.test_case "e2e: corruption hard-stops" `Quick
      test_corruption_stops_even_graceful_mode;
    Alcotest.test_case "e2e: control without sanitizer" `Quick
      test_corruption_unnoticed_without_sanitizer;
    Alcotest.test_case "transport: injected corruption trips" `Quick
      test_transport_injected_corruption_trips;
    Alcotest.test_case "transport: injected raise" `Quick
      test_transport_injected_raise;
    Alcotest.test_case "transport: control without sanitizer" `Quick
      test_transport_corruption_unnoticed_without_sanitizer;
    Alcotest.test_case "legalize: injected corruption trips" `Quick
      test_legalize_injected_corruption_trips;
    Alcotest.test_case "legalize: injected raise" `Quick
      test_legalize_injected_raise;
    Alcotest.test_case "legalize: clean run passes sanitizer" `Quick
      test_legalize_clean_run_passes_sanitizer;
    Alcotest.test_case "record written on sanitizer violation" `Quick
      test_record_written_on_sanitizer_violation;
  ]
