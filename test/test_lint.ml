(* Tests for the fbp-lint static analysis: one fixture per rule, path
   scoping, and the inline-suppression machinery.  Fixtures are linted
   as-if at a lib/ path (the strictest scope) unless a test says
   otherwise. *)

module Lint = Fbp_analysis.Lint
module D = Fbp_analysis.Diagnostic

let lint ?(path = "lib/fake/fixture.ml") src = Lint.lint_string ~path src

let has_rule r ds = List.exists (fun (d : D.t) -> String.equal d.D.rule r) ds

let first_line rule ds =
  match List.find_opt (fun (d : D.t) -> String.equal d.D.rule rule) ds with
  | Some d -> d.D.line
  | None -> -1

let check_finds ctx rule ?line ?path src =
  let ds = lint ?path src in
  Alcotest.(check bool) (ctx ^ ": finds " ^ rule) true (has_rule rule ds);
  match line with
  | None -> ()
  | Some l -> Alcotest.(check int) (ctx ^ ": line") l (first_line rule ds)

let check_clean ctx ?path src =
  let ds = lint ?path src in
  Alcotest.(check int)
    (ctx ^ ": clean but got ["
    ^ String.concat "; " (List.map D.to_text ds)
    ^ "]")
    0 (List.length ds)

(* ---------- domain-safety ---------- *)

let test_domain_safety () =
  (* the per-file rule flags module-level mutables in a module that uses
     domain parallelism; what closures capture is the typed pass's
     (test_ip_capture_kinds) *)
  let ds =
    lint
      {|let total = ref 0
let f xs = Fbp_util.Pool.run_chunks ~n_chunks:4 (fun c -> total := !total + xs.(c))
|}
  in
  Alcotest.(check (list int)) "module-level ref flagged at its binding" [ 1 ]
    (List.filter_map
       (fun (d : D.t) ->
         if String.equal d.D.rule "domain-safety" then Some d.D.line else None)
       ds);
  check_finds "module-level Hashtbl in parallel closure" "domain-safety"
    {|let cache = Hashtbl.create 16
let f xs =
  Fbp_util.Pool.run_chunks ~n_chunks:4 (fun c -> Hashtbl.replace cache xs.(c) c)
|};
  check_finds "module-level ref beside a profile hook" "domain-safety"
    {|let n = ref 0
let arm () = Fbp_util.Pool.set_profile_hook (fun _ev -> incr n)
|};
  check_clean "module-level ref in a sequential module"
    {|let hits = ref 0
let f () = incr hits
|}

(* ---------- float-discipline ---------- *)

let test_float_discipline () =
  check_finds "polymorphic compare" "float-discipline" ~line:1
    {|let f a b = compare a b
|};
  check_finds "float equality" "float-discipline"
    {|let close x = x = 1.0
|};
  check_finds "List.mem" "float-discipline"
    {|let f xs = List.mem 3 xs
|};
  check_clean "monomorphic compare"
    {|let f a b = Float.compare a b
let g a b = Int.compare a b
|};
  check_clean "int equality is fine"
    {|let f x = x = 3
|}

(* ---------- determinism ---------- *)

let test_determinism () =
  check_finds "Random outside rng.ml" "determinism" ~line:1
    {|let r () = Random.int 10
|};
  check_finds "Unix.gettimeofday outside timer.ml" "determinism"
    {|let t () = Unix.gettimeofday ()
|};
  (* the fuzzer path is NOT exempt: all fuzz randomness must route through
     Fbp_util.Rng, or campaigns stop replaying from their seed *)
  check_finds "Random.self_init in fuzz code" "determinism" ~line:1
    ~path:"lib/workloads/fuzz.ml"
    {|let seed () = Random.self_init (); Random.bits ()
|};
  check_finds "Random draw in fuzz code" "determinism"
    ~path:"lib/workloads/fuzz.ml"
    {|let pick n = Random.int n
|};
  check_clean "Random inside the rng module" ~path:"lib/util/rng.ml"
    {|let r () = Random.int 10
|};
  check_clean "wall clock inside the timer module" ~path:"lib/util/timer.ml"
    {|let t () = Unix.gettimeofday ()
|}

(* ---------- error-taxonomy ---------- *)

let test_error_taxonomy () =
  check_finds "bare failwith in lib" "error-taxonomy" ~line:1
    {|let f () = failwith "boom"
|};
  check_clean "failwith in bin is allowed" ~path:"bin/tool.ml"
    {|let f () = failwith "boom"
|};
  check_clean "failwith in the resilience layer"
    ~path:"lib/resilience/fbp_error.ml"
    {|let f () = failwith "boom"
|};
  check_finds "anonymous invalid_arg" "error-taxonomy"
    {|let f x = if x < 0 then invalid_arg "bad" else x
|};
  check_clean "invalid_arg naming the function"
    {|let f x = if x < 0 then invalid_arg "Fixture.f: x must be non-negative" else x
|}

(* ---------- io-discipline ---------- *)

let test_io_discipline () =
  check_finds "print_endline in lib" "io-discipline" ~line:1
    {|let f () = print_endline "hello"
|};
  check_finds "Printf.printf in lib" "io-discipline"
    {|let f n = Printf.printf "%d\n" n
|};
  check_clean "printing from bin is fine" ~path:"bin/tool.ml"
    {|let f () = print_endline "hello"
|};
  check_clean "Printf.sprintf is pure"
    {|let f n = Printf.sprintf "%d" n
|}

(* ---------- suppression ---------- *)

let test_suppression_honored () =
  check_clean "directive on the line above"
    ({|(* fbp-|}
    ^ {|lint: allow determinism |} ^ "\xe2\x80\x94" ^ {| fixture *)
let r () = Random.int 10
|});
  check_clean "directive on the same line"
    ({|let r () = Random.int 10 (* fbp-|}
    ^ {|lint: allow determinism |} ^ "\xe2\x80\x94" ^ {| fixture *)
|})

let test_suppression_wrong_rule () =
  (* a directive for another rule does not hide the finding, and is itself
     reported as unused *)
  let ds =
    lint
      ({|(* fbp-|}
      ^ {|lint: allow io-discipline |} ^ "\xe2\x80\x94" ^ {| fixture *)
let r () = Random.int 10
|})
  in
  Alcotest.(check bool) "finding survives" true (has_rule "determinism" ds);
  Alcotest.(check bool) "unused directive reported" true
    (has_rule "lint-directive" ds)

let test_suppression_malformed () =
  let ds = lint ({|(* fbp-|} ^ {|lint: allow *)
let x = 1
|}) in
  Alcotest.(check bool) "malformed directive reported" true
    (has_rule "lint-directive" ds)

let test_suppression_unused () =
  let ds =
    lint
      ({|(* fbp-|}
      ^ {|lint: allow determinism |} ^ "\xe2\x80\x94" ^ {| fixture *)
let x = 1
|})
  in
  Alcotest.(check int) "exactly one diagnostic" 1 (List.length ds);
  Alcotest.(check bool) "it is the unused directive" true
    (has_rule "lint-directive" ds)

(* ---------- reporting ---------- *)

let test_report_shapes () =
  let src = {|let r () = Random.int 10
|} in
  let ds = lint src in
  Alcotest.(check int) "one finding" 1 (List.length ds);
  let d = List.hd ds in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text mentions rule" true
    (contains (D.to_text d) "[determinism]");
  Alcotest.(check bool) "key shape" true
    (String.equal (D.key d) "lib/fake/fixture.ml:1:determinism")

let test_parse_error_is_reported () =
  match Lint.lint_file "/nonexistent/fbp-fixture.ml" with
  | Ok _ -> Alcotest.fail "missing file must not lint clean"
  | Error _ -> ()

(* ---------- ratchet ---------- *)

let test_ratchet () =
  let ds = lint {|let r () = Random.int 10
|} in
  let key = D.key (List.hd ds) in
  let r =
    Lint.ratchet
      ~old_keys:[ key; "stale.ml:3:io-discipline" ]
      ~current:ds
  in
  Alcotest.(check (list string)) "kept" [ key ] r.Lint.kept;
  Alcotest.(check (list string))
    "retired" [ "stale.ml:3:io-discipline" ] r.Lint.retired;
  Alcotest.(check (list string)) "rejected" [] r.Lint.rejected;
  let r = Lint.ratchet ~old_keys:[] ~current:ds in
  Alcotest.(check (list string)) "new finding rejected" [ key ] r.Lint.rejected;
  let r = Lint.ratchet ~old_keys:[ "gone.ml:1:determinism" ] ~current:[] in
  Alcotest.(check (list string))
    "clean run retires everything" [ "gone.ml:1:determinism" ] r.Lint.retired

(* ---------- interprocedural (typed fixtures) ---------- *)

module Ip = Fbp_analysis.Interproc
module Cl = Fbp_analysis.Cmt_loader

(* dune runs the test binary from _build/default/test, where the fixture
   library's build artifacts sit under fixtures/; when invoked from
   elsewhere the typed tests skip (the @lint alias still covers the
   real tree). *)
let fixture_root =
  List.find_opt Sys.file_exists [ "fixtures"; "test/fixtures" ]

(* The resilience library's units load beside the fixtures, so that a
   fixture's chain into [Inject.fire] reaches the registry's state. *)
let resilience_root = "../lib/resilience"

let fixture_result =
  lazy
    (match fixture_root with
    | None -> None
    | Some root ->
      let roots =
        if Sys.file_exists resilience_root then [ root; resilience_root ]
        else [ root ]
      in
      let units, errors = Cl.scan ~roots in
      let cfg =
        {
          (Ip.default_config ~cmt_roots:[ root ]) with
          Ip.det_entries = [ "Fbp_lint_fixtures.Fix_taint.drive" ];
          cli_entries =
            [
              "Fbp_lint_fixtures.Fix_raise.main";
              "Fbp_lint_fixtures.Fix_raise.safe_main";
              "Fbp_lint_fixtures.Fix_raise.typed_main";
            ];
        }
      in
      Some (cfg, units, Ip.analyze_units cfg units errors))

let signature_of r fn =
  match
    List.find_opt (fun (f, _) -> String.equal f fn) r.Ip.signatures
  with
  | Some (_, s) -> s
  | None -> "<missing>"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

let with_fixtures f =
  match Lazy.force fixture_result with
  | None -> () (* no typed artifacts here; covered by @lint *)
  | Some (cfg, units, r) -> f cfg units r

let test_ip_signatures () =
  with_fixtures (fun _ _ r ->
      let check_sig fn expected =
        Alcotest.(check string) fn expected
          (signature_of r ("Fbp_lint_fixtures." ^ fn))
      in
      check_sig "Fix_pure.add" "pure";
      check_sig "Fix_pure.fact" "pure";
      check_sig "Fix_pure.twice" "pure";
      check_sig "Fix_state.bump" "writes_shared(1)";
      check_sig "Fix_state.count" "reads_mutable(1)";
      (* transitive: launch's own text is clean, the write flows in *)
      check_sig "Fix_writer.work" "writes_shared(1)";
      check_sig "Fix_writer.middle" "writes_shared(1)";
      (* taint propagates up the drive -> step -> roll chain *)
      check_sig "Fix_taint.roll" "nondeterministic";
      check_sig "Fix_taint.drive" "nondeterministic";
      (* the even/odd cycle converges with both effects on both members *)
      check_sig "Fix_cycle.even" "writes_shared(1) reads_mutable(1)";
      check_sig "Fix_cycle.odd" "writes_shared(1) reads_mutable(1)";
      (* raises escape boom and main, are caught in guarded/safe_main *)
      Alcotest.(check bool) "boom raises Overflow" true
        (contains
           (signature_of r "Fbp_lint_fixtures.Fix_raise.boom")
           "raises(Overflow)");
      check_sig "Fix_raise.guarded" "pure";
      check_sig "Fix_raise.safe_main" "pure")

let test_ip_seeded_race () =
  with_fixtures (fun _ _ r ->
      (* the per-file rules see nothing: fix_writer.ml has no mutable
         state and fix_state.ml has no parallelism *)
      (match fixture_root with
      | Some root when Sys.file_exists (Filename.concat root "fix_writer.ml")
        ->
        let ic = open_in (Filename.concat root "fix_writer.ml") in
        let src =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        Alcotest.(check bool) "per-file rules miss the race" false
          (has_rule "domain-safety" (lint ~path:"lib/fake/fix_writer.ml" src))
      | _ -> ());
      (* the interprocedural pass reports it with the cross-module chain *)
      let hit =
        List.find_opt
          (fun (d : D.t) ->
            String.equal d.D.rule "domain-safety"
            && contains d.D.msg "Fix_state.bump"
            && contains d.D.file "fix_writer.ml")
          r.Ip.diagnostics
      in
      match hit with
      | None ->
        Alcotest.fail
          ("seeded transitive race not found in:\n"
          ^ String.concat "\n" (List.map D.to_text r.Ip.diagnostics))
      | Some d ->
        Alcotest.(check bool) "chain names the middle hop" true
          (contains d.D.msg "Fix_writer.middle"))

let test_ip_determinism_and_raises () =
  with_fixtures (fun _ _ r ->
      Alcotest.(check bool) "taint reported at roll" true
        (List.exists
           (fun (d : D.t) ->
             String.equal d.D.rule "determinism"
             && contains d.D.file "fix_taint.ml"
             && contains d.D.msg "Fix_taint.drive")
           r.Ip.diagnostics);
      Alcotest.(check bool) "Overflow escaping main reported" true
        (List.exists
           (fun (d : D.t) ->
             String.equal d.D.rule "error-taxonomy"
             && contains d.D.msg "Overflow"
             && contains d.D.msg "Fix_raise.main")
           r.Ip.diagnostics);
      Alcotest.(check bool) "guarded entries stay quiet" false
        (List.exists
           (fun (d : D.t) ->
             String.equal d.D.rule "error-taxonomy"
             && (contains d.D.msg "safe_main"
                || contains d.D.msg "typed_main"))
           r.Ip.diagnostics))

(* Every capture kind, under every Pool entry point (fix_capture.ml):
   each case names its own state, and the finding must name it too. *)
let capture_cases =
  List.concat_map
    (fun (prefix, entry) ->
      List.map
        (fun kind -> (prefix ^ "_" ^ kind, entry))
        [ "ref_read"; "ref_write"; "incr"; "tbl_add"; "tbl_find"; "field";
          "named"; "partial" ])
    [ ("rc", "run_chunks"); ("f2", "fork2"); ("hk", "set_profile_hook") ]
  @ [ ("rc_decr", "run_chunks") ]
  @ List.map
      (fun kind -> ("g_" ^ kind, "run_chunks"))
      [ "ref_read"; "ref_write"; "incr"; "tbl_add"; "tbl_find"; "field";
        "named"; "partial" ]
  @ [ ("g_f2_incr", "fork2"); ("g_hk_incr", "set_profile_hook") ]

let test_ip_capture_kinds () =
  with_fixtures (fun _ _ r ->
      let in_file file (d : D.t) =
        String.equal d.D.rule "domain-safety" && contains d.D.file file
      in
      let flagged (name, entry) =
        List.exists
          (fun (d : D.t) ->
            in_file "fix_capture.ml" d
            && contains d.D.msg ("Pool." ^ entry ^ " ")
            && (contains d.D.msg ("'" ^ name ^ "'")
               || contains d.D.msg ("." ^ name ^ "'")))
          r.Ip.diagnostics
      in
      Alcotest.(check (list string))
        "every capture kind flagged under its entry point" []
        (List.filter_map
           (fun ((name, entry) as case) ->
             if flagged case then None else Some (name ^ " under Pool." ^ entry))
           capture_cases);
      Alcotest.(check (list string))
        "clean closures stay clean" []
        (List.filter_map
           (fun d ->
             if in_file "fix_capture_clean.ml" d then Some (D.to_text d)
             else None)
           r.Ip.diagnostics))

(* The callees of a local work function (fix_work_fn.ml, by name and by
   partial application) and of the local helpers a closure calls
   (fix_helper.ml) run on the workers: a chain from either shape to
   [Inject.fire] is a finding, reported at the first call outside the
   local functions. *)
let test_ip_follows_local_callees () =
  with_fixtures (fun _ _ r ->
      if not (Sys.file_exists resilience_root) then
        Alcotest.failf "no typed units under %s" resilience_root;
      let fire_lines file =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun (d : D.t) ->
               if
                 String.equal d.D.rule "domain-safety"
                 && contains d.D.file file
                 && contains d.D.msg "Pool.run_chunks "
                 && contains d.D.msg "Fbp_resilience.Inject.fire"
               then Some d.D.line
               else None)
             r.Ip.diagnostics)
      in
      let all = String.concat "\n" (List.map D.to_text r.Ip.diagnostics) in
      (* [poll_fault]'s call in each of the two work functions *)
      Alcotest.(check (list int)) ("work-function callees followed:\n" ^ all)
        [ 12; 16 ] (fire_lines "fix_work_fn.ml");
      (* [poll]'s call of [Inject.fire], two helpers below the closure *)
      Alcotest.(check (list int)) ("local helpers followed:\n" ^ all) [ 10 ]
        (fire_lines "fix_helper.ml"))

(* The driver always runs the typed pass: over the fixture sources its
   findings come out per file, and a file no typed unit covers is an
   error, never a per-file-rules-only run. *)
let test_run_paths_typed () =
  Option.iter
    (fun root ->
      let report = Lint.run_paths [ root ] in
      Alcotest.(check (list string)) "every fixture covered" []
        (List.map fst report.Lint.errors);
      Alcotest.(check bool) "typed capture findings merged" true
        (List.exists
           (fun (d : D.t) ->
             String.equal d.D.rule "domain-safety"
             && contains d.D.file "fix_capture.ml"
             && contains d.D.msg "'rc_named'")
           report.Lint.diagnostics))
    fixture_root

let test_uncovered_file_is_error () =
  Option.iter
    (fun root ->
      let report =
        Lint.run_paths ~cmt_roots:[ "/nonexistent-cmt-root" ] [ root ]
      in
      Alcotest.(check bool) "the run fails" true (Lint.failed report);
      Alcotest.(check int) "no typed units" 0 report.Lint.interproc_units;
      Alcotest.(check (list string)) "no per-file-only findings" []
        (List.map D.to_text report.Lint.diagnostics);
      Alcotest.(check int) "one error per file" report.Lint.files_scanned
        (List.length report.Lint.errors);
      List.iter
        (fun (file, why) ->
          Alcotest.(check bool) (file ^ " names dune build @check") true
            (contains why "dune build @check"))
        report.Lint.errors;
      Alcotest.(check bool) "the text report names the file" true
        (contains (Lint.render_text report)
           (Filename.concat root "fix_capture.ml" ^ ": error: ")))
    fixture_root

(* A mistyped root lints nothing; it must fail, naming the root, not pass
   with "0 files scanned". *)
let test_missing_root_is_error () =
  let root = "no_such_dir" in
  let report = Lint.run_paths [ root ] in
  Alcotest.(check bool) "the run fails" true (Lint.failed report);
  Alcotest.(check int) "nothing scanned" 0 report.Lint.files_scanned;
  Alcotest.(check (list string)) "the error names the root" [ root ]
    (List.map fst report.Lint.errors);
  Alcotest.(check bool) "the text report names it" true
    (contains (Lint.render_text report) (root ^ ": error: "))

let render_result r =
  String.concat "\n" (List.map D.to_text r.Ip.diagnostics)
  ^ "\n"
  ^ String.concat "\n"
      (List.map (fun (f, s) -> f ^ " : " ^ s) r.Ip.signatures)

let test_ip_byte_stable () =
  with_fixtures (fun cfg units r ->
      let again = Ip.analyze_units cfg units [] in
      Alcotest.(check string)
        "two fixture analyses render identically" (render_result r)
        (render_result again));
  (* e2e over the real library tree when its artifacts are reachable *)
  let lib = "../lib" in
  if Sys.file_exists lib && Sys.is_directory lib then begin
    let units, errors = Cl.scan ~roots:[ lib ] in
    if not (List.is_empty units) then begin
      let cfg = Ip.default_config ~cmt_roots:[ lib ] in
      let a = Ip.analyze_units cfg units errors in
      let b = Ip.analyze_units cfg units errors in
      Alcotest.(check string)
        "two lib/ analyses render identically" (render_result a)
        (render_result b);
      Alcotest.(check bool) "a real number of units" true
        (a.Ip.units_loaded > 30)
    end
  end

let test_repo_is_clean () =
  (* the repo lints itself clean: same invariant CI enforces via @lint.
     The dune test sandbox has no source tree; skip there (the @lint
     alias still covers it). *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let report = Lint.run_paths [ "lib"; "bin" ] in
    Alcotest.(check bool)
      ("no findings, got:\n" ^ Lint.render_text report)
      false (Lint.failed report);
    Alcotest.(check bool) "scanned a real number of files" true
      (report.Lint.files_scanned > 40)
  end

let suite =
  [
    Alcotest.test_case "domain-safety rule" `Quick test_domain_safety;
    Alcotest.test_case "float-discipline rule" `Quick test_float_discipline;
    Alcotest.test_case "determinism rule" `Quick test_determinism;
    Alcotest.test_case "error-taxonomy rule" `Quick test_error_taxonomy;
    Alcotest.test_case "io-discipline rule" `Quick test_io_discipline;
    Alcotest.test_case "suppression honored" `Quick test_suppression_honored;
    Alcotest.test_case "suppression wrong rule" `Quick test_suppression_wrong_rule;
    Alcotest.test_case "suppression malformed" `Quick test_suppression_malformed;
    Alcotest.test_case "suppression unused" `Quick test_suppression_unused;
    Alcotest.test_case "report shapes" `Quick test_report_shapes;
    Alcotest.test_case "unreadable file" `Quick test_parse_error_is_reported;
    Alcotest.test_case "baseline ratchet" `Quick test_ratchet;
    Alcotest.test_case "interproc signatures" `Quick test_ip_signatures;
    Alcotest.test_case "interproc seeded race" `Quick test_ip_seeded_race;
    Alcotest.test_case "interproc capture kinds" `Quick test_ip_capture_kinds;
    Alcotest.test_case "interproc follows local callees" `Quick
      test_ip_follows_local_callees;
    Alcotest.test_case "run_paths runs the typed pass" `Quick
      test_run_paths_typed;
    Alcotest.test_case "uncovered file is an error" `Quick
      test_uncovered_file_is_error;
    Alcotest.test_case "missing root is an error" `Quick
      test_missing_root_is_error;
    Alcotest.test_case "interproc determinism+raises" `Quick
      test_ip_determinism_and_raises;
    Alcotest.test_case "interproc byte-stable" `Quick test_ip_byte_stable;
    Alcotest.test_case "repo lints clean" `Quick test_repo_is_clean;
  ]
