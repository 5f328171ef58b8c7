(* Property-based scenario fuzzer: the scenario zoo, the fault matrix, the
   per-run invariant checks, shrinking and repro artifacts.  See the
   interface for the contract and DESIGN.md ("Fuzzing & fault matrix") for
   the generator distribution and shrinking strategy.

   Determinism: every random draw routes through Fbp_util.Rng seeded from
   the campaign seed, scenario seeds are derived arithmetically, and the
   report's digest folds the (scenario, outcome) stream — two runs with
   the same seed are bit-identical. *)

open Fbp_netlist
module Err = Fbp_resilience.Fbp_error
module Inject = Fbp_resilience.Inject
module Sanitize = Fbp_resilience.Sanitize
module Shrink = Fbp_resilience.Shrink
module Rng = Fbp_util.Rng
module J = Fbp_util.Json

type mb_shape = No_movebounds | Islands | Flatten | Overlapping | Mixed
type fault_site = Mcf | Cg | Parse | Level | Transport | Legalize
type fault_kind = Infeasible | Stagnate | Corrupt | Raise | Delay

type fault_plan = {
  site : fault_site;
  kind : fault_kind;
  fault_after : int;
}

type scenario = {
  seed : int;
  n_cells : int;
  utilization : float;
  n_macros : int;
  macro_fraction : float;
  avg_net_degree : float;
  locality : float;
  mb_shape : mb_shape;
  n_movebounds : int;
  coverage : float;
  mb_density : float;
  exclusive : bool;
  max_levels : int;
  strict : bool;
  deadline : float option;
  round_trip : bool;
  fault : fault_plan option;
}

type outcome =
  | Passed
  | Typed of Err.t
  | Invariant of string
  | Uncaught of string

type run_result = {
  outcome : outcome;
  fault_fired : bool;
}

type finding = {
  original : scenario;
  shrunk : scenario;
  signature : string;
  detail : string;
  shrink_steps : int;
  artifacts : string list;
}

type report = {
  fuzz_seed : int;
  total_scenarios : int;
  total_runs : int;
  n_passed : int;
  n_typed : int;
  typed_by_class : (string * int) list;
  n_controls : int;
  controls : finding list;
  failures : finding list;
  digest : int;
  truncated : bool;
}

(* ---------------------------------------------------------------- names *)

let site_to_string = function
  | Mcf -> "mcf"
  | Cg -> "cg"
  | Parse -> "parse"
  | Level -> "level"
  | Transport -> "transport"
  | Legalize -> "legalize"

let site_of_string = function
  | "mcf" -> Some Mcf
  | "cg" -> Some Cg
  | "parse" -> Some Parse
  | "level" -> Some Level
  | "transport" -> Some Transport
  | "legalize" -> Some Legalize
  | _ -> None

let kind_to_string = function
  | Infeasible -> "infeasible"
  | Stagnate -> "stagnate"
  | Corrupt -> "corrupt"
  | Raise -> "raise"
  | Delay -> "delay"

let kind_of_string = function
  | "infeasible" -> Some Infeasible
  | "stagnate" -> Some Stagnate
  | "corrupt" -> Some Corrupt
  | "raise" -> Some Raise
  | "delay" -> Some Delay
  | _ -> None

let shape_to_string = function
  | No_movebounds -> "none"
  | Islands -> "islands"
  | Flatten -> "flatten"
  | Overlapping -> "overlapping"
  | Mixed -> "mixed"

let shape_of_string = function
  | "none" -> Some No_movebounds
  | "islands" -> Some Islands
  | "flatten" -> Some Flatten
  | "overlapping" -> Some Overlapping
  | "mixed" -> Some Mixed
  | _ -> None

(* Taxonomy class label (stable; used in the digest and the report). *)
let err_class = function
  | Err.Infeasible_flow _ -> "infeasible-flow"
  | Err.Cg_diverged _ -> "cg-diverged"
  | Err.Parse_error _ -> "parse-error"
  | Err.Deadline_exceeded _ -> "deadline"
  | Err.Capacity_overflow _ -> "capacity-overflow"
  | Err.Invalid_input _ -> "invalid-input"
  | Err.Internal _ -> "internal"
  | Err.Sanitizer_violation { site; _ } -> "sanitizer:" ^ site

let outcome_label = function
  | Passed -> "ok"
  | Typed e -> "typed:" ^ err_class e
  | Invariant msg -> "invariant:" ^ msg
  | Uncaught msg -> "uncaught:" ^ msg

(* ----------------------------------------------------------- generation *)

let matrix_cells =
  [
    (Mcf, Infeasible);
    (Mcf, Corrupt);
    (Mcf, Raise);
    (Cg, Stagnate);
    (Cg, Raise);
    (Parse, Corrupt);
    (Parse, Raise);
    (Level, Delay);
    (Level, Raise);
    (Transport, Corrupt);
    (Transport, Raise);
    (Legalize, Corrupt);
    (Legalize, Raise);
  ]

let with_fault s (site, kind) =
  let fault_after = s.seed land 3 in
  {
    s with
    fault = Some { site; kind; fault_after };
    (* Parse faults only fire on the Bookshelf read path; Delay only bites
       against a deadline (virtual seconds dwarf the wall clock, so the
       outcome stays deterministic) *)
    round_trip = (match site with Parse -> true | _ -> s.round_trip);
    deadline =
      (match (kind, s.deadline) with
      | Delay, None -> Some 0.4
      | _, d -> d);
  }

let gen_scenario rng ~seed =
  (* four floorplan profiles: plain, macro-heavy dead space, near-full
     utilization, degenerate single-level grid *)
  let profile = Rng.int rng 4 in
  let n_cells, utilization, n_macros, macro_fraction, max_levels =
    match profile with
    | 0 ->
      ( 40 + Rng.int rng 180,
        0.55 +. (0.20 *. Rng.float rng),
        Rng.int rng 3,
        0.04 +. (0.05 *. Rng.float rng),
        4 + Rng.int rng 3 )
    | 1 ->
      ( 40 + Rng.int rng 140,
        0.45 +. (0.15 *. Rng.float rng),
        2 + Rng.int rng 5,
        0.25 +. (0.20 *. Rng.float rng),
        4 + Rng.int rng 3 )
    | 2 ->
      ( 40 + Rng.int rng 140,
        0.85 +. (0.10 *. Rng.float rng),
        Rng.int rng 2,
        0.04 +. (0.04 *. Rng.float rng),
        4 + Rng.int rng 3 )
    | _ ->
      ( 16 + Rng.int rng 40,
        0.50 +. (0.20 *. Rng.float rng),
        0,
        0.0,
        1 + Rng.int rng 2 )
  in
  let mb_shape =
    match Rng.int rng 8 with
    | 0 | 1 -> No_movebounds
    | 2 -> Islands
    | 3 | 4 -> Flatten
    | 5 | 6 -> Overlapping
    | _ -> Mixed
  in
  let n_movebounds =
    match mb_shape with
    | No_movebounds -> 0
    | Islands -> 2 + Rng.int rng 3
    | Flatten | Overlapping | Mixed -> 2 + Rng.int rng 7
  in
  let exclusive =
    (* exclusive overlapping bounds are structurally invalid (the paper's
       preprocessing assumption); the zoo reaches that path via [Mixed] *)
    match mb_shape with
    | Islands | Flatten -> Rng.int rng 4 = 0
    | No_movebounds | Overlapping | Mixed -> false
  in
  {
    seed;
    n_cells;
    utilization;
    n_macros;
    macro_fraction;
    avg_net_degree = 2.6 +. (1.6 *. Rng.float rng);
    locality = 0.5 +. (0.45 *. Rng.float rng);
    mb_shape;
    n_movebounds;
    coverage = 0.05 +. (0.70 *. Rng.float rng);
    mb_density = 0.60 +. (0.30 *. Rng.float rng);
    exclusive;
    max_levels;
    strict = Rng.int rng 4 = 0;
    deadline = None;
    round_trip = Rng.int rng 5 = 0;
    fault = None;
  }

let gen_scenario rng ~seed =
  let s = gen_scenario rng ~seed in
  (* even outside --matrix mode, ~30% of the zoo carries an injected fault
     so plain campaigns exercise the taxonomy and the sanitizer controls *)
  if Rng.int rng 10 < 3 then
    with_fault s (Rng.choose rng (Array.of_list matrix_cells))
  else s

(* ------------------------------------------------------------- building *)

let build_design (s : scenario) =
  Generator.generate
    {
      Generator.default_params with
      name = Printf.sprintf "fuzz-%d" s.seed;
      n_cells = s.n_cells;
      utilization = s.utilization;
      n_macros = s.n_macros;
      macro_fraction = s.macro_fraction;
      avg_net_degree = s.avg_net_degree;
      locality = s.locality;
      n_pads = min 32 (max 4 (s.n_cells / 4));
      cluster_size = max 4 (min 48 (s.n_cells / 4));
      seed = s.seed;
    }

(* Write/read through the Bookshelf text format — the Parse fault site
   lives on the read path.  The re-read design keeps the original name:
   [read_file_result] names it after the (random) temp-file basename, and
   the name seeds the movebound generator, so leaking it would make the
   campaign depend on temp-file naming. *)
let round_trip design =
  let path = Filename.temp_file "fbp-fuzz" ".book" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Bookshelf.write_file path design;
      match Bookshelf.read_file_result path with
      | Ok d -> Ok { d with Design.name = design.Design.name }
      | Error _ as e -> e)

let instance_of (s : scenario) design =
  match s.mb_shape with
  | No_movebounds -> Fbp_movebound.Instance.unconstrained design
  | shape ->
    let mb_shape =
      match shape with
      | Islands -> Mb_gen.Islands (max 1 s.n_movebounds)
      | Flatten -> Mb_gen.Flatten (max 1 s.n_movebounds)
      | Overlapping | Mixed -> Mb_gen.Overlapping (max 2 s.n_movebounds)
      | No_movebounds -> Mb_gen.Flatten 1
    in
    let kind =
      if s.exclusive then Fbp_movebound.Movebound.Exclusive
      else Fbp_movebound.Movebound.Inclusive
    in
    let inst =
      Mb_gen.attach
        {
          Mb_gen.design = design.Design.name;
          shape = mb_shape;
          coverage = s.coverage;
          max_density = s.mb_density;
          kind;
        }
        design
    in
    (match shape with
    | Mixed ->
      (* inclusive+exclusive mix: flip every other bound to exclusive
         (overlapping exclusives exercise the validation/normalization
         error paths) *)
      let movebounds =
        Array.map
          (fun (m : Fbp_movebound.Movebound.t) ->
            if m.Fbp_movebound.Movebound.id land 1 = 1 then
              Fbp_movebound.Movebound.make ~id:m.Fbp_movebound.Movebound.id
                ~name:m.Fbp_movebound.Movebound.name
                ~kind:Fbp_movebound.Movebound.Exclusive
                (Fbp_geometry.Rect_set.rects m.Fbp_movebound.Movebound.area)
            else m)
          inst.Fbp_movebound.Instance.movebounds
      in
      { inst with Fbp_movebound.Instance.movebounds }
    | _ -> inst)

(* -------------------------------------------------------------- running *)

let inject_site = function
  | Mcf -> Inject.Mcf
  | Cg -> Inject.Cg
  | Parse -> Inject.Parse
  | Level -> Inject.Level
  | Transport -> Inject.Transport
  | Legalize -> Inject.Legalize

let inject_fault = function
  | Infeasible -> Inject.Infeasible 8.0
  | Stagnate -> Inject.Stagnate
  | Corrupt -> Inject.Corrupt
  | Raise -> Inject.Raise "fuzz-injected fault"
  | Delay -> Inject.Delay 4.0

let classify_exn = function
  | Err.Error t -> Typed t
  | Inject.Injected msg -> Typed (Err.Internal { site = "injected"; msg })
  | e -> Uncaught (Printexc.to_string e)

let finite (p : Placement.t) =
  let ok = ref true in
  Array.iter (fun v -> if not (Float.is_finite v) then ok := false) p.Placement.x;
  Array.iter (fun v -> if not (Float.is_finite v) then ok := false) p.Placement.y;
  !ok

(* Fuzz invariants on a run the placer reported as successful. *)
let check_invariants (s : scenario) ~feasible ~checks_before
    (m : Runner.metrics) =
  let clean =
    Option.is_none s.fault && feasible && not s.strict
    && (match m.Runner.degradations with [] -> true | _ :: _ -> false)
  in
  if not (finite m.Runner.placement) then
    Invariant "non-finite coordinate in final placement"
  else if Option.is_none s.fault && Sanitize.checks_run () <= checks_before
  then Invariant "sanitizer ran no checks on a completed run"
  else if clean && m.Runner.legal && m.Runner.violations > 0 then
    Invariant
      (Printf.sprintf "%d movebound violations on a clean feasible run"
         m.Runner.violations)
  else Passed

(* [place] runs the FBP pipeline; {!write_artifacts} passes one that
   also keeps the run record. *)
let run_scenario_with ~place (s : scenario) =
  let was_sanitize = Sanitize.enabled () in
  Inject.reset ();
  Sanitize.set_enabled true;
  let fired = ref false in
  let note_fired () =
    match s.fault with
    | Some f -> fired := Inject.hits (inject_site f.site) > f.fault_after
    | None -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Inject.reset ();
      Sanitize.set_enabled was_sanitize)
    (fun () ->
      let outcome =
        try
          let design0 = build_design s in
          (* Parse faults must be armed before the round-trip; solver
             faults are armed after the feasibility preflight so the
             preflight itself stays clean. *)
          let arm_if p =
            match s.fault with
            | Some f when p f.site ->
              Inject.arm ~after:f.fault_after (inject_site f.site)
                (inject_fault f.kind)
            | _ -> ()
          in
          arm_if (function Parse -> true | _ -> false);
          let design =
            if s.round_trip then
              match round_trip design0 with
              | Ok d -> d
              | Error e -> Err.raise_error e
            else design0
          in
          let inst = instance_of s design in
          let feasible =
            match Fbp_movebound.Feasibility.check_instance inst with
            | Ok (Fbp_movebound.Feasibility.Feasible, _) -> true
            | Ok (Fbp_movebound.Feasibility.Infeasible _, _) | Error _ ->
              false
          in
          arm_if (function Parse -> false | _ -> true);
          let config =
            {
              Fbp_core.Config.default with
              max_levels = s.max_levels;
              deadline = s.deadline;
              strict = s.strict;
            }
          in
          let checks_before = Sanitize.checks_run () in
          match place ~config inst with
          | Ok m -> check_invariants s ~feasible ~checks_before m
          | Error e ->
            (* the Theorems 1–3 promise: a feasible instance run gracefully
               with no injected fault must yield a placement *)
            if Option.is_none s.fault && feasible && not s.strict then
              Invariant ("feasible graceful run failed: " ^ Err.to_string e)
            else Typed e
        with e -> classify_exn e
      in
      note_fired ();
      { outcome; fault_fired = !fired })

let run_scenario s =
  run_scenario_with s ~place:(fun ~config inst ->
      Runner.run_fbp ~config ~repartition:0 inst)

(* ------------------------------------------------------------- verdicts *)

type verdict =
  | V_pass
  | V_control of string  (* expected sanitizer catch of injected corruption *)
  | V_fail of string

let verdict_of (s : scenario) (rr : run_result) =
  match rr.outcome with
  | Invariant msg -> V_fail ("invariant: " ^ msg)
  | Uncaught msg -> V_fail ("uncaught: " ^ msg)
  | Typed (Err.Sanitizer_violation { site; _ }) -> (
    match s.fault with
    | Some { kind = Corrupt; _ } when rr.fault_fired ->
      V_control ("control:sanitizer:" ^ site)
    | Some _ | None ->
      (* the sanitizer tripping without injected corruption is a real
         solver bug surfaced by the zoo *)
      V_fail ("sanitizer-violation: " ^ site))
  | Typed _ | Passed -> (
    match s.fault with
    | Some { kind = Corrupt; site = (Mcf | Transport | Legalize) as site; _ }
      when rr.fault_fired ->
      V_fail ("escaped-corruption: " ^ site_to_string site)
    | _ -> V_pass)

let signature_of_verdict = function
  | V_pass -> None
  | V_control s | V_fail s -> Some s

(* ------------------------------------------------------------ shrinking *)

(* Candidate reductions, most aggressive first; every candidate stays a
   well-formed scenario (generator floor of 8 cells, shape arities). *)
let shrink_candidates (s : scenario) =
  let cands = ref [] in
  let add c = cands := c :: !cands in
  (match s.mb_shape with
  | No_movebounds -> ()
  | _ ->
    add
      {
        s with
        mb_shape = No_movebounds;
        n_movebounds = 0;
        coverage = 0.0;
        exclusive = false;
      });
  if s.n_cells > 16 then add { s with n_cells = max 16 (s.n_cells / 2) };
  if s.n_macros > 0 then add { s with n_macros = 0; macro_fraction = 0.0 };
  (match s.mb_shape with
  | Mixed -> add { s with mb_shape = Overlapping }
  | _ -> ());
  if s.n_movebounds > 2 then
    add { s with n_movebounds = max 2 (s.n_movebounds / 2) };
  if s.coverage > 0.1 then add { s with coverage = s.coverage /. 2.0 };
  if s.utilization > 0.6 then add { s with utilization = 0.55 };
  if s.max_levels > 1 then add { s with max_levels = s.max_levels - 1 };
  (if s.round_trip then
     match s.fault with
     | Some { site = Parse; _ } -> ()
     | Some _ | None -> add { s with round_trip = false });
  if s.strict then add { s with strict = false };
  if s.n_cells > 16 then add { s with n_cells = s.n_cells - (s.n_cells / 4) };
  List.rev !cands

let shrink_attempts = 24

let shrink (s : scenario) signature =
  Shrink.minimize ~max_attempts:shrink_attempts ~steps:shrink_candidates
    ~still_fails:(fun c ->
      match signature_of_verdict (verdict_of c (run_scenario c)) with
      | Some sig' -> String.equal sig' signature
      | None -> false)
    s

(* ------------------------------------------------------------ artifacts *)

let scenario_to_jobj (s : scenario) =
  J.Obj
    [
      ("seed", J.int s.seed);
      ("n_cells", J.int s.n_cells);
      ("utilization", J.Num s.utilization);
      ("n_macros", J.int s.n_macros);
      ("macro_fraction", J.Num s.macro_fraction);
      ("avg_net_degree", J.Num s.avg_net_degree);
      ("locality", J.Num s.locality);
      ("mb_shape", J.Str (shape_to_string s.mb_shape));
      ("n_movebounds", J.int s.n_movebounds);
      ("coverage", J.Num s.coverage);
      ("mb_density", J.Num s.mb_density);
      ("exclusive", J.Bool s.exclusive);
      ("max_levels", J.int s.max_levels);
      ("strict", J.Bool s.strict);
      ("deadline", match s.deadline with None -> J.Null | Some d -> J.Num d);
      ("round_trip", J.Bool s.round_trip);
      ( "fault",
        match s.fault with
        | None -> J.Null
        | Some f ->
          J.Obj
            [
              ("site", J.Str (site_to_string f.site));
              ("kind", J.Str (kind_to_string f.kind));
              ("after", J.int f.fault_after);
            ] );
    ]

let scenario_to_json s = J.to_string (scenario_to_jobj s)

exception Bad_repro of string

let scenario_of_jobj j =
  let bad msg = raise (Bad_repro msg) in
  let num k =
    match J.member k j with
    | Some (J.Num f) -> f
    | _ -> bad ("missing number " ^ k)
  in
  let int_ k = int_of_float (num k) in
  let bool_ k =
    match J.member k j with
    | Some (J.Bool b) -> b
    | _ -> bad ("missing bool " ^ k)
  in
  let str k =
    match J.member k j with
    | Some (J.Str s) -> s
    | _ -> bad ("missing string " ^ k)
  in
  let fault =
    match J.member "fault" j with
    | None | Some J.Null -> None
    | Some (J.Obj _ as fj) ->
      let fsite =
        match J.member "site" fj with
        | Some (J.Str s) -> s
        | _ -> bad "missing fault site"
      in
      let fkind =
        match J.member "kind" fj with
        | Some (J.Str s) -> s
        | _ -> bad "missing fault kind"
      in
      let after =
        match J.member "after" fj with
        | Some (J.Num f) -> int_of_float f
        | _ -> bad "missing fault after"
      in
      let site =
        match site_of_string fsite with
        | Some s -> s
        | None -> bad ("unknown fault site " ^ fsite)
      in
      let kind =
        match kind_of_string fkind with
        | Some k -> k
        | None -> bad ("unknown fault kind " ^ fkind)
      in
      Some { site; kind; fault_after = after }
    | Some _ -> bad "fault must be an object or null"
  in
  {
    seed = int_ "seed";
    n_cells = int_ "n_cells";
    utilization = num "utilization";
    n_macros = int_ "n_macros";
    macro_fraction = num "macro_fraction";
    avg_net_degree = num "avg_net_degree";
    locality = num "locality";
    mb_shape =
      (let s = str "mb_shape" in
       match shape_of_string s with
       | Some v -> v
       | None -> bad ("unknown mb_shape " ^ s));
    n_movebounds = int_ "n_movebounds";
    coverage = num "coverage";
    mb_density = num "mb_density";
    exclusive = bool_ "exclusive";
    max_levels = int_ "max_levels";
    strict = bool_ "strict";
    deadline =
      (match J.member "deadline" j with
      | None | Some J.Null -> None
      | Some (J.Num f) -> Some f
      | Some _ -> bad "deadline must be a number or null");
    round_trip = bool_ "round_trip";
    fault;
  }

let scenario_of_json text =
  match J.parse text with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> (
    try Ok (scenario_of_jobj j) with Bad_repro msg -> Error msg)

let repro_schema = "fbp-fuzz-repro"

let repro_to_json (f : finding) =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str repro_schema);
         ("version", J.Num 1.0);
         ("signature", J.Str f.signature);
         ("detail", J.Str f.detail);
         ("shrink_steps", J.int f.shrink_steps);
         ("scenario", scenario_to_jobj f.shrunk);
         ("original", scenario_to_jobj f.original);
       ])

let repro_of_json text =
  match J.parse text with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> (
    match J.member "schema" j with
    | Some (J.Str s) when String.equal s repro_schema -> (
      match J.member "scenario" j with
      | Some (J.Obj _ as sj) -> (
        try Ok (scenario_of_jobj sj) with Bad_repro msg -> Error msg)
      | _ -> Error "repro has no scenario object")
    | _ -> Error ("not a " ^ repro_schema ^ " document"))

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_text path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Write the repro JSON plus a flight-recorder run record of the shrunk
   scenario (the post-mortem pair: what to replay and what happened).  The
   names carry the finding's number in the campaign, [index], beside the
   shrunk seed: distinct findings often shrink to the same scenario seed. *)
let write_artifacts ~dir ~index (f : finding) =
  ensure_dir dir;
  let name kind =
    Filename.concat dir (Printf.sprintf "%s-%03d-%d.json" kind index f.shrunk.seed)
  in
  let repro = name "repro" in
  write_text repro (repro_to_json f);
  let record = name "record" in
  let module Rec = Fbp_obs.Recorder in
  let provenance =
    {
      Rec.design = Printf.sprintf "fuzz-%d" f.shrunk.seed;
      cells = f.shrunk.n_cells;
      nets = 0;
      movebounds = f.shrunk.n_movebounds;
      seed = Some f.shrunk.seed;
      tool = "fbp-fuzz";
      config = [ ("signature", f.signature) ];
      host = None;
    }
  in
  let run_record = ref { Rec.empty with provenance } in
  ignore
    (run_scenario_with f.shrunk ~place:(fun ~config inst ->
         let result, r =
           Runner.run_fbp_recorded ~config ~repartition:0 ~provenance inst
         in
         run_record := r;
         result));
  Rec.write_file record !run_record;
  { f with artifacts = [ repro; record ] }

(* ------------------------------------------------------------- campaign *)

let run ?(matrix = false) ?time_cap ?out_dir ~seed ~count () =
  let rng = Rng.create seed in
  let t0 = Fbp_util.Timer.now () in
  let out_of_time () =
    match time_cap with
    | Some cap -> Fbp_util.Timer.now () -. t0 > cap
    | None -> false
  in
  let truncated = ref false in
  let digest = ref 0 in
  let total_runs = ref 0 in
  let n_passed = ref 0 and n_typed = ref 0 in
  let typed_by_class : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let failures = ref [] and controls = ref [] in
  let n_controls = ref 0 in
  (* artifact/shrink budget for expected controls: real failures always
     shrink, controls only up to this cap (they are confirmations, not
     bugs — the cap keeps big campaigns bounded) *)
  let control_budget = ref 8 in
  let n_findings = ref 0 in
  let finish_finding ~collect s signature =
    incr n_findings;
    let m = shrink s signature in
    let shrunk = m.Shrink.value in
    let detail =
      outcome_label (run_scenario shrunk).outcome
    in
    let f =
      {
        original = s;
        shrunk;
        signature;
        detail;
        shrink_steps = m.Shrink.shrink_steps;
        artifacts = [];
      }
    in
    let f =
      match out_dir with
      | Some dir -> write_artifacts ~dir ~index:!n_findings f
      | None -> f
    in
    collect := f :: !collect
  in
  let handle s =
    incr total_runs;
    let rr = run_scenario s in
    digest := Hashtbl.hash (!digest, s.seed, outcome_label rr.outcome);
    (match rr.outcome with
    | Passed -> incr n_passed
    | Typed e ->
      incr n_typed;
      let k = err_class e in
      Hashtbl.replace typed_by_class k
        (1 + Option.value ~default:0 (Hashtbl.find_opt typed_by_class k))
    | Invariant _ | Uncaught _ -> ());
    match verdict_of s rr with
    | V_pass -> ()
    | V_control signature ->
      incr n_controls;
      if !control_budget > 0 then begin
        decr control_budget;
        finish_finding ~collect:controls s signature
      end
    | V_fail signature -> finish_finding ~collect:failures s signature
  in
  let scenarios_done = ref 0 in
  (let i = ref 1 in
   while !i <= count && not !truncated do
     if out_of_time () then truncated := true
     else begin
       let s = gen_scenario rng ~seed:((seed * 1_000_003) + !i) in
       incr scenarios_done;
       if matrix then begin
         handle { s with fault = None };
         List.iter (fun cell -> handle (with_fault s cell)) matrix_cells
       end
       else handle s
     end;
     incr i
   done);
  {
    fuzz_seed = seed;
    total_scenarios = !scenarios_done;
    total_runs = !total_runs;
    n_passed = !n_passed;
    n_typed = !n_typed;
    typed_by_class =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) typed_by_class []);
    n_controls = !n_controls;
    controls = List.rev !controls;
    failures = List.rev !failures;
    digest = !digest land 0x3FFFFFFF;
    truncated = !truncated;
  }

(* ------------------------------------------------------------ reporting *)

let exit_code_of_class cls =
  if String.length cls >= 9 && String.equal (String.sub cls 0 9) "sanitizer"
  then 8
  else
    match cls with
    | "infeasible-flow" | "capacity-overflow" -> 2
    | "parse-error" -> 3
    | "deadline" -> 4
    | "invalid-input" -> 5
    | "cg-diverged" -> 6
    | "internal" -> 7
    | _ -> 1

let render_finding b tag (f : finding) =
  Buffer.add_string b
    (Printf.sprintf "  %s %s\n    shrunk (%d steps): %s\n" tag f.signature
       f.shrink_steps (scenario_to_json f.shrunk));
  List.iter
    (fun path -> Buffer.add_string b (Printf.sprintf "    wrote %s\n" path))
    f.artifacts

let render_report (r : report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "fuzz: seed %d, %d scenarios, %d runs%s\n" r.fuzz_seed
       r.total_scenarios r.total_runs
       (if r.truncated then " (truncated by time cap)" else ""));
  Buffer.add_string b
    (Printf.sprintf "  ok %d, typed %d, corruption controls caught %d\n"
       r.n_passed r.n_typed r.n_controls);
  List.iter
    (fun (cls, n) ->
      Buffer.add_string b
        (Printf.sprintf "    %-24s %5d  [exit %d]\n" cls n
           (exit_code_of_class cls)))
    r.typed_by_class;
  List.iter (fun f -> render_finding b "control" f) r.controls;
  (match r.failures with
  | [] -> Buffer.add_string b "  failures: none\n"
  | fs ->
    Buffer.add_string b (Printf.sprintf "  FAILURES: %d\n" (List.length fs));
    List.iter (fun f -> render_finding b "FAIL" f) fs);
  Buffer.add_string b (Printf.sprintf "  digest: %08x\n" r.digest);
  Buffer.contents b
