(* fbp-bench: the canonical benchmark.

   Each job runs the user pipeline on a generated design, exactly the call
   sequence of [Runner.run_fbp], repeated here so that each layer call can
   be timed from outside:

     Bookshelf file -> Bookshelf.read_file -> Placer.place ~fallback
       -> Repartition.refine ~sweeps:1 -> Legalizer.run
       -> Check.audit + Legality.check

   A workload is a set of designs and a domain count.  Its set-up generates
   the designs (the seed is added to every Table II spec seed), writes them
   as Bookshelf files and keeps the movebound table; the placer receives
   only those files plus that table.  Every design then gets one discarded
   warm-up job, which is [Runner.run_fbp] itself on the in-memory design at
   one domain, and a closed loop of back-to-back jobs follows.  Every timed
   job must reproduce the warm-up's HPWL bit for bit, which checks both that
   this call sequence is the same program and that domain count does not
   change results.  End-to-end metrics come from this untraced pass; the
   per-layer metrics come from a separate traced pass afterwards (one job
   per design with Obs spans and the Profiler armed).

     fbp_bench.exe --workload W --seed N --seconds S --trace 0|1
                   [--json PATH] [--trace-out PATH]
         one workload in this process; prints every metric with its unit
         and, as the last line, {"correct","attempted","failed","metrics"}
         holding the end-to-end metrics (--trace 0) or the per-layer ones
         (--trace 1).  Exit 1 when a check failed.
     fbp_bench.exe [--seed N] [--seconds S] [--json PATH] [--trace-out PATH]
         all workloads, each in its own child process, traced pass on.
     fbp_bench.exe --smoke [--benchmark PATH]
         all workloads on one small design each, one timed job; validates
         the output, the traces and the metric table of BENCHMARK.json.
     fbp_bench.exe --compare A.json B.json [--benchmark PATH]
         per workload and end-to-end metric: both medians, quartiles and a
         verdict against the bounds in BENCHMARK.json.

   Run from the repository root; scratch files go to ./.fbp_bench and are
   removed on exit. *)

open Fbp_netlist
module J = Fbp_obs.Obs.Json
module Obs = Fbp_obs.Obs
module Profiler = Fbp_obs.Profiler
module Pool = Fbp_util.Pool
module Stats = Fbp_util.Stats
module Timer = Fbp_util.Timer
module Instance = Fbp_movebound.Instance
module Config = Fbp_core.Config
module Placer = Fbp_core.Placer
module Mb_gen = Fbp_workloads.Mb_gen

(* ------------------------------------------------------------ workloads *)

type workload = {
  name : string;
  designs : string list;  (* Table II spec names *)
  scenario : Mb_gen.scenario option;
  domains : int;
}

let workloads =
  let erhard_f16 =
    List.find
      (fun (s : Mb_gen.scenario) -> String.equal s.Mb_gen.design "erhard")
      Mb_gen.table3_scenarios
  in
  [
    (* biggest plain design: realization+transport and MCF dominate *)
    { name = "plain_large"; designs = [ "erik" ]; scenario = None; domains = 1 };
    (* the same files at two domains: the only workload with parallel waves *)
    { name = "plain_large_par"; designs = [ "erik" ]; scenario = None; domains = 2 };
    (* Table III erhard, Flatten 16, 80% bound: MCF dominates.  The other
       Table III scenarios end with legalizer-failed cells at scale 2. *)
    { name = "mb_dense"; designs = [ "erhard" ]; scenario = Some erhard_f16; domains = 1 };
    (* the ten smallest Table II designs: per-job fixed costs weigh most *)
    {
      name = "small_batch";
      designs =
        [ "dagmar"; "elisa"; "lucius"; "felix"; "paula"; "rabe"; "julia"; "max";
          "roger"; "ashraf" ];
      scenario = None;
      domains = 1;
    };
  ]

let find_workload name = List.find_opt (fun w -> String.equal w.name name) workloads

type settings = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (* scale 0.2 (1500-cell floor) and the first design only *)
  json : string option;
  trace_out : string option;
}

let scale s = if s.smoke then 0.2 else 2.0

(* Set-up is repeated this often and reported as a median. *)
let setup_reps = 3

(* ------------------------------------------------------------ helpers *)

let data_root = ".fbp_bench"

let make_data_dir tag =
  (try Sys.mkdir data_root 0o755 with Sys_error _ -> ());
  let d = Filename.concat data_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let remove_data_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Sys.rmdir d;
  (* the shared root goes once the last run using it is done *)
  try Sys.rmdir data_root with Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* [nproc], for provenance; 0 when it cannot be run. *)
let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value n ~default:0
  with Unix.Unix_error _ | Sys_error _ -> 0

(* ------------------------------------------------------------ summaries *)

(* A metric's value with the samples behind it.  [value] is the median of
   the samples (or the single measurement); quartiles interpolate. *)
type summary = { value : float; n : int; q1 : float; q3 : float; lo : float; hi : float }

let single v = { value = v; n = 1; q1 = v; q3 = v; lo = v; hi = v }

let summarize = function
  | [] -> { value = 0.0; n = 0; q1 = 0.0; q3 = 0.0; lo = 0.0; hi = 0.0 }
  | xs ->
    let a = Array.of_list xs in
    let lo, hi = Stats.min_max a in
    let p = Stats.percentile a in
    { value = p 0.5; n = Array.length a; q1 = p 0.25; q3 = p 0.75; lo; hi }

(* The highest nearest-rank percentile with at least ten samples beyond it
   (choosing-metrics §1).  Below 50 samples that percentile is under p80
   and says little about the tail, so the slowest sample stands in
   (percentile 1).  Returns the percentile too. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then ({ (single 0.0) with n }, 0.0)
  else if n >= 50 then
    ({ (single a.(n - 11)) with n }, float_of_int (n - 10) /. float_of_int n)
  else ({ (single a.(n - 1)) with n }, 1.0)

let median xs = (summarize xs).value

let time_median reps f =
  median (List.init reps (fun _ -> snd (Timer.time f)))

(* ------------------------------------------------------------ inputs *)

type input = {
  design_name : string;
  path : string;  (* the Bookshelf file every job reads *)
  bytes : int;
  movable : int;
  movebounds : Fbp_movebound.Movebound.t array;
  in_memory : Instance.t;  (* the generated instance, for the reference *)
}

let build_inputs ~dir ~scale ~seed w =
  List.map
    (fun name ->
      let spec = Option.get (Fbp_workloads.Designs.find_spec name) in
      let design =
        Fbp_workloads.Designs.instantiate ~scale
          { spec with Fbp_workloads.Designs.seed = spec.Fbp_workloads.Designs.seed + seed }
      in
      let inst =
        match w.scenario with
        | Some sc -> Mb_gen.attach sc design
        | None -> Instance.unconstrained design
      in
      let path = Filename.concat dir (name ^ ".book") in
      Bookshelf.write_file path design;
      let nl = design.Design.netlist in
      {
        design_name = name;
        path;
        bytes = (Unix.stat path).Unix.st_size;
        movable = Array.fold_left (fun n f -> if f then n else n + 1) 0 nl.Netlist.fixed;
        movebounds = inst.Instance.movebounds;
        in_memory = inst;
      })
    w.designs

let config_for domains = { Config.default with Config.domains; hw_clamp = true }

(* ------------------------------------------------------------ one job *)

type job = {
  design : string;
  wall : float;
  global : float;  (* Placer.place + Repartition.refine: Table VI "global" *)
  hpwl : float;
  alloc_words : float;
  levels : Placer.level_report list;
  moved : int;
  spilled : int;
  failed_cells : int;
}

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let run_job cfg (inp : input) =
  let g0 = Gc.quick_stat () in
  let t0 = Timer.now () in
  try
    let design = Obs.span "bench.parse" (fun () -> Bookshelf.read_file inp.path) in
    let inst = { Instance.design; movebounds = inp.movebounds } in
    let fallback () =
      Result.map
        (fun r -> r.Fbp_baselines.Recursive.placement)
        (Fbp_baselines.Recursive.place ~config:cfg inst)
    in
    let t_place = Timer.now () in
    match Obs.span "bench.place" (fun () -> Placer.place ~config:cfg ~fallback inst) with
    | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
    | Ok rep ->
      let refined =
        Obs.span "bench.refine" (fun () -> Fbp_core.Repartition.refine ~sweeps:1 cfg inst rep)
      in
      let t_global = Timer.now () in
      let inst_n = match Instance.normalize inst with Ok i -> i | Error _ -> inst in
      let pos = rep.Placer.placement in
      let lst =
        Obs.span "bench.legalize" (fun () ->
            Fbp_legalize.Legalizer.run inst_n rep.Placer.regions pos
              ~piece_of_cell:rep.Placer.piece_of_cell ~grid:rep.Placer.final_grid)
      in
      let audit, viol =
        Obs.span "bench.audit" (fun () ->
            ( Fbp_legalize.Check.audit inst_n.Instance.design pos,
              Fbp_movebound.Legality.check inst_n pos ))
      in
      let hpwl = Hpwl.total design.Design.netlist pos in
      let t1 = Timer.now () in
      let g1 = Gc.quick_stat () in
      let n_failed = lst.Fbp_legalize.Legalizer.n_failed in
      let n_viol = viol.Fbp_movebound.Legality.n_violations in
      if not audit.Fbp_legalize.Check.legal then Error "illegal placement (overlap/row/chip audit)"
      else if n_failed > 0 then Error (Printf.sprintf "%d cells failed legalization" n_failed)
      else if n_viol > 0 then Error (Printf.sprintf "%d movebound violations" n_viol)
      else
        Ok
          {
            design = inp.design_name;
            wall = t1 -. t0;
            global = t_global -. t_place;
            hpwl;
            alloc_words = alloc_words g1 -. alloc_words g0;
            levels = rep.Placer.levels;
            moved =
              sumi (List.map (fun (s : Fbp_core.Repartition.stats) -> s.Fbp_core.Repartition.n_moved) refined);
            spilled = lst.Fbp_legalize.Legalizer.n_spilled;
            failed_cells = n_failed;
          }
  with e -> Error ("exception: " ^ Printexc.to_string e)

(* The warm-up job: Runner.run_fbp on the in-memory instance at one domain.
   Its HPWL is the reference every later job of the design must equal. *)
let reference (inp : input) =
  Pool.set_default_domains 1;
  match Fbp_workloads.Runner.run_fbp ~config:(config_for 1) inp.in_memory with
  | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
  | Ok m when not m.Fbp_workloads.Runner.legal -> Error "Runner.run_fbp: illegal placement"
  | Ok m when m.Fbp_workloads.Runner.violations > 0 ->
    Error "Runner.run_fbp: movebound violations"
  | Ok m -> Ok m.Fbp_workloads.Runner.hpwl

(* Runs [inp] and checks the result against its reference HPWL. *)
let checked_job cfg (inp, ref_hpwl) =
  match run_job cfg inp with
  | Ok j when same_bits j.hpwl ref_hpwl -> Ok j
  | Ok j ->
    Error
      (Printf.sprintf "%s: HPWL %.17g differs from Runner.run_fbp's %.17g" inp.design_name
         j.hpwl ref_hpwl)
  | Error e -> Error (inp.design_name ^ ": " ^ e)

(* Closed loop: rounds of one job per design, back to back, until
   [seconds] have passed (at least one round). *)
let timed_pass cfg ~seconds cases =
  let t0 = Timer.now () in
  let rec go acc =
    let acc = List.rev_append (List.map (checked_job cfg) cases) acc in
    if Timer.now () -. t0 < seconds then go acc else List.rev acc
  in
  go []

let partition results =
  List.partition_map (function Ok j -> Either.Left j | Error e -> Either.Right e) results

(* ------------------------------------------------------------ traced pass *)

(* Per span name: total duration, self time (duration minus the same-domain
   child spans it contains) and count.  "place.level" spans are keyed by
   their level.  The profiler's injected "gc.*" intervals are skipped: they
   are appended when the event ring is drained, so they do not nest. *)
type span_total = {
  mutable total : float;
  mutable self : float;
  mutable count : int;
  mutable max_self_frac : float;
}

let fold_spans doc =
  let spans = Hashtbl.create 32 in
  let get k =
    match Hashtbl.find_opt spans k with
    | Some s -> s
    | None ->
      let s = { total = 0.0; self = 0.0; count = 0; max_self_frac = 0.0 } in
      Hashtbl.add spans k s;
      s
  in
  let stacks = Hashtbl.create 4 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add stacks tid r;
      r
  in
  let event ev =
    let str k = match J.member k ev with Some (J.Str s) -> s | _ -> "" in
    let num k = match J.member k ev with Some (J.Num f) -> f | _ -> 0.0 in
    let name = str "name" in
    if not (String.starts_with ~prefix:"gc." name) then begin
      let st = stack (int_of_float (num "tid")) in
      match str "ph" with
      | "B" ->
        let key =
          match Option.bind (J.member "args" ev) (J.member "level") with
          | Some (J.Str l) when String.equal name "place.level" -> name ^ l
          | _ -> name
        in
        st := (key, num "ts", ref 0.0) :: !st
      | "E" -> (
        match !st with
        | (key, ts, children) :: rest ->
          st := rest;
          let d = (num "ts" -. ts) *. 1e-6 in
          let s = get key in
          s.total <- s.total +. d;
          s.self <- s.self +. d -. !children;
          s.count <- s.count + 1;
          if d > 0.0 then s.max_self_frac <- Float.max s.max_self_frac ((d -. !children) /. d);
          (match rest with (_, _, parent) :: _ -> parent := !parent +. d | [] -> ())
        | [] -> ())
      | _ -> ()
    end
  in
  match J.parse doc with
  | Error e -> Error e
  | Ok root -> (
    match J.member "traceEvents" root with
    | Some (J.Arr evs) ->
      List.iter event evs;
      Ok spans
    | _ -> Error "no traceEvents array")

(* Level-0 QP system of a design, replayed outside the placer: assembly
   fresh and with the symbolic cache, and both axis CG solves warm-started
   from the file's positions, as [Placer.place] does. *)
type replay = { assemble_s : float; assemble_cached_s : float; solve_s : float; iterations : int }

let replay cfg (inp : input) =
  let design = Bookshelf.read_file inp.path in
  let nl = design.Design.netlist and pos = design.Design.initial in
  let movable = Fbp_core.Qp.all_movable nl in
  let c = Fbp_geometry.Rect.center design.Design.chip in
  let anchor _ = Some (1e-6, c.Fbp_geometry.Point.x, 1e-6, c.Fbp_geometry.Point.y) in
  let assemble ?cache () =
    Fbp_core.Netmodel.assemble nl pos ?cache ~movable
      ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ()
  in
  let assemble_s = time_median 5 (fun () -> ignore (assemble ())) in
  let cache = Fbp_core.Netmodel.create_cache () in
  ignore (assemble ~cache ());
  let assemble_cached_s = time_median 5 (fun () -> ignore (assemble ~cache ())) in
  let sys = assemble () in
  let start coord =
    Array.map (fun c -> if c >= 0 then coord.(c) else 0.0) sys.Fbp_core.Netmodel.cells
  in
  let x0 = start pos.Placement.x and y0 = start pos.Placement.y in
  let iterations = ref 0 in
  let solve a b v0 =
    (Fbp_linalg.Cg.solve ~record:false ~max_iter:cfg.Config.cg_max_iter ~tol:cfg.Config.cg_tol a b
       (Array.copy v0))
      .Fbp_linalg.Cg.iterations
  in
  let solve_s =
    time_median 3 (fun () ->
        iterations :=
          solve sys.Fbp_core.Netmodel.ax sys.Fbp_core.Netmodel.bx x0
          + solve sys.Fbp_core.Netmodel.ay sys.Fbp_core.Netmodel.by y0)
  in
  { assemble_s; assemble_cached_s; solve_s; iterations = !iterations }

(* The traced pass's results.  Obs counters and histograms stay readable
   until the next [Obs.reset]. *)
type traced = {
  t_jobs : job list;
  t_failures : string list;
  t_spans : (string, span_total) Hashtbl.t;
  t_prof : Profiler.summary;
  t_minor : int;
  t_major : int;
  t_dispatches : int;
  t_replays : replay list;
}

let traced_pass cfg ~trace_out cases =
  Obs.reset ();
  Obs.enable ();
  Profiler.start ();
  let d0 = Pool.n_dispatches () in
  let g0 = Gc.quick_stat () in
  let results = List.map (fun c -> Obs.span "bench.job" (fun () -> checked_job cfg c)) cases in
  let g1 = Gc.quick_stat () in
  let dispatches = Pool.n_dispatches () - d0 in
  let prof = Profiler.stop () in
  Obs.disable ();
  let doc = Obs.trace_json () in
  Option.iter (fun p -> write_file p doc) trace_out;
  let jobs, failures = partition results in
  let spans, trace_failures =
    match (Obs.validate_trace doc, fold_spans doc) with
    | Ok _, Ok spans -> (spans, [])
    | Error e, _ | _, Error e -> (Hashtbl.create 1, [ "trace invalid: " ^ e ])
  in
  {
    t_jobs = jobs;
    t_failures = failures @ trace_failures;
    t_spans = spans;
    t_prof = prof;
    t_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    t_major = g1.Gc.major_collections - g0.Gc.major_collections;
    t_dispatches = dispatches;
    t_replays = List.map (fun (inp, _) -> replay cfg inp) cases;
  }

(* Smallest share of a traced job's wall time covered by the bench's layer
   spans (parse, place, refine, legalize, audit). *)
let accounted_frac t =
  match Hashtbl.find_opt t.t_spans "bench.job" with
  | Some s -> 1.0 -. s.max_self_frac
  | None -> 0.0

(* The per-layer metrics of BENCHMARK.json, in its order. *)
let per_layer_metrics inputs ~untraced t =
  let span k = Hashtbl.find_opt t.t_spans k in
  let total k = match span k with Some s -> s.total | None -> 0.0 in
  let self k = match span k with Some s -> s.self | None -> 0.0 in
  let count k = match span k with Some s -> float_of_int s.count | None -> 0.0 in
  let levels = List.concat_map (fun j -> j.levels) t.t_jobs in
  let sum_levels f = float_of_int (sumi (List.map f levels)) in
  let jobs_sum f = float_of_int (sumi (List.map f t.t_jobs)) in
  let level_s l = ("placer.level" ^ string_of_int l ^ "_s", "s", total ("place.level" ^ string_of_int l)) in
  let finest =
    sum
      (List.map
         (fun j ->
           match List.rev j.levels with
           | [] -> 0.0
           | l :: _ -> l.Placer.realization_time +. l.Placer.flow_time +. l.Placer.qp_time)
         t.t_jobs)
  in
  let realized =
    sum
      (List.map
         (fun j ->
           let inp = List.find (fun i -> String.equal i.design_name j.design) inputs in
           float_of_int (inp.movable * List.length j.levels))
         t.t_jobs)
  in
  let c k = float_of_int (Obs.counter_value k) in
  let h k = Stats.sum (Obs.histogram_values k) in
  let helpers = List.filter (fun d -> d.Profiler.d_wid >= 0) t.t_prof.Profiler.s_domains in
  let helper f =
    ratio (sum (List.map f helpers)) (sum (List.map (fun d -> d.Profiler.d_wall_us) helpers))
  in
  let replays f = sum (List.map f t.t_replays) in
  let traced_wall = sum (List.map (fun j -> j.wall) t.t_jobs) in
  let untraced_wall =
    sum
      (List.map
         (fun j ->
           median
             (List.filter_map
                (fun (u : job) -> if String.equal u.design j.design then Some u.wall else None)
                untraced))
         t.t_jobs)
  in
  [
    ("bookshelf.parse_s", "s", total "bench.parse");
    ("bookshelf.bytes", "bytes", float_of_int (sumi (List.map (fun i -> i.bytes) inputs)));
    ("placer.place_s", "s", total "bench.place");
    ("placer.levels", "count", float_of_int (List.length levels));
    level_s 1;
    level_s 2;
    level_s 3;
    level_s 4;
    ("placer.finest_level_s", "s", finest);
    ("qp.busy_s", "s", total "qp.global");
    ("qp.solves", "count", count "qp.global");
    ("cg.solves", "count", c "cg.solves");
    ("cg.iterations", "count", h "cg.iterations");
    ("cg.nonconverged", "count", c "cg.nonconverged");
    ( "netmodel.refreeze_hit_frac",
      "ratio",
      ratio (c "netmodel.refreeze_hits")
        (c "netmodel.refreeze_hits" +. c "netmodel.refreeze_misses") );
    ("netmodel.assemble_s", "s", replays (fun r -> r.assemble_s));
    ("netmodel.assemble_cached_s", "s", replays (fun r -> r.assemble_cached_s));
    ("cg.solve_s", "s", replays (fun r -> r.solve_s));
    ("cg.solve_iterations", "count", float_of_int (sumi (List.map (fun r -> r.iterations) t.t_replays)));
    ("flow.busy_s", "s", total "place.flow");
    ("fbp_model.build_s", "s", self "place.flow");
    ("mcf.busy_s", "s", total "mcf.solve");
    ("mcf.solves", "count", c "mcf.solves");
    ("mcf.dijkstra_rounds", "count", h "mcf.dijkstra_rounds");
    ("fbp_model.nodes", "count", sum_levels (fun l -> l.Placer.flow_nodes));
    ("fbp_model.edges", "count", sum_levels (fun l -> l.Placer.flow_edges));
    ("realization.busy_s", "s", total "place.realization");
    ("realization.self_s", "s", self "place.realization");
    ( "realization.waves",
      "count",
      sum_levels (fun l -> l.Placer.realization.Fbp_core.Realization.n_waves) );
    ("realization.shipped_cells", "count", c "realization.shipped_cells");
    ("realization.fallback_frac", "ratio", ratio (c "realization.fallback_cells") realized);
    ("transport.busy_s", "s", total "transport.solve");
    ("transport.solves", "count", c "transport.solves");
    ("transport.pivots", "count", h "transport.pivots");
    ("repartition.refine_s", "s", total "bench.refine");
    ("repartition.moved_cells", "count", jobs_sum (fun j -> j.moved));
    ("legalizer.run_s", "s", total "bench.legalize");
    ("legalizer.spilled_cells", "count", jobs_sum (fun j -> j.spilled));
    ("legalizer.failed_cells", "count", jobs_sum (fun j -> j.failed_cells));
    ("audit.check_s", "s", total "bench.audit");
    ("pool.dispatches", "count", float_of_int t.t_dispatches);
    ("pool.workers_spawned", "count", float_of_int (Pool.n_workers_spawned ()));
    ("pool.helper_busy_frac", "ratio", helper (fun d -> d.Profiler.d_busy_us));
    ("pool.helper_park_frac", "ratio", helper (fun d -> d.Profiler.d_park_us));
    ("gc.minor_collections", "count", float_of_int t.t_minor);
    ("gc.major_collections", "count", float_of_int t.t_major);
    ( "gc.stw_s",
      "s",
      1e-6 *. sum (List.map (fun d -> d.Profiler.d_stw_us) t.t_prof.Profiler.s_domains) );
    ("gc.stw_count", "count", float_of_int t.t_prof.Profiler.s_stw_count);
    ("trace.overhead_frac", "ratio", ratio traced_wall untraced_wall -. 1.0);
    ("trace.accounted_frac", "ratio", accounted_frac t);
  ]

(* ------------------------------------------------------------ one workload *)

let metric_json (name, unit_, (s : summary)) =
  ( name,
    J.Obj
      [ ("value", J.Num s.value); ("unit", J.Str unit_); ("n", J.Num (float_of_int s.n));
        ("q1", J.Num s.q1); ("q3", J.Num s.q3); ("min", J.Num s.lo); ("max", J.Num s.hi) ] )

let print_metric (name, unit_, (s : summary)) =
  if s.n > 1 then
    Printf.printf "  %-28s %14.6g %-7s median of %d, q1 %.6g, q3 %.6g\n" name s.value unit_ s.n
      s.q1 s.q3
  else Printf.printf "  %-28s %14.6g %s\n" name s.value unit_

let run_workload s w =
  let designs = if s.smoke then [ List.hd w.designs ] else w.designs in
  let w = { w with designs } in
  let dir = make_data_dir w.name in
  Fun.protect ~finally:(fun () -> remove_data_dir dir) @@ fun () ->
  (* set-up: inputs built [setup_reps] times (byte-identical each time),
     then pool pre-warm and the warm-up reference jobs *)
  let builds =
    List.init setup_reps (fun _ ->
        Timer.time (fun () -> build_inputs ~dir ~scale:(scale s) ~seed:s.seed w))
  in
  let inputs = fst (List.hd (List.rev builds)) in
  let digests = List.map (fun (ins, _) -> List.map (fun i -> Digest.file i.path) ins) builds in
  let input_failures =
    if List.for_all (List.equal Digest.equal (List.hd digests)) digests then []
    else [ "set-up: the same seed generated different Bookshelf files" ]
  in
  let refs, warm_s =
    Timer.time (fun () ->
        Pool.prewarm w.domains;
        List.map reference inputs)
  in
  let cases, ref_failures =
    List.partition_map
      (fun (inp, r) ->
        match r with
        | Ok h -> Either.Left (inp, h)
        | Error e -> Either.Right (inp.design_name ^ ": warm-up: " ^ e))
      (List.combine inputs refs)
  in
  let setup = summarize (List.map (fun (_, b) -> b +. warm_s) builds) in
  Pool.set_default_domains w.domains;
  let cfg = config_for w.domains in
  let jobs, job_failures = partition (timed_pass cfg ~seconds:s.seconds cases) in
  let peak_rss_mb =
    float_of_int (Option.value (Fbp_util.Rss.peak_rss_kb ()) ~default:0) /. 1024.0
  in
  let place_tail, tail_p = tail (List.map (fun j -> j.wall) jobs) in
  let e2e =
    [
      ("setup_s", "s", setup);
      ("place_s", "s", summarize (List.map (fun j -> j.wall) jobs));
      ("global_s", "s", summarize (List.map (fun j -> j.global) jobs));
      ("hpwl", "dbu", single (sum (List.map snd cases)));
      ("alloc_mwords", "Mwords", summarize (List.map (fun j -> j.alloc_words /. 1e6) jobs));
      ("peak_rss_mb", "MiB", single peak_rss_mb);
    ]
  in
  let traced = if s.trace then Some (traced_pass cfg ~trace_out:s.trace_out cases) else None in
  let per_layer =
    match traced with
    | Some t ->
      List.map (fun (n, u, v) -> (n, u, single v)) (per_layer_metrics inputs ~untraced:jobs t)
    | None -> []
  in
  let trace_failures =
    match traced with
    | Some t when accounted_frac t < 0.95 ->
      Printf.sprintf "traced pass: layer spans cover only %.1f%% of a job"
        (100.0 *. accounted_frac t)
      :: t.t_failures
    | Some t -> t.t_failures
    | None -> []
  in
  let failures = input_failures @ ref_failures @ job_failures @ trace_failures in
  (* warm-ups, timed jobs and traced jobs *)
  let attempted =
    List.length inputs + List.length jobs + List.length job_failures
    + if s.trace then List.length cases else 0
  in
  let n_failed = List.length failures in
  let correct = List.is_empty failures && not (List.is_empty jobs) in
  let eff_domains = if cfg.Config.hw_clamp then min w.domains Pool.hardware_domains else w.domains in
  let label =
    if w.domains < 2 then "sequential"
    else if Pool.hardware_domains < 2 then "clamped-sequential"
    else "parallel"
  in
  (* human-readable report *)
  Printf.printf "fbp-bench %s: %s, seed %d, %d domain(s) (%s), %d timed job(s)\n" w.name
    (String.concat "," w.designs) s.seed w.domains label (List.length jobs);
  List.iter print_metric e2e;
  Printf.printf "  %-28s %14.6g s       %s\n" "place_s_tail" place_tail.value
    (if tail_p < 1.0 then Printf.sprintf "p%.0f of %d jobs" (100.0 *. tail_p) place_tail.n
     else Printf.sprintf "slowest of %d jobs (under 50 jobs)" place_tail.n);
  List.iter print_metric per_layer;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) failures;
  let doc =
    J.Obj
      [
        ("name", J.Str w.name);
        ("designs", J.Arr (List.map (fun d -> J.Str d) w.designs));
        ("domains", J.Num (float_of_int w.domains));
        ("effective_domains", J.Num (float_of_int eff_domains));
        ("label", J.Str label);
        ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int attempted));
        ("failed", J.Num (float_of_int n_failed));
        ("fail_frac", J.Num (ratio (float_of_int n_failed) (float_of_int (max 1 attempted))));
        ("failures", J.Arr (List.map (fun f -> J.Str f) failures));
        ( "place_s_tail",
          J.Obj
            [ ("value", J.Num place_tail.value); ("percentile", J.Num tail_p);
              ("n", J.Num (float_of_int place_tail.n)) ] );
        ("end_to_end", J.Obj (List.map metric_json e2e));
        ("per_layer", J.Obj (List.map metric_json per_layer));
      ]
  in
  let provenance =
    J.Obj
      [
        ("nproc", J.Num (float_of_int (nproc ())));
        ("hardware_domains", J.Num (float_of_int Pool.hardware_domains));
        ("ocaml_version", J.Str Sys.ocaml_version);
      ]
  in
  let full =
    J.Obj
      [
        ("schema", J.Str "fbp-bench/1");
        ("seed", J.Num (float_of_int s.seed));
        ("scale", J.Num (scale s));
        ("seconds", J.Num s.seconds);
        ("smoke", J.Bool s.smoke);
        ("provenance", provenance);
        ("workloads", J.Arr [ doc ]);
      ]
  in
  Option.iter (fun p -> write_file p (J.to_string full)) s.json;
  let shown = if s.trace then per_layer else e2e in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int n_failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, u, (v : summary)) -> (n, J.Obj [ ("value", J.Num v.value); ("unit", J.Str u) ]))
                   shown) );
          ]));
  correct

(* ------------------------------------------------------------ documents *)

let parse_file path =
  match J.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | exception Sys_error e -> failwith e

let str_member k o = match J.member k o with Some (J.Str s) -> Some s | _ -> None
let num_member k o = match J.member k o with Some (J.Num f) -> Some f | _ -> None
let arr_member k o = match J.member k o with Some (J.Arr l) -> l | _ -> []
let obj_member k o = match J.member k o with Some (J.Obj l) -> l | _ -> []

let workload_docs doc = arr_member "workloads" doc

let find_doc name docs =
  List.find_opt
    (fun d -> match str_member "name" d with Some n -> String.equal n name | None -> false)
    docs

(* (name, unit, lower_is_better, bound) rows of one BENCHMARK.json list. *)
let spec_metrics spec key =
  List.map
    (fun m ->
      ( Option.value (str_member "name" m) ~default:"",
        Option.value (str_member "unit" m) ~default:"",
        not (Option.equal String.equal (str_member "better" m) (Some "higher")),
        Option.value (num_member "bound" m) ~default:0.0 ))
    (arr_member key spec)

(* ------------------------------------------------------------ compare *)

type verdict = Better | Worse | Within | Unresolved

let verdict_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

(* choosing-metrics §6.5: a spread wider than the bound leaves the metric
   unresolved unless every run of B reads better than every run of A. *)
let verdict ~lower ~bound a b =
  let g k o = Option.value (num_member k o) ~default:0.0 in
  let med_a = g "value" a and med_b = g "value" b in
  let spread o = ratio (g "q3" o -. g "q1" o) (Float.abs (g "value" o)) in
  let worse_by = ratio (med_b -. med_a) (Float.abs med_a) *. if lower then 1.0 else -1.0 in
  let b_beats_a = if lower then g "max" b < g "min" a else g "min" b > g "max" a in
  let v =
    if Float.max (spread a) (spread b) > bound then if b_beats_a then Better else Unresolved
    else if worse_by > bound then Worse
    else if worse_by < -.bound then Better
    else Within
  in
  (v, worse_by)

let show o =
  let g k = Option.value (num_member k o) ~default:0.0 in
  Printf.sprintf "%.6g [%.6g, %.6g] n=%.0f" (g "value") (g "q1") (g "q3") (g "n")

(* Prints the comparison; returns false when some metric is worse beyond
   its bound or B failed more often than A. *)
let compare_docs ~spec a b =
  let ok = ref true in
  let e2e = spec_metrics spec "end_to_end" in
  let counts =
    List.filter (fun (_, u, _, _) -> String.equal u "count") (spec_metrics spec "per_layer")
  in
  List.iter
    (fun wa ->
      let name = Option.value (str_member "name" wa) ~default:"?" in
      match find_doc name (workload_docs b) with
      | None -> Printf.printf "== %s: missing from B\n" name
      | Some wb ->
        Printf.printf "== %s\n  %-14s %-38s %-38s %8s %6s  %s\n" name "metric" "A median [q1, q3]"
          "B median [q1, q3]" "change" "bound" "verdict";
        List.iter
          (fun (m, _, lower, bound) ->
            match
              (J.member m (J.Obj (obj_member "end_to_end" wa)),
               J.member m (J.Obj (obj_member "end_to_end" wb)))
            with
            | Some ma, Some mb ->
              let v, worse_by = verdict ~lower ~bound ma mb in
              if v = Worse then ok := false;
              Printf.printf "  %-14s %-38s %-38s %+7.2f%% %5.1f%%  %s\n" m (show ma) (show mb)
                (100.0 *. worse_by) (100.0 *. bound) (verdict_string v)
            | _ -> Printf.printf "  %-14s missing\n" m)
          e2e;
        let ff d = Option.value (num_member "fail_frac" d) ~default:1.0 in
        let fa = ff wa and fb = ff wb in
        if fb > fa then ok := false;
        Printf.printf "  %-14s %-38g %-38g %8s %6s  %s\n" "fail_frac" fa fb "" "exact"
          (if fb > fa then "worse" else if fb < fa then "better" else "same");
        let pl d = J.Obj (obj_member "per_layer" d) in
        let differ =
          List.filter_map
            (fun (m, _, _, _) ->
              match (J.member m (pl wa), J.member m (pl wb)) with
              | Some ma, Some mb ->
                let va = num_member "value" ma and vb = num_member "value" mb in
                if Option.equal Float.equal va vb then None
                else
                  Some
                    (Printf.sprintf "%s %g -> %g" m (Option.value va ~default:nan)
                       (Option.value vb ~default:nan))
              | _ -> None)
            counts
        in
        if not (List.is_empty (obj_member "per_layer" wa)) then
          Printf.printf "  counts: %d equal, %d differ%s\n"
            (List.length counts - List.length differ) (List.length differ)
            (String.concat "" (List.map (fun d -> "\n    " ^ d) differ)))
    (workload_docs a);
  !ok

(* ------------------------------------------------------------ all workloads *)

(* Runs every workload in its own child process (so peak RSS and GC state
   are per workload), merges their documents and checks that plain_large
   and plain_large_par placed identically. *)
let run_all s =
  let exe = Sys.executable_name in
  let dir = make_data_dir "all" in
  Fun.protect ~finally:(fun () -> remove_data_dir dir) @@ fun () ->
  let results =
    List.map
      (fun w ->
        let out = Filename.concat dir (w.name ^ ".json") in
        let trace_out =
          Option.map (fun p -> Filename.remove_extension p ^ "." ^ w.name ^ ".json") s.trace_out
        in
        let args =
          [ exe; "--workload"; w.name; "--seed"; string_of_int s.seed; "--seconds";
            Printf.sprintf "%.17g" s.seconds; "--trace"; "1"; "--json"; out ]
          @ (if s.smoke then [ "--smoke" ] else [])
          @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
        in
        Printf.printf "fbp-bench: running %s\n%!" w.name;
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        let doc = if Sys.file_exists out then Some (parse_file out) else None in
        (w, status, doc, trace_out))
      workloads
  in
  let docs = List.filter_map (fun (_, _, d, _) -> d) results in
  let wdocs = List.concat_map workload_docs docs in
  let child_ok =
    List.for_all
      (fun (w, status, doc, _) ->
        let ok = status = Unix.WEXITED 0 && Option.is_some doc in
        if not ok then Printf.printf "FAILED: workload %s did not complete\n" w.name;
        ok)
      results
  in
  let hpwl name =
    Option.bind (find_doc name wdocs) (fun d ->
        Option.bind (J.member "hpwl" (J.Obj (obj_member "end_to_end" d))) (num_member "value"))
  in
  let par_ok =
    match (hpwl "plain_large", hpwl "plain_large_par") with
    | Some a, Some b when not (same_bits a b) ->
      Printf.printf "FAILED: plain_large HPWL %.17g <> plain_large_par HPWL %.17g\n" a b;
      false
    | _ -> true
  in
  let merged =
    match docs with
    | first :: _ ->
      J.Obj
        (List.map
           (fun (k, v) -> if String.equal k "workloads" then (k, J.Arr wdocs) else (k, v))
           (match first with J.Obj kvs -> kvs | _ -> []))
    | [] -> J.Obj [ ("schema", J.Str "fbp-bench/1"); ("workloads", J.Arr []) ]
  in
  Printf.printf "\nfbp-bench, seed %d, %.0f s per workload\n" s.seed s.seconds;
  List.iter
    (fun d ->
      Printf.printf "%s (%s, %s):\n"
        (Option.value (str_member "name" d) ~default:"?")
        (Option.value (str_member "label" d) ~default:"?")
        (match J.member "correct" d with Some (J.Bool true) -> "correct" | _ -> "FAILED");
      List.iter
        (fun (k, v) -> Printf.printf "  %-14s %s\n" k (show v))
        (obj_member "end_to_end" d))
    wdocs;
  let correct =
    child_ok && par_ok
    && List.for_all (fun d -> match J.member "correct" d with Some (J.Bool b) -> b | _ -> false) wdocs
  in
  (merged, correct, List.filter_map (fun (_, _, _, t) -> t) results)

(* ------------------------------------------------------------ smoke *)

(* Every metric of BENCHMARK.json appears, with its unit, in every
   workload's document, and no other metric does. *)
let check_metric_table ~spec merged =
  let expect key section =
    List.map (fun (n, u, _, _) -> (n, u)) (spec_metrics spec key), section
  in
  List.concat_map
    (fun d ->
      let name = Option.value (str_member "name" d) ~default:"?" in
      List.concat_map
        (fun (want, section) ->
          let got =
            List.map
              (fun (n, v) -> (n, Option.value (str_member "unit" v) ~default:""))
              (obj_member section d)
          in
          if List.equal (fun (a, b) (c, e) -> String.equal a c && String.equal b e) want got then []
          else [ Printf.sprintf "%s: %s metrics differ from BENCHMARK.json" name section ])
        [ expect "end_to_end" "end_to_end"; expect "per_layer" "per_layer" ])
    (workload_docs merged)

let smoke ~benchmark =
  let dir = make_data_dir "smoke" in
  Fun.protect ~finally:(fun () -> remove_data_dir dir) @@ fun () ->
  let t0 = Timer.now () in
  let s =
    { seed = 0; seconds = 0.0; trace = true; smoke = true; json = None;
      trace_out = Some (Filename.concat dir "trace.json") }
  in
  let merged, correct, traces = run_all s in
  let path = Filename.concat dir "smoke.json" in
  write_file path (J.to_string merged);
  let spec = parse_file benchmark in
  let failures =
    (if correct then [] else [ "a workload failed its checks" ])
    @ List.concat_map
        (fun d ->
          List.filter_map
            (function
              | J.Str f -> Some (Option.value (str_member "name" d) ~default:"?" ^ ": " ^ f)
              | _ -> None)
            (arr_member "failures" d))
        (workload_docs merged)
    @ (match J.parse (read_file path) with Ok _ -> [] | Error e -> [ "output JSON: " ^ e ])
    @ (if List.length (workload_docs merged) = List.length workloads then []
       else [ "not every workload reported" ])
    @ check_metric_table ~spec merged
    @ List.filter_map
        (fun p ->
          match Obs.validate_trace_file p with
          | Ok n when n > 0 -> None
          | Ok _ -> Some (p ^ ": empty trace")
          | Error e -> Some (p ^ ": " ^ e))
        traces
    @ if compare_docs ~spec merged merged then [] else [ "--compare of a run against itself failed" ]
  in
  List.iter (fun f -> Printf.eprintf "SMOKE FAILED: %s\n" f) failures;
  Printf.printf "fbp-bench smoke: %s in %.1f s\n" (if List.is_empty failures then "ok" else "FAILED")
    (Timer.now () -. t0);
  List.is_empty failures

(* ------------------------------------------------------------ main *)

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 30.0 and trace = ref false in
  let json = ref None and trace_out = ref None and smoke_mode = ref false in
  let compare_pair = ref None and benchmark = ref "BENCHMARK.json" in
  let usage = "fbp_bench.exe [--workload W --seed N --seconds S --trace 0|1] [--json PATH] [--trace-out PATH] | --smoke | --compare A.json B.json" in
  let specs =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "W run one workload in this process: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_int seed, "N added to every design's generator seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed pass (default 30)");
      ( "--trace",
        Arg.Int
          (function
            | 0 -> trace := false
            | 1 -> trace := true
            | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 also run the traced pass; the last line then holds per-layer metrics" );
      ("--json", Arg.String (fun p -> json := Some p), "PATH write the full result document");
      ("--trace-out", Arg.String (fun p -> trace_out := Some p), "PATH write the traced pass's Chrome trace");
      ("--smoke", Arg.Set smoke_mode, " one small design per workload; validate everything");
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> compare_pair := Some (!a, b)) ]),
        "A.json B.json compare two result documents" );
      ("--benchmark", Arg.Set_string benchmark, "PATH BENCHMARK.json with the metric bounds");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let s =
    { seed = !seed; seconds = !seconds; trace = !trace; smoke = !smoke_mode; json = !json;
      trace_out = !trace_out }
  in
  let ok =
    match (!compare_pair, !workload) with
    | Some (a, b), _ ->
      compare_docs ~spec:(parse_file !benchmark) (parse_file a) (parse_file b)
    | None, Some name -> (
      match find_workload name with
      | Some w -> run_workload s w
      | None ->
        Printf.eprintf "fbp-bench: unknown workload %S\n" name;
        exit 2)
    | None, None when s.smoke -> smoke ~benchmark:!benchmark
    | None, None ->
      let merged, correct, _ = run_all s in
      Option.iter (fun p -> write_file p (J.to_string merged)) s.json;
      correct
  in
  exit (if ok then 0 else 1)
