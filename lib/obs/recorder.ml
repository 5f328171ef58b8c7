(* Quality flight recorder: per-level placement snapshots, serialized as a
   versioned run-record JSON.

   Same discipline as [Obs]: one atomic flag guards every hook, one mutex
   guards all mutation (hooks fire at level granularity, far too rarely for
   the lock to matter).  Serialization goes through [Obs.Json] in both
   directions so write -> parse round-trips exactly (floats are emitted with
   enough digits; non-finite values map to JSON null and back to nan). *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

type level = {
  level : int;
  nx : int;
  ny : int;
  n_windows : int;
  n_pieces : int;
  flow_nodes : int;
  flow_edges : int;
  hpwl : float;
  density_overflow : float;
  mb_violations : int;
  cg_iterations : int;
  cg_residual : float;
  cg_converged : bool;
  mcf_cost : float;
  mcf_rounds : int;
  waves : int;
  shipped_cells : int;
  fallback_cells : int;
  qp_time : float;
  flow_time : float;
  realization_time : float;
  gc : gc_delta;
}

type legalization = {
  leg_hpwl : float;
  leg_density_overflow : float;
  leg_mb_violations : int;
  leg_time : float;
  spilled : int;
  failed : int;
  avg_displacement : float;
  max_displacement : float;
}

type density_map = {
  dnx : int;
  dny : int;
  usage : float array;
  capacity : float array;
}

(* Execution environment: artifacts measured on a 1-core container under
   the hardware clamp must be distinguishable from real multi-core runs,
   or BENCH/profile numbers get compared across incomparable machines. *)
type host = {
  hw_clamp : bool;  (* Config.hw_clamp for this run *)
  hardware_domains : int;  (* Pool.hardware_domains on this machine *)
  eff_domains : int;  (* the run's domain budget, Config.effective_domains *)
  peak_rss_kb : int option;  (* VmHWM; None off Linux *)
}

type provenance = {
  design : string;
  cells : int;
  nets : int;
  movebounds : int;
  seed : int option;
  tool : string;
  config : (string * string) list;
  host : host option;
}

type totals = {
  hpwl : float;
  global_time : float;
  legalize_time : float;
  total_time : float;
  legal : bool;
  violations : int;
}

type t = {
  version : int;
  provenance : provenance;
  levels : level list;
  legalization : legalization option;
  density : density_map option;
  totals : totals option;
  metrics : Obs.Json.t option;
  profile : Profiler.summary option;
}

let schema_name = "fbp-run-record"
let schema_version = 1

let no_provenance =
  { design = ""; cells = 0; nets = 0; movebounds = 0; seed = None; tool = "";
    config = []; host = None }

(* ------------------------------------------- process-global recorder *)

let enabled_flag = Atomic.make false
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let provenance_r = ref no_provenance
let levels_r : level list ref = ref []  (* reversed *)
let legalization_r : legalization option ref = ref None
let density_r : density_map option ref = ref None
let totals_r : totals option ref = ref None
let metrics_r : Obs.Json.t option ref = ref None
let profile_r : Profiler.summary option ref = ref None
(* quick_stat's minor_words is only refreshed at GC events on OCaml 5;
   Gc.minor_words reads the live allocation pointer, so the mark carries
   both *)
let gc_mark : (Gc.stat * float) option ref = ref None

let gc_now () = (Gc.quick_stat (), Gc.minor_words ())

let enabled () = Atomic.get enabled_flag

let enable () =
  Atomic.set enabled_flag true;
  with_lock (fun () -> if !gc_mark = None then gc_mark := Some (gc_now ()))

let disable () = Atomic.set enabled_flag false

let reset () =
  with_lock (fun () ->
      provenance_r := no_provenance;
      levels_r := [];
      legalization_r := None;
      density_r := None;
      totals_r := None;
      metrics_r := None;
      profile_r := None;
      gc_mark := Some (gc_now ()))

let set_provenance p = if enabled () then with_lock (fun () -> provenance_r := p)

let set_host h =
  if enabled () then
    with_lock (fun () -> provenance_r := { !provenance_r with host = Some h })

let zero_gc =
  { minor_words = 0.0; major_words = 0.0; major_collections = 0;
    compactions = 0; heap_words = 0 }

let gc_boundary () =
  if not (enabled ()) then zero_gc
  else
    let now = gc_now () in
    with_lock (fun () ->
        let (base, base_minor), (s, minor) =
          ((match !gc_mark with Some b -> b | None -> now), now)
        in
        gc_mark := Some now;
        {
          minor_words = minor -. base_minor;
          major_words = s.Gc.major_words -. base.Gc.major_words;
          major_collections = s.Gc.major_collections - base.Gc.major_collections;
          compactions = s.Gc.compactions - base.Gc.compactions;
          heap_words = s.Gc.heap_words;
        })

let record_level l = if enabled () then with_lock (fun () -> levels_r := l :: !levels_r)

let record_legalization l =
  if enabled () then with_lock (fun () -> legalization_r := Some l)

let set_density d = if enabled () then with_lock (fun () -> density_r := Some d)
let set_totals t = if enabled () then with_lock (fun () -> totals_r := Some t)
let set_metrics m = if enabled () then with_lock (fun () -> metrics_r := Some m)
let set_profile p = if enabled () then with_lock (fun () -> profile_r := Some p)

let current () =
  with_lock (fun () ->
      {
        version = schema_version;
        provenance = !provenance_r;
        levels = List.rev !levels_r;
        legalization = !legalization_r;
        density = !density_r;
        totals = !totals_r;
        metrics = !metrics_r;
        profile = !profile_r;
      })

(* ------------------------------------------------------- serialization *)

module J = Obs.Json

let jnum f = if Float.is_finite f then J.Num f else J.Null
let jint i = J.Num (float_of_int i)
let jopt enc = function Some v -> enc v | None -> J.Null

let gc_to_json g =
  J.Obj
    [
      ("minor_words", jnum g.minor_words);
      ("major_words", jnum g.major_words);
      ("major_collections", jint g.major_collections);
      ("compactions", jint g.compactions);
      ("heap_words", jint g.heap_words);
    ]

let level_to_json (l : level) =
  J.Obj
    [
      ("level", jint l.level);
      ("nx", jint l.nx);
      ("ny", jint l.ny);
      ("n_windows", jint l.n_windows);
      ("n_pieces", jint l.n_pieces);
      ("flow_nodes", jint l.flow_nodes);
      ("flow_edges", jint l.flow_edges);
      ("hpwl", jnum l.hpwl);
      ("density_overflow", jnum l.density_overflow);
      ("mb_violations", jint l.mb_violations);
      ("cg_iterations", jint l.cg_iterations);
      ("cg_residual", jnum l.cg_residual);
      ("cg_converged", J.Bool l.cg_converged);
      ("mcf_cost", jnum l.mcf_cost);
      ("mcf_rounds", jint l.mcf_rounds);
      ("waves", jint l.waves);
      ("shipped_cells", jint l.shipped_cells);
      ("fallback_cells", jint l.fallback_cells);
      ("qp_time", jnum l.qp_time);
      ("flow_time", jnum l.flow_time);
      ("realization_time", jnum l.realization_time);
      ("gc", gc_to_json l.gc);
    ]

let legalization_to_json (l : legalization) =
  J.Obj
    [
      ("hpwl", jnum l.leg_hpwl);
      ("density_overflow", jnum l.leg_density_overflow);
      ("mb_violations", jint l.leg_mb_violations);
      ("time", jnum l.leg_time);
      ("spilled", jint l.spilled);
      ("failed", jint l.failed);
      ("avg_displacement", jnum l.avg_displacement);
      ("max_displacement", jnum l.max_displacement);
    ]

let density_to_json (d : density_map) =
  J.Obj
    [
      ("nx", jint d.dnx);
      ("ny", jint d.dny);
      ("usage", J.Arr (Array.to_list (Array.map jnum d.usage)));
      ("capacity", J.Arr (Array.to_list (Array.map jnum d.capacity)));
    ]

let host_to_json (h : host) =
  J.Obj
    [
      ("hw_clamp", J.Bool h.hw_clamp);
      ("hardware_domains", jint h.hardware_domains);
      ("eff_domains", jint h.eff_domains);
      ("peak_rss_kb", jopt jint h.peak_rss_kb);
    ]

let provenance_to_json (p : provenance) =
  J.Obj
    [
      ("design", J.Str p.design);
      ("cells", jint p.cells);
      ("nets", jint p.nets);
      ("movebounds", jint p.movebounds);
      ("seed", jopt jint p.seed);
      ("tool", J.Str p.tool);
      ("config", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) p.config));
      ("host", jopt host_to_json p.host);
    ]

let totals_to_json (t : totals) =
  J.Obj
    [
      ("hpwl", jnum t.hpwl);
      ("global_time", jnum t.global_time);
      ("legalize_time", jnum t.legalize_time);
      ("total_time", jnum t.total_time);
      ("legal", J.Bool t.legal);
      ("violations", jint t.violations);
    ]

let to_json (t : t) =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str schema_name);
         ("version", jint t.version);
         ("provenance", provenance_to_json t.provenance);
         ("levels", J.Arr (List.map level_to_json t.levels));
         ("legalization", jopt legalization_to_json t.legalization);
         ("density", jopt density_to_json t.density);
         ("totals", jopt totals_to_json t.totals);
         ("metrics", jopt Fun.id t.metrics);
         ("profile", jopt Profiler.summary_json t.profile);
       ])
  ^ "\n"

exception Decode of string

let dfail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt
let mem k o = match J.member k o with Some v -> v | None -> dfail "missing %S" k

let num k o =
  match mem k o with
  | J.Num f -> f
  | J.Null -> Float.nan  (* non-finite values serialize as null *)
  | _ -> dfail "%S is not a number" k

let int_ k o =
  let f = num k o in
  if Float.is_integer f then int_of_float f else dfail "%S is not an integer" k

let str k o = match mem k o with J.Str s -> s | _ -> dfail "%S is not a string" k
let bool_ k o = match mem k o with J.Bool b -> b | _ -> dfail "%S is not a bool" k

let opt k o dec = match J.member k o with None | Some J.Null -> None | Some v -> Some (dec v)

let float_array k o =
  match mem k o with
  | J.Arr xs ->
    Array.of_list
      (List.map (function J.Num f -> f | J.Null -> Float.nan | _ -> dfail "%S has a non-number" k) xs)
  | _ -> dfail "%S is not an array" k

let gc_of_json o =
  {
    minor_words = num "minor_words" o;
    major_words = num "major_words" o;
    major_collections = int_ "major_collections" o;
    compactions = int_ "compactions" o;
    heap_words = int_ "heap_words" o;
  }

let level_of_json o =
  {
    level = int_ "level" o;
    nx = int_ "nx" o;
    ny = int_ "ny" o;
    n_windows = int_ "n_windows" o;
    n_pieces = int_ "n_pieces" o;
    flow_nodes = int_ "flow_nodes" o;
    flow_edges = int_ "flow_edges" o;
    hpwl = num "hpwl" o;
    density_overflow = num "density_overflow" o;
    mb_violations = int_ "mb_violations" o;
    cg_iterations = int_ "cg_iterations" o;
    cg_residual = num "cg_residual" o;
    cg_converged = bool_ "cg_converged" o;
    mcf_cost = num "mcf_cost" o;
    mcf_rounds = int_ "mcf_rounds" o;
    waves = int_ "waves" o;
    shipped_cells = int_ "shipped_cells" o;
    fallback_cells = int_ "fallback_cells" o;
    qp_time = num "qp_time" o;
    flow_time = num "flow_time" o;
    realization_time = num "realization_time" o;
    gc = gc_of_json (mem "gc" o);
  }

let legalization_of_json o =
  {
    leg_hpwl = num "hpwl" o;
    leg_density_overflow = num "density_overflow" o;
    leg_mb_violations = int_ "mb_violations" o;
    leg_time = num "time" o;
    spilled = int_ "spilled" o;
    failed = int_ "failed" o;
    avg_displacement = num "avg_displacement" o;
    max_displacement = num "max_displacement" o;
  }

let density_of_json o =
  let d =
    {
      dnx = int_ "nx" o;
      dny = int_ "ny" o;
      usage = float_array "usage" o;
      capacity = float_array "capacity" o;
    }
  in
  if Array.length d.usage <> d.dnx * d.dny
     || Array.length d.capacity <> d.dnx * d.dny
  then dfail "density bin arrays do not match nx*ny"
  else d

let host_of_json o =
  {
    hw_clamp = bool_ "hw_clamp" o;
    hardware_domains = int_ "hardware_domains" o;
    eff_domains = int_ "eff_domains" o;
    peak_rss_kb =
      opt "peak_rss_kb" o
        (function J.Num f -> int_of_float f | _ -> dfail "bad peak_rss_kb");
  }

let provenance_of_json o =
  {
    design = str "design" o;
    cells = int_ "cells" o;
    nets = int_ "nets" o;
    movebounds = int_ "movebounds" o;
    seed = opt "seed" o (function J.Num f -> int_of_float f | _ -> dfail "bad seed");
    tool = str "tool" o;
    config =
      (match mem "config" o with
       | J.Obj kvs ->
         List.map
           (fun (k, v) ->
             match v with J.Str s -> (k, s) | _ -> dfail "config value for %S" k)
           kvs
       | _ -> dfail "\"config\" is not an object");
    host = opt "host" o host_of_json;
  }

let totals_of_json o =
  {
    hpwl = num "hpwl" o;
    global_time = num "global_time" o;
    legalize_time = num "legalize_time" o;
    total_time = num "total_time" o;
    legal = bool_ "legal" o;
    violations = int_ "violations" o;
  }

let of_json doc =
  match J.parse doc with
  | Error msg -> Error ("JSON parse failed: " ^ msg)
  | Ok root ->
    (try
       let schema = str "schema" root in
       if schema <> schema_name then dfail "not a run record (schema %S)" schema;
       let version = int_ "version" root in
       if version > schema_version then
         dfail "run-record version %d is newer than supported %d" version
           schema_version;
       let levels =
         match mem "levels" root with
         | J.Arr ls -> List.map level_of_json ls
         | _ -> dfail "\"levels\" is not an array"
       in
       Ok
         {
           version;
           provenance = provenance_of_json (mem "provenance" root);
           levels;
           legalization = opt "legalization" root legalization_of_json;
           density = opt "density" root density_of_json;
           totals = opt "totals" root totals_of_json;
           metrics = opt "metrics" root Fun.id;
           profile =
             opt "profile" root (fun v ->
                 match Profiler.summary_of_json v with
                 | Ok s -> s
                 | Error e -> dfail "%s" e);
         }
     with Decode msg -> Error msg)

let write_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_json t))

let write_current path = write_file path (current ())

let read_file path =
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json doc

(* fbp-lint: allow float-discipline — total order incl. nan: JSON null round-trips to nan and must compare equal *)
let equal (a : t) (b : t) = compare a b = 0

(* ------------------------------------------------------------ run diff *)

type regression = {
  metric : string;
  base_value : float;
  cand_value : float;
  limit : string;
}

type comparison = {
  regressions : regression list;
  lines : string list;
}

let final_hpwl (t : t) =
  match t.totals with
  | Some tt -> Some tt.hpwl
  | None ->
    (match t.legalization with
     | Some l -> Some l.leg_hpwl
     | None ->
       (match List.rev t.levels with l :: _ -> Some l.hpwl | [] -> None))

let total_time_of (t : t) =
  match t.totals with
  | Some tt -> Some tt.total_time
  | None ->
    (match t.levels with
     | [] -> None
     | ls ->
       Some
         (List.fold_left
            (fun acc (l : level) ->
              acc +. l.qp_time +. l.flow_time +. l.realization_time)
            0.0 ls))

let violations_of (t : t) =
  match t.totals with
  | Some tt -> Some tt.violations
  | None -> (match t.legalization with Some l -> Some l.leg_mb_violations | None -> None)

(* GC-pause footprint: summed merged STW time across domains.  Only
   defined when the run carried a profile section; diff gates on it only
   when both sides have one, so old records stay comparable. *)
let gc_pause_us (t : t) =
  match t.profile with
  | None -> None
  | Some s ->
    Some
      (List.fold_left
         (fun acc (d : Profiler.domain_summary) -> acc +. d.Profiler.d_stw_us)
         0.0 s.Profiler.s_domains)

let diff ?max_gc_regress ~max_hpwl_regress ~max_time_regress ~(base : t)
    ~(cand : t) () =
  let regressions = ref [] and lines = ref [] in
  let line fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let regress metric base_value cand_value limit =
    regressions := { metric; base_value; cand_value; limit } :: !regressions
  in
  let pct b c = if Float.equal b 0.0 then 0.0 else 100.0 *. (c /. b -. 1.0) in
  let ratio_gate metric limit bo co =
    match (bo, co) with
    | Some b, Some c ->
      line "%-14s %14.6e -> %14.6e  (%+.2f%%, limit %+.1f%%)" metric b c
        (pct b c) (100.0 *. limit);
      if b > 0.0 && c /. b -. 1.0 > limit then
        regress metric b c (Printf.sprintf "+%.1f%%" (100.0 *. limit))
    | Some _, None -> regress metric 0.0 0.0 "metric missing from candidate"
    | _ -> line "%-14s (absent from baseline; not gated)" metric
  in
  ratio_gate "hpwl" max_hpwl_regress (final_hpwl base) (final_hpwl cand);
  ratio_gate "total_time" max_time_regress (total_time_of base) (total_time_of cand);
  (match (max_gc_regress, gc_pause_us base, gc_pause_us cand) with
   | Some limit, Some b, Some c ->
     line "%-14s %14.6e -> %14.6e  (%+.2f%%, limit %+.1f%% + 10ms floor)"
       "gc_pause_us" b c (pct b c) (100.0 *. limit);
     (* 10ms absolute floor: tiny runs jitter by whole pauses *)
     if c > (b *. (1.0 +. limit)) +. 10_000.0 then
       regress "gc_pause_us" b c (Printf.sprintf "+%.1f%%" (100.0 *. limit))
   | Some _, _, _ ->
     line "%-14s (profile absent from one side; not gated)" "gc_pause_us"
   | None, _, _ -> ());
  (match (violations_of base, violations_of cand) with
   | Some b, Some c ->
     line "%-14s %14d -> %14d  (limit: no increase)" "violations" b c;
     if c > b then regress "violations" (float_of_int b) (float_of_int c) "no increase"
   | _ -> ());
  (match (base.totals, cand.totals) with
   | Some bt, Some ct ->
     line "%-14s %14b -> %14b" "legal" bt.legal ct.legal;
     if bt.legal && not ct.legal then regress "legal" 1.0 0.0 "must stay legal"
   | _ -> ());
  line "%-14s %14d -> %14d" "levels" (List.length base.levels)
    (List.length cand.levels);
  { regressions = List.rev !regressions; lines = List.rev !lines }
