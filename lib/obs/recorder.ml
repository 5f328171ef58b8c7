(* Quality flight recorder: per-level placement snapshots, serialized as a
   versioned run-record JSON.

   A record is a plain value; whoever runs the placer builds it.
   Serialization goes through [Fbp_util.Json] in both directions so
   write -> parse round-trips exactly (floats are emitted with enough
   digits; non-finite values print as JSON null and decode to nan). *)

type gc_delta = Obs.gc_delta = {
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
  metrics : Fbp_util.Json.t option;
  profile : Profiler.summary option;
}

let schema_name = "fbp-run-record"
let schema_version = 1

let empty =
  {
    version = schema_version;
    provenance =
      { design = ""; cells = 0; nets = 0; movebounds = 0; seed = None;
        tool = ""; config = []; host = None };
    levels = [];
    legalization = None;
    density = None;
    totals = None;
    metrics = None;
    profile = None;
  }

(* ------------------------------------------------------- serialization *)

module J = Fbp_util.Json

let jopt enc = function Some v -> enc v | None -> J.Null

let gc_to_json g =
  J.Obj
    [
      ("minor_words", J.Num g.minor_words);
      ("major_words", J.Num g.major_words);
      ("major_collections", J.int g.major_collections);
      ("compactions", J.int g.compactions);
      ("heap_words", J.int g.heap_words);
    ]

let level_to_json (l : level) =
  J.Obj
    [
      ("level", J.int l.level);
      ("nx", J.int l.nx);
      ("ny", J.int l.ny);
      ("n_windows", J.int l.n_windows);
      ("n_pieces", J.int l.n_pieces);
      ("flow_nodes", J.int l.flow_nodes);
      ("flow_edges", J.int l.flow_edges);
      ("hpwl", J.Num l.hpwl);
      ("density_overflow", J.Num l.density_overflow);
      ("mb_violations", J.int l.mb_violations);
      ("cg_iterations", J.int l.cg_iterations);
      ("cg_residual", J.Num l.cg_residual);
      ("cg_converged", J.Bool l.cg_converged);
      ("mcf_cost", J.Num l.mcf_cost);
      ("mcf_rounds", J.int l.mcf_rounds);
      ("waves", J.int l.waves);
      ("shipped_cells", J.int l.shipped_cells);
      ("fallback_cells", J.int l.fallback_cells);
      ("qp_time", J.Num l.qp_time);
      ("flow_time", J.Num l.flow_time);
      ("realization_time", J.Num l.realization_time);
      ("gc", gc_to_json l.gc);
    ]

let legalization_to_json (l : legalization) =
  J.Obj
    [
      ("hpwl", J.Num l.leg_hpwl);
      ("density_overflow", J.Num l.leg_density_overflow);
      ("mb_violations", J.int l.leg_mb_violations);
      ("time", J.Num l.leg_time);
      ("spilled", J.int l.spilled);
      ("failed", J.int l.failed);
      ("avg_displacement", J.Num l.avg_displacement);
      ("max_displacement", J.Num l.max_displacement);
    ]

let density_to_json (d : density_map) =
  J.Obj
    [
      ("nx", J.int d.dnx);
      ("ny", J.int d.dny);
      ("usage", J.Arr (Array.to_list (Array.map (fun f -> J.Num f) d.usage)));
      ("capacity", J.Arr (Array.to_list (Array.map (fun f -> J.Num f) d.capacity)));
    ]

let host_to_json (h : host) =
  J.Obj
    [
      ("hw_clamp", J.Bool h.hw_clamp);
      ("hardware_domains", J.int h.hardware_domains);
      ("eff_domains", J.int h.eff_domains);
      ("peak_rss_kb", jopt J.int h.peak_rss_kb);
    ]

let provenance_to_json (p : provenance) =
  J.Obj
    [
      ("design", J.Str p.design);
      ("cells", J.int p.cells);
      ("nets", J.int p.nets);
      ("movebounds", J.int p.movebounds);
      ("seed", jopt J.int p.seed);
      ("tool", J.Str p.tool);
      ("config", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) p.config));
      ("host", jopt host_to_json p.host);
    ]

let totals_to_json (t : totals) =
  J.Obj
    [
      ("hpwl", J.Num t.hpwl);
      ("global_time", J.Num t.global_time);
      ("legalize_time", J.Num t.legalize_time);
      ("total_time", J.Num t.total_time);
      ("legal", J.Bool t.legal);
      ("violations", J.int t.violations);
    ]

let to_json (t : t) =
  J.to_string
    (J.Obj
       [
         ("schema", J.Str schema_name);
         ("version", J.int t.version);
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
