(* Structured observability: spans, counters, histograms, the GC sampler;
   Chrome trace and metrics JSON export.

   The fast path is a single [Atomic.get] per probe, so instrumentation left
   in hot solver code is effectively free until someone passes [--trace] /
   [--metrics].  When enabled, all mutation goes through one mutex: probes
   fire from realization worker domains concurrently, and the recording rate
   (per solve / per wave / per node, never per inner iteration) is far too
   low for the lock to matter. *)

module Json = Fbp_util.Json

let enabled_flag = Atomic.make false
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

type event = {
  name : string;
  ph : string;  (* "B" begin | "E" end *)
  ts : float;  (* microseconds since the trace clock start *)
  tid : int;  (* recording domain *)
  args : (string * string) list;
}

(* Atomic, not a ref under the lock: the pool profiler hook reads the
   trace clock from worker domains, and an atomic read that races [reset]
   merely lands on one side of it — same as [record]. *)
let epoch = Atomic.make (Fbp_util.Timer.now ())
let events : event list ref = ref []
let event_count = ref 0

(* Backstop against unbounded growth if a trace is left enabled across a
   huge run; generously above anything the bench designs produce. *)
let max_events = 4_000_000

let counters : (string, int) Hashtbl.t = Hashtbl.create 64
let histograms : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* The GC mark [sample_gc] measures from.  [Gc.quick_stat]'s minor_words
   is only refreshed at GC events on OCaml 5; [Gc.minor_words] reads the
   live allocation pointer, so the mark carries both. *)
let gc_now () = (Gc.quick_stat (), Gc.minor_words ())
let gc_mark = ref (gc_now ())

let reset () =
  with_lock (fun () ->
      events := [];
      event_count := 0;
      Hashtbl.reset counters;
      Hashtbl.reset histograms;
      gc_mark := gc_now ();
      Atomic.set epoch (Fbp_util.Timer.now ()))

let record name ph args =
  let ts = (Fbp_util.Timer.now () -. Atomic.get epoch) *. 1e6 in
  let tid = (Domain.self () :> int) in
  with_lock (fun () ->
      if !event_count < max_events then begin
        events := { name; ph; ts; tid; args } :: !events;
        incr event_count
      end)

let span ?args name f =
  if not (enabled ()) then f ()
  else begin
    record name "B" (match args with None -> [] | Some a -> a ());
    Fun.protect ~finally:(fun () -> record name "E" []) f
  end

(* The trace clock, exposed so the profiler can timestamp pool-occupancy
   samples and translate Runtime_events timestamps onto the same axis. *)
let now_us () = (Fbp_util.Timer.now () -. Atomic.get epoch) *. 1e6

(* A closed interval injected after the fact (the profiler's GC pauses,
   which are only known once the runtime-events ring is drained).  The
   begin/end pair is appended adjacently under the lock, so the trace
   validator's per-tid LIFO balance holds by construction no matter how
   the interval interleaves in time with live spans. *)
let record_interval ~name ~tid ~ts_us ~dur_us args =
  if enabled () then
    with_lock (fun () ->
        if !event_count + 2 <= max_events then begin
          events :=
            { name; ph = "E"; ts = ts_us +. dur_us; tid; args = [] }
            :: { name; ph = "B"; ts = ts_us; tid; args }
            :: !events;
          event_count := !event_count + 2
        end)

let count ?(n = 1) name =
  if enabled () then
    with_lock (fun () ->
        let v = match Hashtbl.find_opt counters name with Some v -> v | None -> 0 in
        Hashtbl.replace counters name (v + n))

let observe name v =
  if enabled () then
    with_lock (fun () ->
        match Hashtbl.find_opt histograms name with
        | Some r -> r := v :: !r
        | None -> Hashtbl.add histograms name (ref [ v ]))

type gc_delta = {
  minor_words : float;
  major_words : float;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

(* Always measured, so a level report gets its delta with the registry
   off; the gauges are ordinary probes.  Their totals are the sums of the
   deltas since [reset]. *)
let sample_gc () =
  let ((s, minor) as now) = gc_now () in
  let base, base_minor =
    with_lock (fun () ->
        let mark = !gc_mark in
        gc_mark := now;
        mark)
  in
  let d =
    {
      minor_words = minor -. base_minor;
      major_words = s.Gc.major_words -. base.Gc.major_words;
      major_collections = s.Gc.major_collections - base.Gc.major_collections;
      compactions = s.Gc.compactions - base.Gc.compactions;
      heap_words = s.Gc.heap_words;
    }
  in
  count ~n:d.major_collections "gc.major_collections";
  count ~n:d.compactions "gc.compactions";
  observe "gc.heap_words" (float_of_int d.heap_words);
  d

let counter_value name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with Some v -> v | None -> 0)

let histogram_values name =
  with_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some r -> Array.of_list (List.rev !r)
      | None -> [||])

let n_events () = with_lock (fun () -> !event_count)

(* ------------------------------------------------------------ emission *)

let trace_json () =
  let evs = with_lock (fun () -> List.rev !events) in
  let event e =
    Json.Obj
      ([ ("name", Json.Str e.name); ("cat", Json.Str "fbp"); ("ph", Json.Str e.ph);
         ("ts", Json.Num e.ts); ("pid", Json.int 1); ("tid", Json.int e.tid) ]
       @
       if e.args = [] then []
       else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.args)) ])
  in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.Arr (List.map event evs)) ])
  ^ "\n"

(* A histogram exists only once it holds an observation, so [a] is never
   empty. *)
let summary values =
  let a = Array.of_list (List.rev values) in
  let lo, hi = Fbp_util.Stats.min_max a in
  let pct p = Json.Num (Fbp_util.Stats.percentile a p) in
  Json.Obj
    [
      ("count", Json.int (Array.length a));
      ("sum", Json.Num (Fbp_util.Stats.sum a));
      ("mean", Json.Num (Fbp_util.Stats.mean a));
      ("min", Json.Num lo);
      ("max", Json.Num hi);
      ("p50", pct 0.5);
      ("p90", pct 0.9);
      ("p99", pct 0.99);
    ]

let metrics () =
  let cs, hs =
    with_lock (fun () ->
        ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [],
          Hashtbl.fold (fun k r acc -> (k, !r) :: acc) histograms [] ))
  in
  let sorted kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) (sorted cs)));
      ("histograms", Json.Obj (List.map (fun (k, vs) -> (k, summary vs)) (sorted hs)));
    ]

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_trace path = write_string path (trace_json ())
let write_metrics path = write_string path (Json.to_string (metrics ()) ^ "\n")

(* ----------------------------------------------------------- validation *)

let validate_trace doc =
  match Json.parse doc with
  | Error msg -> Error ("JSON parse failed: " ^ msg)
  | Ok root ->
    (match Json.member "traceEvents" root with
     | Some (Json.Arr evs) ->
       (* one LIFO stack per tid; B pushes, E must pop a matching name *)
       let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
       let stack tid =
         match Hashtbl.find_opt stacks tid with
         | Some r -> r
         | None ->
           let r = ref [] in
           Hashtbl.add stacks tid r;
           r
       in
       let pairs = ref 0 in
       let err = ref None in
       List.iteri
         (fun i ev ->
           if !err = None then begin
             let str k = match Json.member k ev with Some (Json.Str s) -> Some s | _ -> None in
             let num k = match Json.member k ev with Some (Json.Num f) -> Some f | _ -> None in
             match (str "ph", str "name", num "tid") with
             | Some ph, Some name, Some tidf ->
               let st = stack (int_of_float tidf) in
               (match ph with
                | "B" -> st := name :: !st
                | "E" ->
                  (match !st with
                   | top :: rest when top = name ->
                     st := rest;
                     incr pairs
                   | top :: _ ->
                     err :=
                       Some
                         (Printf.sprintf "event %d: end of \"%s\" but \"%s\" is open" i
                            name top)
                   | [] -> err := Some (Printf.sprintf "event %d: end of \"%s\" with no open span" i name))
                | _ -> ())
             | _ -> err := Some (Printf.sprintf "event %d: missing ph/name/tid" i)
           end)
         evs;
       (match !err with
        | Some e -> Error e
        | None ->
          let unbalanced = ref [] in
          Hashtbl.iter
            (fun tid r -> if !r <> [] then unbalanced := (tid, List.hd !r) :: !unbalanced)
            stacks;
          (match !unbalanced with
           | [] -> Ok !pairs
           | (tid, name) :: _ ->
             Error (Printf.sprintf "tid %d: span \"%s\" never closed" tid name)))
     | _ -> Error "no traceEvents array")

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let validate_trace_file path = validate_trace (read_whole_file path)

let validate_metrics doc =
  match Json.parse doc with
  | Error msg -> Error ("JSON parse failed: " ^ msg)
  | Ok root ->
    let sorted what keys =
      let rec go = function
        | a :: (b :: _ as rest) ->
          if String.compare a b > 0 then
            Error (Printf.sprintf "%s keys not sorted: %S after %S" what b a)
          else go rest
        | _ -> Ok ()
      in
      go keys
    in
    let ( let* ) = Result.bind in
    let obj what =
      match Json.member what root with
      | Some (Json.Obj kvs) -> Ok kvs
      | Some _ -> Error (Printf.sprintf "%S is not an object" what)
      | None -> Error (Printf.sprintf "no %S object" what)
    in
    let* cs = obj "counters" in
    let* hs = obj "histograms" in
    let* () = sorted "counter" (List.map fst cs) in
    let* () = sorted "histogram" (List.map fst hs) in
    let* () =
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          match v with
          | Json.Num f when Float.is_integer f -> Ok ()
          | _ -> Error (Printf.sprintf "counter %S is not an integer" k))
        (Ok ()) cs
    in
    let* () =
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          let num field =
            match Json.member field v with
            | Some (Json.Num f) -> Ok f
            | _ ->
              Error (Printf.sprintf "histogram %S summary lacks %S" k field)
          in
          let* count = num "count" in
          if not (Float.is_integer count && count >= 0.0) then
            Error (Printf.sprintf "histogram %S count is not a natural" k)
          else if Float.equal count 0.0 then Ok ()
          else
            List.fold_left
              (fun acc field ->
                let* () = acc in
                let* _ = num field in
                Ok ())
              (Ok ())
              [ "sum"; "p50"; "p90"; "p99" ])
        (Ok ()) hs
    in
    Ok (List.length cs + List.length hs)

let validate_metrics_file path = validate_metrics (read_whole_file path)
