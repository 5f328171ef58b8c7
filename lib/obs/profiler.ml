(* Domain-level runtime profiler: one per-domain timeline merged from
   three event sources, all on the Obs trace clock —

   - OCaml 5 [Runtime_events]: minor/major GC phases and stop-the-world
     rendezvous (leader and handler roles) per domain, read from the
     self-monitoring ring through a polling cursor.  The PR 7 pathology —
     parked worker domains joining every minor-GC STW — shows up here as
     STW time on rings whose pool timeline is pure park.
   - [Fbp_util.Pool]'s occupancy hook: per-helper parked / spinning /
     running transitions, per-chunk execution and batch submissions.
   - The placer's phase registrations ({!with_phase}), so GC pauses can be
     attributed to qp / flow / realization.

   Clock bridging: Runtime_events timestamps are monotonic-clock
   nanoseconds, the Obs clock is wall microseconds since [Obs.reset].  We
   recover the offset with a calibration user event — write it and record
   [Obs.now_us] at the same instant, then match it when it comes back
   through the cursor.  Relative drift over a placement run is far below
   the resolution we emit.  If calibration events are lost to ring
   overflow, the earliest runtime event is aligned with profiler start
   instead (documented in DESIGN.md "Profiling").

   Everything degrades, nothing fails: when [Runtime_events.start] raises
   (or tests force unavailability), the profiler still collects pool
   occupancy and phases — a run never fails because its profiler could
   not start.  Ring identity: a runtime-events ring id is the owning
   domain's index, which equals [Domain.self] for the long-lived domains
   the pool manages (its helpers are never torn down). *)

module J = Fbp_util.Json

(* Backstop against unbounded growth; one sample per worker scheduling
   transition, so even wave-heavy runs sit orders of magnitude below. *)
let max_pool_samples = 2_000_000
let top_pause_count = 5
let calib_name = "fbp.profiler.calib"

type Runtime_events.User.tag += Calib

let calib =
  lazy (Runtime_events.User.register calib_name Calib Runtime_events.Type.int)

(* ------------------------------------------------------------- summary *)

type domain_summary = {
  d_tid : int;
  d_wid : int;  (* worker id; -1 = main/owner domain, -2 = unknown ring *)
  d_wall_us : float;
  d_busy_us : float;
  d_spin_us : float;
  d_park_us : float;
  d_stw_us : float;  (* GC/STW time, disjoint from busy/spin/park *)
  d_stw_n : int;
  d_chunks : int;
}

type phase_summary = {
  ph_name : string;
  ph_wall_us : float;
  ph_gc_us : float;
  ph_gc_n : int;
}

type pause = { p_tid : int; p_kind : string; p_ts_us : float; p_dur_us : float }

type summary = {
  s_available : bool;  (* Runtime_events started and a cursor is live *)
  s_wall_us : float;
  s_events : int;  (* runtime events consumed from the ring *)
  s_lost : int;  (* events dropped to ring overflow *)
  s_pool_samples : int;
  s_stw_count : int;  (* stop-the-world rendezvous observed *)
  s_minor_us : float;
  s_major_us : float;
  s_submits : int;  (* batches submitted to the pool's helpers *)
  s_submit_latency_us : float;  (* mean submit -> first helper run *)
  s_domains : domain_summary list;
  s_phases : phase_summary list;
  s_top_pauses : pause list;
}

let empty_summary =
  {
    s_available = false;
    s_wall_us = 0.0;
    s_events = 0;
    s_lost = 0;
    s_pool_samples = 0;
    s_stw_count = 0;
    s_minor_us = 0.0;
    s_major_us = 0.0;
    s_submits = 0;
    s_submit_latency_us = 0.0;
    s_domains = [];
    s_phases = [];
    s_top_pauses = [];
  }

(* --------------------------------------------------------------- state *)

type pool_sample = {
  ps_wid : int;
  ps_tid : int;
  ps_kind : Fbp_util.Pool.profile_kind;
  ps_ts : float;  (* Obs clock, µs *)
}

(* A completed GC/STW interval.  [iv_ts] is on the *runtime* clock (µs)
   while the interval sits in [st_pending]; [flush_pending] rebases it
   onto the Obs clock before it reaches [st_intervals]. *)
type interval = {
  iv_ring : int;
  iv_kind : string;
  iv_ts : float;
  iv_dur : float;
}

type state = {
  st_lock : Mutex.t;  (* guards [st_pool]/[st_pool_n] (hook vs. main) *)
  st_available : bool;
  st_cursor : Runtime_events.cursor option;
  st_start_us : float;
  st_main_tid : int;
  st_open : (int * string, float) Hashtbl.t;  (* (ring, kind) -> rt µs *)
  mutable st_pool : pool_sample list;  (* newest first *)
  mutable st_pool_n : int;
  mutable st_pending : interval list;  (* runtime clock, newest first *)
  mutable st_intervals : interval list;  (* Obs clock, newest first *)
  mutable st_events : int;
  mutable st_lost : int;
  mutable st_offset : float;  (* obs_us = rt_us + st_offset *)
  mutable st_have_offset : bool;
  mutable st_calib : (int * float) list;  (* outstanding (seq, obs µs) *)
  mutable st_seq : int;
  mutable st_open_phases : (string * float) list;  (* stack, main only *)
  mutable st_phases : (string * float * float) list;  (* newest first *)
}

let current : state option Atomic.t = Atomic.make None

let running () =
  match Atomic.get current with Some _ -> true | None -> false

(* Pushed from worker domains through the pool hook; everything else in
   [state] is touched by the main domain only. *)
let on_pool_event st (ev : Fbp_util.Pool.profile_event) =
  let ts = Obs.now_us () in
  Mutex.lock st.st_lock;
  if st.st_pool_n < max_pool_samples then begin
    st.st_pool <-
      { ps_wid = ev.pe_wid; ps_tid = ev.pe_domain; ps_kind = ev.pe_kind;
        ps_ts = ts }
      :: st.st_pool;
    st.st_pool_n <- st.st_pool_n + 1
  end;
  Mutex.unlock st.st_lock

(* ------------------------------------------------- runtime-events glue *)

let phase_kind (ph : Runtime_events.runtime_phase) =
  match ph with
  | Runtime_events.EV_MINOR -> Some "minor"
  | Runtime_events.EV_MAJOR -> Some "major"
  | Runtime_events.EV_MAJOR_SLICE -> Some "major_slice"
  | Runtime_events.EV_STW_LEADER -> Some "stw_leader"
  | Runtime_events.EV_STW_HANDLER -> Some "stw_handler"
  | Runtime_events.EV_MINOR_LEAVE_BARRIER -> Some "minor_leave_barrier"
  | _ -> None

let ns_to_us ts =
  Int64.to_float (Runtime_events.Timestamp.to_int64 ts) /. 1e3

let callbacks st =
  let runtime_begin ring ts ph =
    match phase_kind ph with
    | None -> ()
    | Some kind -> Hashtbl.replace st.st_open (ring, kind) (ns_to_us ts)
  in
  let runtime_end ring ts ph =
    match phase_kind ph with
    | None -> ()
    | Some kind -> (
      match Hashtbl.find_opt st.st_open (ring, kind) with
      | None -> ()
      | Some t0 ->
        Hashtbl.remove st.st_open (ring, kind);
        let t1 = ns_to_us ts in
        if t1 > t0 then
          st.st_pending <-
            { iv_ring = ring; iv_kind = kind; iv_ts = t0; iv_dur = t1 -. t0 }
            :: st.st_pending)
  in
  let lost_events _ring n = st.st_lost <- st.st_lost + n in
  let cbs =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  in
  Runtime_events.Callbacks.add_user_event Runtime_events.Type.int
    (fun _ring ts ev seq ->
      if String.equal (Runtime_events.User.name ev) calib_name then begin
        match
          List.find_map
            (fun (s, wall) -> if s = seq then Some wall else None)
            st.st_calib
        with
        | Some wall ->
          st.st_offset <- wall -. ns_to_us ts;
          st.st_have_offset <- true;
          st.st_calib <- List.filter (fun (s, _) -> s > seq) st.st_calib
        | None -> ()
      end)
    cbs

let write_calib st =
  if st.st_available then begin
    st.st_seq <- st.st_seq + 1;
    let wall = Obs.now_us () in
    Runtime_events.User.write (Lazy.force calib) st.st_seq;
    st.st_calib <- (st.st_seq, wall) :: st.st_calib
  end

(* Rebase pending intervals onto the Obs clock and inject each as an
   adjacent B/E pair on its ring's trace track (GC pauses then visually
   overlay realization waves in Perfetto).  Intervals stay buffered until
   a calibration offset exists. *)
let flush_pending st =
  match st.st_pending with
  | [] -> ()
  | _ when not st.st_have_offset -> ()
  | pending ->
    st.st_pending <- [];
    List.iter
      (fun iv ->
        let ts = iv.iv_ts +. st.st_offset in
        st.st_intervals <- { iv with iv_ts = ts } :: st.st_intervals;
        Obs.record_interval
          ~name:("gc." ^ iv.iv_kind)
          ~tid:iv.iv_ring ~ts_us:ts ~dur_us:iv.iv_dur [])
      (List.rev pending)

let drain st =
  match st.st_cursor with
  | None -> ()
  | Some cursor ->
    write_calib st;
    st.st_events <- st.st_events + Runtime_events.read_poll cursor (callbacks st) None;
    flush_pending st

let poll () = match Atomic.get current with None -> () | Some st -> drain st

(* -------------------------------------------------------------- phases *)

let enter_phase name =
  match Atomic.get current with
  | None -> ()
  | Some st -> st.st_open_phases <- (name, Obs.now_us ()) :: st.st_open_phases

let exit_phase name =
  match Atomic.get current with
  | None -> ()
  | Some st -> (
    match st.st_open_phases with
    | (n, t0) :: rest when String.equal n name ->
      st.st_open_phases <- rest;
      st.st_phases <- (name, t0, Obs.now_us ()) :: st.st_phases
    | _ -> ())

let with_phase name f =
  match Atomic.get current with
  | None -> f ()
  | Some _ ->
    enter_phase name;
    Fun.protect ~finally:(fun () -> exit_phase name) f

(* ----------------------------------------------------------- lifecycle *)

let force_env () =
  match Sys.getenv_opt "FBP_PROFILE_FORCE_UNAVAILABLE" with
  | Some "1" -> true
  | _ -> false

let start ?(force_unavailable = false) () =
  match Atomic.get current with
  | Some _ -> ()
  | None ->
    let cursor =
      if force_unavailable || force_env () then None
      else
        try
          Runtime_events.start ();
          (try Runtime_events.resume () with _ -> ());
          Some (Runtime_events.create_cursor None)
        with _ -> None
    in
    let st =
      {
        st_lock = Mutex.create ();
        st_available = (match cursor with Some _ -> true | None -> false);
        st_cursor = cursor;
        st_start_us = Obs.now_us ();
        st_main_tid = (Domain.self () :> int);
        st_open = Hashtbl.create 32;
        st_pool = [];
        st_pool_n = 0;
        st_pending = [];
        st_intervals = [];
        st_events = 0;
        st_lost = 0;
        st_offset = 0.0;
        st_have_offset = false;
        st_calib = [];
        st_seq = 0;
        st_open_phases = [];
        st_phases = [];
      }
    in
    Atomic.set current (Some st);
    Fbp_util.Pool.set_profile_hook (fun ev -> on_pool_event st ev);
    write_calib st

(* ----------------------------------------------------- summarization *)

(* Merge overlapping same-ring intervals into disjoint pauses, labelling
   each merged pause with its longest contributing kind (minor sits inside
   stw_leader, minor_leave_barrier inside stw_handler — the union is the
   honest "domain was not running mutator code" time). *)
let merge_pauses ivs =
  let sorted =
    List.sort (fun a b -> Float.compare a.iv_ts b.iv_ts) ivs
  in
  let close acc (t0, t1, kind, _) =
    { iv_ring = 0; iv_kind = kind; iv_ts = t0; iv_dur = t1 -. t0 } :: acc
  in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some c -> close acc c)
    | iv :: rest -> (
      let e = iv.iv_ts +. iv.iv_dur in
      match cur with
      | None -> go acc (Some (iv.iv_ts, e, iv.iv_kind, iv.iv_dur)) rest
      | Some (t0, t1, kind, best) ->
        if iv.iv_ts <= t1 then
          let kind, best =
            if iv.iv_dur > best then (iv.iv_kind, iv.iv_dur) else (kind, best)
          in
          go acc (Some (t0, Float.max t1 e, kind, best)) rest
        else go (close acc (t0, t1, kind, best)) (Some (iv.iv_ts, e, iv.iv_kind, iv.iv_dur)) rest)
  in
  List.rev (go [] None sorted)

(* Clamp an interval to the observation window; None when fully outside. *)
let clamp_iv ~lo ~hi iv =
  let t0 = Float.max iv.iv_ts lo in
  let t1 = Float.min (iv.iv_ts +. iv.iv_dur) hi in
  if t1 > t0 then Some { iv with iv_ts = t0; iv_dur = t1 -. t0 } else None

type occ_state = Busy | Spin | Park

(* Fold one worker's pool samples into (state, t0, t1) segments covering
   the whole window, then carve the ring's STW pauses out of whichever
   segment they land in — so busy + spin + park + stw sums to the window
   by construction. *)
let worker_occupancy ~lo ~hi samples pauses =
  let initial =
    match samples with
    | [] -> Park
    | s :: _ -> (
      match s.ps_kind with
      | Fbp_util.Pool.Pe_park_end -> Park
      | Pe_spin_end -> Spin
      | Pe_run_end | Pe_chunk_begin _ | Pe_chunk_end _ -> Busy
      | Pe_park_begin | Pe_spin_begin | Pe_run_begin | Pe_submit _ -> Park)
  in
  let segs = ref [] in
  let close state t0 t1 = if t1 > t0 then segs := (state, t0, t1) :: !segs in
  let cur = ref initial and cur_t = ref lo and chunks = ref 0 in
  List.iter
    (fun s ->
      let next =
        match s.ps_kind with
        | Fbp_util.Pool.Pe_park_begin -> Some Park
        | Pe_park_end -> Some Busy
        | Pe_spin_begin -> Some Spin
        | Pe_spin_end -> Some Busy
        | Pe_run_begin -> Some Busy
        | Pe_run_end -> Some Busy
        | Pe_chunk_begin _ ->
          incr chunks;
          None
        | Pe_chunk_end _ | Pe_submit _ -> None
      in
      match next with
      | None -> ()
      | Some state ->
        let ts = Float.max lo (Float.min s.ps_ts hi) in
        close !cur !cur_t ts;
        cur := state;
        cur_t := ts)
    samples;
  close !cur !cur_t hi;
  let segs = Array.of_list (List.rev !segs) in
  let busy = ref 0.0 and spin = ref 0.0 and park = ref 0.0 in
  Array.iter
    (fun (state, t0, t1) ->
      let d = t1 -. t0 in
      match state with
      | Busy -> busy := !busy +. d
      | Spin -> spin := !spin +. d
      | Park -> park := !park +. d)
    segs;
  (* carve out the STW pauses: both lists are time-sorted and disjoint *)
  let stw = ref 0.0 and i = ref 0 in
  let n = Array.length segs in
  List.iter
    (fun p ->
      let p0 = p.iv_ts and p1 = p.iv_ts +. p.iv_dur in
      stw := !stw +. (p1 -. p0);
      while !i < n && (match segs.(!i) with _, _, t1 -> t1 <= p0) do incr i done;
      let j = ref !i in
      while
        !j < n && (match segs.(!j) with _, t0, _ -> t0 < p1)
      do
        let state, t0, t1 = segs.(!j) in
        let ov = Float.min t1 p1 -. Float.max t0 p0 in
        if ov > 0.0 then begin
          match state with
          | Busy -> busy := !busy -. ov
          | Spin -> spin := !spin -. ov
          | Park -> park := !park -. ov
        end;
        incr j
      done)
    pauses;
  (Float.max 0.0 !busy, Float.max 0.0 !spin, Float.max 0.0 !park, !stw, !chunks)

let summarize st stop_us =
  let lo = st.st_start_us in
  let hi = Float.max stop_us lo in
  let wall = hi -. lo in
  let pool = Mutex.protect st.st_lock (fun () -> List.rev st.st_pool) in
  let ivs =
    List.filter_map (clamp_iv ~lo ~hi) (List.rev st.st_intervals)
  in
  let total kind =
    List.fold_left
      (fun acc iv -> if String.equal iv.iv_kind kind then acc +. iv.iv_dur else acc)
      0.0 ivs
  in
  let count kind =
    List.fold_left
      (fun acc iv -> if String.equal iv.iv_kind kind then acc + 1 else acc)
      0 ivs
  in
  let minor_us = total "minor" in
  let major_us = total "major" +. total "major_slice" in
  let leader_n = count "stw_leader" in
  let stw_count = if leader_n > 0 then leader_n else count "minor" in
  (* per-ring merged pauses (the "domain was stopped" union) *)
  let rings = Hashtbl.create 8 in
  List.iter
    (fun iv ->
      let l =
        match Hashtbl.find_opt rings iv.iv_ring with Some l -> l | None -> []
      in
      Hashtbl.replace rings iv.iv_ring (iv :: l))
    ivs;
  let ring_pauses =
    Hashtbl.fold
      (fun ring l acc ->
        let merged =
          List.map (fun p -> { p with iv_ring = ring }) (merge_pauses l)
        in
        (ring, merged) :: acc)
      rings []
  in
  let pauses_of ring =
    match
      List.find_map
        (fun (r, l) -> if r = ring then Some l else None)
        ring_pauses
    with
    | Some l -> l
    | None -> []
  in
  (* pool samples per worker id (wid >= 0); owner samples keep wid = -1 *)
  let by_wid = Hashtbl.create 8 in
  let wid_tid = Hashtbl.create 8 in
  let main_chunks = ref 0 in
  let submits = ref [] in
  let helper_runs = ref [] in
  List.iter
    (fun s ->
      if s.ps_wid >= 0 then begin
        Hashtbl.replace wid_tid s.ps_wid s.ps_tid;
        let l =
          match Hashtbl.find_opt by_wid s.ps_wid with Some l -> l | None -> []
        in
        Hashtbl.replace by_wid s.ps_wid (s :: l);
        match s.ps_kind with
        | Fbp_util.Pool.Pe_run_begin -> helper_runs := s.ps_ts :: !helper_runs
        | _ -> ()
      end
      else begin
        match s.ps_kind with
        | Fbp_util.Pool.Pe_chunk_begin _ ->
          if s.ps_tid = st.st_main_tid then incr main_chunks
        | Pe_submit _ ->
          if s.ps_tid = st.st_main_tid then submits := s.ps_ts :: !submits
        | _ -> ()
      end)
    pool;
  let domains = ref [] in
  let seen_rings = ref [] in
  let note_ring r = seen_rings := r :: !seen_rings in
  (* main domain: busy whenever it is not stopped in a GC rendezvous *)
  let main_pauses = pauses_of st.st_main_tid in
  let main_stw = List.fold_left (fun a p -> a +. p.iv_dur) 0.0 main_pauses in
  note_ring st.st_main_tid;
  domains :=
    {
      d_tid = st.st_main_tid;
      d_wid = -1;
      d_wall_us = wall;
      d_busy_us = Float.max 0.0 (wall -. main_stw);
      d_spin_us = 0.0;
      d_park_us = 0.0;
      d_stw_us = main_stw;
      d_stw_n = List.length main_pauses;
      d_chunks = !main_chunks;
    }
    :: !domains;
  Hashtbl.iter
    (fun wid samples ->
      let samples = List.rev samples in
      let tid =
        match Hashtbl.find_opt wid_tid wid with Some t -> t | None -> -1
      in
      let pauses = pauses_of tid in
      note_ring tid;
      let busy, spin, park, stw, chunks =
        worker_occupancy ~lo ~hi samples pauses
      in
      domains :=
        {
          d_tid = tid;
          d_wid = wid;
          d_wall_us = wall;
          d_busy_us = busy;
          d_spin_us = spin;
          d_park_us = park;
          d_stw_us = stw;
          d_stw_n = List.length pauses;
          d_chunks = chunks;
        }
        :: !domains)
    by_wid;
  (* rings with GC activity but no pool mapping: foreign or pre-existing
     parked domains — the PR 7 signature shape (pure park plus STW tax) *)
  List.iter
    (fun (ring, pauses) ->
      if not (List.exists (fun r -> r = ring) !seen_rings) then begin
        let stw = List.fold_left (fun a p -> a +. p.iv_dur) 0.0 pauses in
        domains :=
          {
            d_tid = ring;
            d_wid = -2;
            d_wall_us = wall;
            d_busy_us = 0.0;
            d_spin_us = 0.0;
            d_park_us = Float.max 0.0 (wall -. stw);
            d_stw_us = stw;
            d_stw_n = List.length pauses;
            d_chunks = 0;
          }
          :: !domains
      end)
    ring_pauses;
  let domains =
    List.sort (fun a b -> Int.compare a.d_tid b.d_tid) !domains
  in
  (* submit -> first helper run latency (mean over matched submissions) *)
  let submits_l = List.rev !submits in
  let runs = List.sort Float.compare !helper_runs in
  let lat_sum = ref 0.0 and lat_n = ref 0 in
  List.iter
    (fun s ->
      match List.find_opt (fun r -> r >= s) runs with
      | Some r ->
        lat_sum := !lat_sum +. (r -. s);
        incr lat_n
      | None -> ())
    submits_l;
  let submit_latency = if !lat_n > 0 then !lat_sum /. float_of_int !lat_n else 0.0 in
  (* phase attribution: a pause belongs to the innermost registered phase
     interval containing its midpoint *)
  let completed =
    List.rev_append st.st_phases
      (List.map (fun (n, t0) -> (n, t0, hi)) st.st_open_phases)
  in
  let phase_order = ref [] in
  let phase_tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, t0, t1) ->
      let wall0, gc, n =
        match Hashtbl.find_opt phase_tbl name with
        | Some v -> v
        | None ->
          phase_order := name :: !phase_order;
          (0.0, 0.0, 0)
      in
      Hashtbl.replace phase_tbl name (wall0 +. (t1 -. t0), gc, n))
    completed;
  let attribute p =
    let mid = p.iv_ts +. (p.iv_dur /. 2.0) in
    let best = ref None in
    List.iter
      (fun (name, t0, t1) ->
        if t0 <= mid && mid <= t1 then
          match !best with
          | Some (_, bt0) when bt0 >= t0 -> ()
          | _ -> best := Some (name, t0))
      completed;
    Option.map fst !best
  in
  let all_pauses = List.concat_map snd ring_pauses in
  List.iter
    (fun p ->
      match attribute p with
      | None -> ()
      | Some name -> (
        match Hashtbl.find_opt phase_tbl name with
        | None -> ()
        | Some (w, gc, n) ->
          Hashtbl.replace phase_tbl name (w, gc +. p.iv_dur, n + 1)))
    all_pauses;
  let phases =
    List.rev_map
      (fun name ->
        let w, gc, n =
          match Hashtbl.find_opt phase_tbl name with
          | Some v -> v
          | None -> (0.0, 0.0, 0)
        in
        { ph_name = name; ph_wall_us = w; ph_gc_us = gc; ph_gc_n = n })
      !phase_order
  in
  let top =
    let sorted =
      List.sort (fun a b -> Float.compare b.iv_dur a.iv_dur) all_pauses
    in
    List.filteri (fun i _ -> i < top_pause_count) sorted
    |> List.map (fun p ->
           { p_tid = p.iv_ring; p_kind = p.iv_kind; p_ts_us = p.iv_ts;
             p_dur_us = p.iv_dur })
  in
  {
    s_available = st.st_available;
    s_wall_us = wall;
    s_events = st.st_events;
    s_lost = st.st_lost;
    s_pool_samples = st.st_pool_n;
    s_stw_count = stw_count;
    s_minor_us = minor_us;
    s_major_us = major_us;
    s_submits = List.length submits_l;
    s_submit_latency_us = submit_latency;
    s_domains = domains;
    s_phases = phases;
    s_top_pauses = top;
  }

(* Fallback calibration when every calib event was lost to ring overflow:
   align the earliest pending runtime event with profiler start. *)
let fallback_offset st =
  if not st.st_have_offset then begin
    match List.rev st.st_pending with
    | [] -> ()
    | first :: _ ->
      st.st_offset <- st.st_start_us -. first.iv_ts;
      st.st_have_offset <- true
  end

let snapshot () =
  match Atomic.get current with
  | None -> empty_summary
  | Some st ->
    drain st;
    fallback_offset st;
    flush_pending st;
    summarize st (Obs.now_us ())

let stop () =
  match Atomic.get current with
  | None -> empty_summary
  | Some st ->
    Fbp_util.Pool.clear_profile_hook ();
    drain st;
    fallback_offset st;
    flush_pending st;
    (match st.st_cursor with
    | None -> ()
    | Some cursor ->
      (try Runtime_events.free_cursor cursor with _ -> ());
      (try Runtime_events.pause () with _ -> ()));
    let stop_us = Obs.now_us () in
    Atomic.set current None;
    summarize st stop_us

(* ---------------------------------------------------------------- JSON *)

let summary_json s =
  let domain d =
    J.Obj
      [
        ("tid", J.int d.d_tid);
        ("wid", J.int d.d_wid);
        ("wall_us", J.Num d.d_wall_us);
        ("busy_us", J.Num d.d_busy_us);
        ("spin_us", J.Num d.d_spin_us);
        ("park_us", J.Num d.d_park_us);
        ("stw_us", J.Num d.d_stw_us);
        ("stw_n", J.int d.d_stw_n);
        ("chunks", J.int d.d_chunks);
      ]
  in
  let phase p =
    J.Obj
      [
        ("name", J.Str p.ph_name);
        ("wall_us", J.Num p.ph_wall_us);
        ("gc_us", J.Num p.ph_gc_us);
        ("gc_n", J.int p.ph_gc_n);
      ]
  in
  let pause p =
    J.Obj
      [
        ("tid", J.int p.p_tid);
        ("kind", J.Str p.p_kind);
        ("ts_us", J.Num p.p_ts_us);
        ("dur_us", J.Num p.p_dur_us);
      ]
  in
  J.Obj
    [
      ("schema", J.Str "fbp-profile");
      ("available", J.Bool s.s_available);
      ("wall_us", J.Num s.s_wall_us);
      ("events", J.int s.s_events);
      ("lost", J.int s.s_lost);
      ("pool_samples", J.int s.s_pool_samples);
      ("stw_count", J.int s.s_stw_count);
      ("minor_us", J.Num s.s_minor_us);
      ("major_us", J.Num s.s_major_us);
      ("submits", J.int s.s_submits);
      ("submit_latency_us", J.Num s.s_submit_latency_us);
      ("domains", J.Arr (List.map domain s.s_domains));
      ("phases", J.Arr (List.map phase s.s_phases));
      ("top_pauses", J.Arr (List.map pause s.s_top_pauses));
    ]

let summary_of_json j =
  let ( let* ) = Result.bind in
  let num k o =
    match J.member k o with
    | Some (J.Num f) -> Ok f
    | _ -> Error (Printf.sprintf "profile: missing number %S" k)
  in
  let int_ k o = Result.map int_of_float (num k o) in
  let str k o =
    match J.member k o with
    | Some (J.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "profile: missing string %S" k)
  in
  let bool_ k o =
    match J.member k o with
    | Some (J.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "profile: missing bool %S" k)
  in
  let arr k o =
    match J.member k o with
    | Some (J.Arr l) -> Ok l
    | _ -> Error (Printf.sprintf "profile: missing array %S" k)
  in
  let map_m f l =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      (Ok []) l
    |> Result.map List.rev
  in
  let domain o =
    let* d_tid = int_ "tid" o in
    let* d_wid = int_ "wid" o in
    let* d_wall_us = num "wall_us" o in
    let* d_busy_us = num "busy_us" o in
    let* d_spin_us = num "spin_us" o in
    let* d_park_us = num "park_us" o in
    let* d_stw_us = num "stw_us" o in
    let* d_stw_n = int_ "stw_n" o in
    let* d_chunks = int_ "chunks" o in
    Ok
      { d_tid; d_wid; d_wall_us; d_busy_us; d_spin_us; d_park_us; d_stw_us;
        d_stw_n; d_chunks }
  in
  let phase o =
    let* ph_name = str "name" o in
    let* ph_wall_us = num "wall_us" o in
    let* ph_gc_us = num "gc_us" o in
    let* ph_gc_n = int_ "gc_n" o in
    Ok { ph_name; ph_wall_us; ph_gc_us; ph_gc_n }
  in
  let pause o =
    let* p_tid = int_ "tid" o in
    let* p_kind = str "kind" o in
    let* p_ts_us = num "ts_us" o in
    let* p_dur_us = num "dur_us" o in
    Ok { p_tid; p_kind; p_ts_us; p_dur_us }
  in
  let* s_available = bool_ "available" j in
  let* s_wall_us = num "wall_us" j in
  let* s_events = int_ "events" j in
  let* s_lost = int_ "lost" j in
  let* s_pool_samples = int_ "pool_samples" j in
  let* s_stw_count = int_ "stw_count" j in
  let* s_minor_us = num "minor_us" j in
  let* s_major_us = num "major_us" j in
  let* s_submits = int_ "submits" j in
  let* s_submit_latency_us = num "submit_latency_us" j in
  let* domains = arr "domains" j in
  let* s_domains = map_m domain domains in
  let* phases = arr "phases" j in
  let* s_phases = map_m phase phases in
  let* pauses = arr "top_pauses" j in
  let* s_top_pauses = map_m pause pauses in
  Ok
    {
      s_available;
      s_wall_us;
      s_events;
      s_lost;
      s_pool_samples;
      s_stw_count;
      s_minor_us;
      s_major_us;
      s_submits;
      s_submit_latency_us;
      s_domains;
      s_phases;
      s_top_pauses;
    }

(* -------------------------------------------------------------- render *)

let ms us = us /. 1e3

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

let role d =
  if d.d_wid = -1 then "main"
  else if d.d_wid = -2 then "other"
  else Printf.sprintf "w%d" d.d_wid

let render s =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "profile: wall %.1f ms, %d runtime events (%d lost), %d pool samples%s\n"
    (ms s.s_wall_us) s.s_events s.s_lost s.s_pool_samples
    (if s.s_available then "" else "  [Runtime_events unavailable]");
  add "gc: %d STW rendezvous, minor %.1f ms, major %.1f ms\n" s.s_stw_count
    (ms s.s_minor_us) (ms s.s_major_us);
  if s.s_submits > 0 then
    add "pool: %d batch submissions, mean epoch-bump latency %.1f us\n" s.s_submits
      s.s_submit_latency_us;
  add "%-5s %-6s %7s %7s %7s %7s %9s %7s %7s\n" "tid" "role" "busy%" "spin%"
    "park%" "stw%" "stw ms" "pauses" "chunks";
  List.iter
    (fun d ->
      add "%-5d %-6s %7.1f %7.1f %7.1f %7.1f %9.2f %7d %7d\n" d.d_tid (role d)
        (pct d.d_busy_us d.d_wall_us)
        (pct d.d_spin_us d.d_wall_us)
        (pct d.d_park_us d.d_wall_us)
        (pct d.d_stw_us d.d_wall_us)
        (ms d.d_stw_us) d.d_stw_n d.d_chunks)
    s.s_domains;
  if s.s_phases <> [] then begin
    add "%-14s %10s %9s %6s %7s\n" "phase" "wall ms" "gc ms" "gc%" "pauses";
    List.iter
      (fun p ->
        add "%-14s %10.1f %9.2f %6.1f %7d\n" p.ph_name (ms p.ph_wall_us)
          (ms p.ph_gc_us)
          (pct p.ph_gc_us p.ph_wall_us)
          p.ph_gc_n)
      s.s_phases
  end;
  if s.s_top_pauses <> [] then begin
    add "top pauses:";
    List.iter
      (fun p ->
        add " [tid %d] %s %.2f ms @ %.1f ms;" p.p_tid p.p_kind (ms p.p_dur_us)
          (ms p.p_ts_us))
      s.s_top_pauses;
    add "\n"
  end;
  Buffer.contents b
