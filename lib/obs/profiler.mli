(** Domain-level runtime profiler.

    Merges three event sources into one per-domain timeline on the Obs
    trace clock:

    - {b OCaml 5 Runtime_events} — minor/major GC phases and
      stop-the-world rendezvous (leader + handler) per domain, read from
      the process's own event ring through a polling cursor;
    - {b pool occupancy} — [Fbp_util.Pool]'s profile hook: per-worker
      parked / spinning / running transitions, per-chunk execution, batch
      submissions and epoch-bump latency;
    - {b phases} — intervals registered by the placer ({!with_phase}), so
      GC pauses are attributed to qp / flow / realization.

    Exports three ways: completed GC pauses are injected into the Chrome
    trace as per-domain [gc.*] tracks (when [Obs] is enabled), {!summary}
    serializes into the run-record's [profile] section, and {!render}
    prints the per-domain utilization table behind [fbp_place profile].

    The profiler is an observer: placement results are bit-identical with
    it on or off, and a run never fails because profiling could not start
    — when [Runtime_events] is unavailable (or forced off for tests) it
    degrades to pool occupancy and phases only, with
    [summary.s_available = false].

    Overhead: disabled, each pool transition costs one [Atomic.get];
    armed, sampling happens per scheduling transition and per GC event —
    never per element.  The ring buffer size is fixed at process start
    ([OCAMLRUNPARAM=e=N], log2 words per domain); overflow is reported
    honestly in [s_lost], never guessed around. *)

(** Per-domain occupancy over the observation window.  [d_busy_us] +
    [d_spin_us] + [d_park_us] + [d_stw_us] = [d_wall_us] by construction
    for pool workers; the main domain counts everything outside GC as
    busy. *)
type domain_summary = {
  d_tid : int;  (** domain id = runtime-events ring id *)
  d_wid : int;  (** pool worker id; [-1] main/owner, [-2] unknown ring *)
  d_wall_us : float;
  d_busy_us : float;
  d_spin_us : float;
  d_park_us : float;
  d_stw_us : float;  (** merged GC/STW pause time, disjoint from the rest *)
  d_stw_n : int;  (** merged pause count *)
  d_chunks : int;  (** chunks this worker executed *)
}

type phase_summary = {
  ph_name : string;
  ph_wall_us : float;
  ph_gc_us : float;  (** GC pause time (all domains) attributed here *)
  ph_gc_n : int;
}

type pause = { p_tid : int; p_kind : string; p_ts_us : float; p_dur_us : float }

type summary = {
  s_available : bool;  (** Runtime_events delivered events *)
  s_wall_us : float;
  s_events : int;  (** runtime events consumed *)
  s_lost : int;  (** runtime events dropped to ring overflow *)
  s_pool_samples : int;
  s_stw_count : int;  (** stop-the-world rendezvous observed *)
  s_minor_us : float;
  s_major_us : float;
  s_submits : int;  (** batches submitted to the pool's helpers *)
  s_submit_latency_us : float;  (** mean submit → first helper run *)
  s_domains : domain_summary list;  (** sorted by [d_tid] *)
  s_phases : phase_summary list;  (** in first-registration order *)
  s_top_pauses : pause list;  (** longest merged pauses, descending *)
}

val empty_summary : summary

(** Start profiling: subscribes to [Runtime_events] (best effort),
    installs the pool occupancy hook, anchors the observation window.
    Idempotent while running.  [force_unavailable] (or env
    [FBP_PROFILE_FORCE_UNAVAILABLE=1]) skips [Runtime_events] to exercise
    the degraded path. *)
val start : ?force_unavailable:bool -> unit -> unit

val running : unit -> bool

(** Drain the runtime-events ring (main domain only).  Cheap no-op when
    not running; the placer calls this at level boundaries so ring
    overflow stays bounded and trace injection is incremental. *)
val poll : unit -> unit

(** [with_phase name f] runs [f ()] registered as phase [name] (main
    domain only); the only way to open a phase. *)
val with_phase : string -> (unit -> 'a) -> 'a

(** Summary of everything observed so far without stopping — counters are
    monotone across successive snapshots. *)
val snapshot : unit -> summary

(** Final drain, detach the pool hook, release the cursor and pause event
    collection; returns the run's summary.  {!empty_summary} when not
    running. *)
val stop : unit -> summary

val summary_json : summary -> Fbp_util.Json.t
val summary_of_json : Fbp_util.Json.t -> (summary, string) result

(** Human-readable per-domain utilization / GC table. *)
val render : summary -> string
