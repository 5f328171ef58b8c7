(** Structured observability for the placement pipeline.

    Three primitives, all process-global and domain-safe, plus the one GC
    sampler ({!sample_gc}):

    - {b spans} — nested begin/end intervals ({!span}) exported as Chrome
      trace-event JSON ({!write_trace}, loadable in [chrome://tracing] /
      Perfetto).  Each event carries the recording domain as its [tid], so
      parallel realization waves appear as concurrent tracks.
    - {b counters} — monotonic integer counts ({!count}).
    - {b histograms} — float observations ({!observe}) summarized at export
      time (count/sum/mean/min/max/p50/p90/p99 via {!Fbp_util.Stats}).

    Instrumentation is disabled by default: every probe first reads one
    atomic flag and returns, so a fully-probed solver chain costs well under
    5% when nothing is armed.  Enable with {!enable} (the CLI does this when
    [--trace], [--metrics] or [--record] is given), then export with
    {!write_trace} / {!write_metrics}.  Every export is a {!Json.t} printed
    by {!Json.to_string}.

    The span taxonomy and metric names used by the pipeline are documented
    in DESIGN.md ("Observability"). *)

(** {!Fbp_util.Json} under the name fbp-bench uses. *)
module Json = Fbp_util.Json

(** [true] once {!enable} was called (and {!disable} was not). *)
val enabled : unit -> bool

val enable : unit -> unit
val disable : unit -> unit

(** Drop all recorded events, counters and histograms, restart the trace
    clock and move the GC mark of {!sample_gc} to now.  Does not change the
    enabled flag. *)
val reset : unit -> unit

(** [span name f] runs [f ()]; when enabled, records a begin event before
    and an end event after (also on exception).  [args] is evaluated only
    when enabled, so argument formatting is free on the disabled path.
    Spans nest; balance is guaranteed by construction.  This is the only
    way to open a span. *)
val span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a

(** Microseconds on the trace clock (the axis of every span timestamp);
    restarts at {!reset}.  Meaningful whether or not recording is
    enabled. *)
val now_us : unit -> float

(** [record_interval ~name ~tid ~ts_us ~dur_us args] appends a closed
    [B]/[E] pair for an interval measured elsewhere (the profiler's GC
    pauses).  The two events are adjacent in the stream, so trace balance
    is preserved by construction. *)
val record_interval :
  name:string ->
  tid:int ->
  ts_us:float ->
  dur_us:float ->
  (string * string) list ->
  unit

(** [count name] adds [n] (default 1) to the counter [name]. *)
val count : ?n:int -> string -> unit

(** [observe name v] appends [v] to the histogram [name]. *)
val observe : string -> float -> unit

(** GC activity between two {!sample_gc} calls.  [heap_words] is the
    absolute major-heap size at the later call, not a delta. *)
type gc_delta = {
  minor_words : float;  (** from the live allocation counter, exact *)
  major_words : float;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

(** The one GC sampler: the delta since the previous call (or since
    {!reset}), which then becomes the new mark.  It always measures, so the
    placer's level reports (and the run record) get their per-level [gc]
    delta whether or not the registry is on.  When enabled, it also adds the delta to the counters
    [gc.major_collections] / [gc.compactions] (so they total the
    collections since {!reset}) and observes [heap_words] in the
    [gc.heap_words] histogram.  The placer calls it once per level. *)
val sample_gc : unit -> gc_delta

(** Current counter value; 0 when the counter was never touched. *)
val counter_value : string -> int

(** All values observed for [name], in recording order. *)
val histogram_values : string -> float array

(** Number of recorded trace events (begin + end). *)
val n_events : unit -> int

(** Chrome trace-event JSON ({["traceEvents"]} array of ["B"]/["E"] pairs,
    timestamps in microseconds since the trace clock start), printed. *)
val trace_json : unit -> string

(** The metrics object: {["counters"]} (name → int) and {["histograms"]}
    (name → count/sum/mean/min/max/p50/p90/p99 summary), keys sorted.  The
    run record embeds it as is. *)
val metrics : unit -> Json.t

(** {!trace_json} to a file. *)
val write_trace : string -> unit

(** {!metrics}, printed, to a file. *)
val write_metrics : string -> unit

(** Validate a Chrome trace document: parses, has a ["traceEvents"] array,
    and every domain's begin/end events balance with matching names in
    stack (LIFO) order.  Returns the number of balanced span pairs. *)
val validate_trace : string -> (int, string) result

(** {!validate_trace} on a file's contents. *)
val validate_trace_file : string -> (int, string) result

(** Validate a metrics document against the documented schema: a
    ["counters"] object whose values are all integral numbers, a
    ["histograms"] object whose summaries carry [count] (plus
    [sum]/[p50]/[p90]/[p99] whenever [count > 0]), and both key sets in
    sorted order.  Returns the number of metrics validated. *)
val validate_metrics : string -> (int, string) result

(** {!validate_metrics} on a file's contents. *)
val validate_metrics_file : string -> (int, string) result
