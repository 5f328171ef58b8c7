(** Process memory gauges for provenance and profiling artifacts. *)

(** Peak resident set size in kilobytes ([VmHWM] from [/proc/self/status]).
    [None] off Linux or when the field is unreadable — callers must treat
    it as an optional gauge, never a hard requirement. *)
val peak_rss_kb : unit -> int option
