(** Wall-clock phase timers (Tables I and VI instrumentation). *)

(** Current wall-clock time in seconds. *)
val now : unit -> float

(** [time f] runs [f ()] and returns its result with its wall time. *)
val time : (unit -> 'a) -> 'a * float
