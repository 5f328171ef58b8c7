(** Flow-invariant sanitizer mode.

    When enabled by {!set_enabled} ([fbp_place place --sanitize] and the
    fuzzer call it), solver stages run checked invariants at their
    boundaries — MCF flow conservation and capacity bounds, transport
    row/column balance, CSR well-formedness, post-realization movebound
    containment — and a failure is raised as
    {!Fbp_error.Sanitizer_violation} (exit code 8), never degraded.

    When disabled, {!check} is one atomic read; the invariant thunk is not
    evaluated, so production runs pay no traversal cost. *)

(** True when sanitizer checks run (initially false). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Number of checks executed since process start (sanity signal for the
    bench/CI smoke: a sanitized run must report a nonzero count). *)
val checks_run : unit -> int

(** [check ~site ~invariant f] runs [f ()] when enabled; [Error detail]
    raises {!Fbp_error.Error} with [Sanitizer_violation {site; invariant;
    detail}]. *)
val check :
  site:string -> invariant:string -> (unit -> (unit, string) result) -> unit
