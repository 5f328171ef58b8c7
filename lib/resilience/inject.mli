(** Deterministic fault injection for the placement pipeline.

    Solver stages poll {!fire} at instrumented sites; tests arm a site with
    a fault and a firing schedule, then drive the pipeline and assert that
    every degradation path produces a usable placement or a typed error.
    Scheduling is deterministic: hit counting plus an optional
    {!Fbp_util.Rng}-seeded firing probability, so a failing run replays
    bit-for-bit.

    The registry is global mutable state intended for single-domain test
    runs ([dune runtest]); production code pays one [bool] read per site
    when nothing is armed. *)

(** Instrumented sites. *)
type site =
  | Mcf  (** entry of {!Fbp_flow.Mcf.solve} *)
  | Cg
      (** once per axis solve: at the entry of {!Fbp_linalg.Cg.solve}.
          A QP solve polls it twice on the calling domain, x then y,
          before either axis runs — the polls two [solve] calls would
          make — and realization polls it so for each node of a wave, in
          node order, before the wave runs ({!Fbp_linalg.Cg.draw_fault});
          the axes then run on any domain.  [Stagnate] stops that axis
          only. *)
  | Parse  (** each input line of {!Fbp_netlist.Bookshelf.read_channel} *)
  | Level
      (** polled 3x per placer refinement level: at level start, after the
          QP solve and after the flow solve (the two mid-level deadline
          checks) *)
  | Transport
      (** entry of {!Fbp_flow.Transport.solve}, and for each node of a
          realization wave, in node order, before the wave runs
          ({!Fbp_flow.Transport.draw_fault}); supports [Raise] (solver
          failure) and [Corrupt] (tamper the assignment after solving, so
          the balance audit sees a wrong answer) *)
  | Legalize
      (** entry of {!Fbp_legalize.Legalizer.run}; supports [Raise]
          (legalizer failure) and [Corrupt] (displace a legalized cell
          outside the chip, so the containment audit sees a wrong
          answer) *)

type fault =
  | Infeasible of float
      (** [Mcf]: report [Infeasible] with this unrouted amount. *)
  | Stagnate  (** [Cg]: return immediately with [converged = false]. *)
  | Corrupt
      (** [Parse]: positioned parse error at the current line.
          [Mcf]/[Transport]/[Legalize]: silently tamper the stage's output
          (the sanitizer's control case). *)
  | Raise of string  (** any site: raise {!Injected}. *)
  | Delay of float
      (** [Level]: add virtual seconds to the placer's deadline clock. *)

(** Raised by a [Raise] fault — a stand-in for an arbitrary domain
    exception escaping a solver stage. *)
exception Injected of string

(** [arm site fault] makes {!fire} return [fault] at [site].
    [after] skips the first [after] hits (default 0); [times] limits how
    often the fault fires (default unlimited); [prob] fires each eligible
    hit with that probability, drawn from a SplitMix64 stream seeded with
    [seed] (default: always fire).  Re-arming a site replaces its previous
    schedule and resets its hit counter. *)
val arm : ?seed:int -> ?after:int -> ?times:int -> ?prob:float -> site -> fault -> unit

val disarm : site -> unit

(** Disarm every site and reset all counters. *)
val reset : unit -> unit

(** Number of times [site] was polled since it was armed. *)
val hits : site -> int

(** True when any site is armed (the fast-path check). *)
val active : unit -> bool

(** Called by instrumented code: polls the site's schedule. *)
val fire : site -> fault option
