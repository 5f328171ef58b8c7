(** Typed failure taxonomy of the placement pipeline.

    Every stage of the solver chain (parsing, QP/CG, flow partitioning,
    realization, deadlines) reports failure as one of these variants, each
    carrying enough context to act on: retry, relax, fall back, or surface
    to the user with a meaningful exit code. *)

(** CG solve statistics, mirrored from [Fbp_linalg.Cg.stats] so this module
    stays at the bottom of the dependency order (the linalg library itself
    hosts a fault-injection site and must be able to depend on us). *)
type cg_stats = {
  iterations : int;
  residual : float;  (** final ||Ax − b|| / max(1, ||b||) *)
  converged : bool;
}

type t =
  | Infeasible_flow of { unrouted : float; level : int }
      (** MinCostFlow could not route [unrouted] cell area at grid level
          [level] — by Theorem 3 a certificate that no fractional placement
          with movebounds exists (after any attempted relaxation). *)
  | Cg_diverged of cg_stats
      (** Conjugate gradients failed to converge even after a safeguarded
          restart with stronger anchors. *)
  | Parse_error of { file : string; line : int; msg : string }
      (** Malformed design input, positioned. *)
  | Deadline_exceeded of { elapsed : float; budget : float; level : int }
      (** The per-run wall-clock budget ran out before level [level]. *)
  | Capacity_overflow of { demand : float; capacity : float; classes : int list }
      (** Movebound classes demand more area than their regions hold
          (Theorems 1–2 preprocessing check). *)
  | Invalid_input of string
      (** Structural input problem (e.g. movebound normalization failure). *)
  | Internal of { site : string; msg : string }
      (** Unexpected exception escaping stage [site]. *)
  | Sanitizer_violation of { site : string; invariant : string; detail : string }
      (** A checked runtime invariant (sanitizer mode, [--sanitize])
          failed at [site]: the named [invariant] does
          not hold, with the offending numbers in [detail].  Always a
          bug report, never degradable. *)

val to_string : t -> string

(** Stable process exit code per error class (0 is success, 1 reserved for
    generic/CLI errors): infeasible/capacity 2, parse 3, deadline 4,
    invalid input 5, CG divergence 6, internal 7, sanitizer violation 8. *)
val exit_code : t -> int

(** Typed errors as an exception, for call stacks that cannot thread a
    [result] (deep solver loops, sanitizer checks).  [of_exn] unwraps it
    back to the payload, so values raised with {!raise_error} surface
    intact at the stage boundary. *)
exception Error of t

val raise_error : t -> 'a

(** Wrap an escaped exception as [Internal], keeping its message. *)
val of_exn : site:string -> exn -> t
