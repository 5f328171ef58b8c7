(** The fbp-lint rule set: compiler-AST checks over one parsed module.

    Rules (see DESIGN.md "Static analysis & sanitizers" for the catalogue
    and rationale):

    - [domain-safety] — module-level mutable bindings ([ref], [Hashtbl])
      in domain-parallel modules.  Use [Atomic] or a [Mutex].  What the
      closures passed to [Fbp_util.Pool] entry points capture is checked
      by the typed pass ({!Interproc}), not here.
    - [float-discipline] — polymorphic [compare] / [List.assoc] family /
      [List.mem] / [=] against float-bearing operands ([nan] comparisons
      included).  Use the monomorphic [Float.compare] / [Int.compare] /
      keyed helpers.
    - [determinism] — [Random.*], [Sys.time], [Unix.gettimeofday] outside
      [lib/util/rng.ml] and [lib/util/timer.ml]; the run-record regression
      gate needs bit-reproducible runs.
    - [error-taxonomy] — bare [failwith] / [exit] / anonymous [invalid_arg]
      in [lib/] outside [Fbp_resilience]; pipeline failures go through the
      typed {!Fbp_resilience.Fbp_error} taxonomy, preconditions must name
      their function ("Module.fn: ...").
    - [io-discipline] — [Printf.printf] / [print_endline] and friends in
      [lib/]; output belongs to the CLI, bench, or [Fbp_obs]. *)

(** [(id, summary)] for every rule, including the [lint-directive]
    meta-rule for malformed/unused suppressions. *)
val catalogue : (string * string) list

(** Run every rule over one parsed implementation.  [file] is the
    repo-relative path; it decides which scopes ([lib/], [bin/], [bench/])
    apply. *)
val run : file:string -> Ppxlib.structure -> Diagnostic.t list
