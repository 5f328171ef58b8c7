(** Orchestration: gather sources, parse, run {!Rules} on each file and
    the typed whole-program {!Interproc} pass over the [.cmt] units,
    apply {!Suppress} directives, compare against a committed baseline.

    The baseline file holds one {!Diagnostic.key} per line ([#] comments
    and blank lines ignored).  Policy for this repo: the committed
    baseline stays empty — new findings are fixed or suppressed inline
    with a reason, never baselined; the mechanism exists so a future
    rule can land before its cleanup. *)

type report = {
  files_scanned : int;
  diagnostics : Diagnostic.t list;  (** post-suppression, sorted *)
  baselined : int;  (** findings hidden by the baseline *)
  errors : (string * string) list;
      (** (path, why): read/parse failures, files no typed unit covers,
          undecodable [.cmt] files *)
  interproc_units : int;  (** typed units the interprocedural pass loaded *)
}

(** Lint source text as-if at [path] (drives path-scoped rules) with the
    per-file {!Rules} only: the fixture entry for those rules.  Capture
    checks on [Fbp_util.Pool] closures, and the semantic determinism and
    error-taxonomy checks, belong to the typed pass, which needs compiled
    units; their fixtures go through {!Interproc.analyze_units}. *)
val lint_string : path:string -> string -> Diagnostic.t list

(** Read one file and lint it as {!lint_string} does. *)
val lint_file : string -> (Diagnostic.t list, string) result

(** Expand files/directories into a sorted list of [.ml] files;
    [_build], [_opam] and dot-directories are skipped, and so is a root
    that does not exist ({!run_paths} reports it). *)
val gather_files : string list -> string list

(** Lint every file under the roots with both passes; [baseline] is a
    path (missing or unreadable baseline = empty).  The typed pass loads
    the [.cmt] units under [cmt_roots] (default:
    {!Cmt_loader.default_roots} of the roots); its findings are merged
    per file (suffix-tolerant source matching), so suppression staleness
    is judged against both passes.  A gathered file that no loaded unit
    covers is a file error naming [dune build @check]: the lint never
    runs a file without its typed pass.  A root that does not exist is an
    error naming it, so a mistyped path fails instead of linting
    nothing. *)
val run_paths :
  ?baseline:string -> ?cmt_roots:string list -> string list -> report

type ratchet = {
  kept : string list;  (** old keys still firing: the new baseline *)
  retired : string list;  (** old keys no longer firing *)
  rejected : string list;  (** current findings absent from the old file *)
}

(** Baseline ratchet: compare current findings against the committed
    keys.  [rejected] non-empty means the baseline would have to grow,
    which the tooling refuses. *)
val ratchet : old_keys:string list -> current:Diagnostic.t list -> ratchet

(** Parse a baseline file's keys ([None]/missing file = empty). *)
val load_baseline : string option -> string list

(** Human-readable report: one line per finding plus a summary line. *)
val render_text : report -> string

(** Machine-readable report: a single JSON object. *)
val render_json : report -> string

(** True when the report requires attention (findings or errors). *)
val failed : report -> bool
