(** Inline lint suppressions.

    A finding is silenced by a comment on the same line or the line above:

    {[ (* fbp-lint: allow float-discipline — total order incl. nan wanted *) ]}

    Several rules may be listed, comma-separated.  The reason (after the
    dash/colon separator) is mandatory: a suppression without one, or a
    comment that name-drops [fbp-lint:] without matching the grammar, is
    itself reported under the [lint-directive] rule — as is a suppression
    that no finding ever used (dead suppressions rot). *)

type t = {
  line : int;  (** line the comment sits on *)
  rules : string list;
  reason : string;
  mutable used : bool;
}

(** Scan raw source text; also returns diagnostics for malformed
    directives. *)
val scan : file:string -> string -> t list * Diagnostic.t list

(** [apply ~file sups diags] drops suppressed findings (same line or the
    line directly below the comment), marks the suppressions used, and
    appends a [lint-directive] finding per unused suppression.
    {!Lint.run_paths} passes the findings of both passes for the file
    (the per-file {!Rules} and the typed {!Interproc}), so a suppression
    it reports unused matches neither. *)
val apply : file:string -> t list -> Diagnostic.t list -> Diagnostic.t list
