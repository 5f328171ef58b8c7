(** Lint diagnostics: span-accurate findings emitted by the {!Rules} pass.

    Each diagnostic names the rule that produced it, the source span it
    covers, a human message and (when the rule knows one) the monomorphic /
    safe replacement to reach for. *)

type t = {
  rule : string;  (** rule id, e.g. ["float-discipline"] *)
  file : string;  (** path as given to the linter (repo-relative) *)
  line : int;  (** 1-based start line *)
  col : int;  (** 0-based start column *)
  end_line : int;
  end_col : int;
  msg : string;
  hint : string option;  (** suggested replacement, if any *)
}

val make :
  rule:string -> file:string -> loc:Ppxlib.Location.t -> ?hint:string ->
  string -> t

(** Construct from raw line/column (used by passes that do not carry a
    ppxlib location, e.g. the interprocedural analysis over [.cmt]s). *)
val make_pos :
  rule:string -> file:string -> line:int -> col:int -> ?hint:string ->
  string -> t

(** [file:line:col-endcol: [rule] msg (hint: ...)] — one line per finding. *)
val to_text : t -> string

(** JSON object with rule/file/span/msg/hint fields (stable key order). *)
val to_json : t -> Fbp_util.Json.t

(** Baseline key: [file:line:rule]. *)
val key : t -> string

(** Sort by file, then start position, then rule. *)
val compare : t -> t -> int
