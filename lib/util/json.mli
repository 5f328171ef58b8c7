(** JSON values: the one writer and parser behind every document the
    repository emits (trace, metrics, run record, profile, lint report,
    fuzz artifacts, bench results).  Numbers are [float]s; object member
    order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [int i] is [Num (float_of_int i)]. *)
val int : int -> t

(** Serialize, compactly.  Finite floats round-trip through {!parse}
    (integral values print as [%.0f], others as [%.17g]); [nan] and the
    infinities print as [null]. *)
val to_string : t -> string

(** Parse a complete JSON document (trailing whitespace allowed). *)
val parse : string -> (t, string) result

(** First member with this key, when the value is an object. *)
val member : string -> t -> t option
