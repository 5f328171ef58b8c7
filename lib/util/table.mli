(** Aligned ASCII table rendering for the benchmark harness. *)

type align = Left | Right

type t

(** [create ~title ~header ()] starts an empty table. [aligns] defaults to
    all-[Right]. Raises [Invalid_argument] on a length mismatch. *)
val create : title:string -> header:string list -> ?aligns:align list -> unit -> t

(** Append a row; must have as many cells as the header. *)
val add_row : t -> string list -> unit

(** Append a horizontal separator. *)
val add_sep : t -> unit

(** Render to a string (ends with a newline after the final rule); the
    caller decides where it goes — lib code never prints. *)
val render : t -> string

(** [fmt_pct 0.993] is ["99.3%"]. *)
val fmt_pct : float -> string

(** Compact thousands formatting: [fmt_k 2578246] is ["2578k"]. *)
val fmt_k : int -> string
