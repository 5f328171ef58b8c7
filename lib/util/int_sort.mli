(** Sorting specialised to ints. *)

(** [sort a lo hi] sorts [a.(lo) .. a.(hi)] ascending in place, with no
    closure call per comparison; ints being indistinguishable when equal,
    the result is [Array.sort Int.compare]'s.  An empty range
    ([hi < lo]) is left as it is. *)
val sort : int array -> int -> int -> unit
