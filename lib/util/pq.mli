(** Binary min-heap keyed by floats with generic payloads.

    Stale entries are the caller's concern (lazy deletion): the heap offers
    no decrease-key, which is the usual trade for Dijkstra-style uses. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Remove all entries (O(1), keeps the backing storage). *)
val clear : 'a t -> unit

(** [push t key v] inserts payload [v] with priority [key]. *)
val push : 'a t -> float -> 'a -> unit

(** Remove and return the minimum-key entry. *)
val pop : 'a t -> (float * 'a) option
