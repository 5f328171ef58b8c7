(* Residual flow networks.

   Arcs are stored in a flat arena; every call to [add_edge] creates a
   forward arc with the given capacity and its residual twin with capacity 0,
   paired as ids [2k] and [2k+1] so the reverse of arc [a] is [a lxor 1].
   Node adjacency is a linked list threaded through the arena ([head]/[next]),
   which makes edge insertion O(1) and iteration cache-friendly enough for
   the instance sizes FBP produces (|V|, |E| linear in the number of windows,
   not cells — see paper Table I). *)

type t = {
  n : int;
  mutable m : int;                (* number of arcs incl. residual twins *)
  mutable dst : int array;        (* arc -> head node *)
  mutable src : int array;        (* arc -> tail node *)
  mutable cap : float array;      (* residual capacity *)
  mutable cap0 : float array;     (* original capacity (0 for twins) *)
  mutable cost : float array;     (* cost per unit (negated on twins) *)
  mutable next : int array;       (* adjacency linked list *)
  head : int array;               (* node -> first arc, -1 if none *)
}

let create n =
  {
    n;
    m = 0;
    dst = [||];
    src = [||];
    cap = [||];
    cap0 = [||];
    cost = [||];
    next = [||];
    head = Array.make n (-1);
  }

let n_nodes t = t.n
let n_arcs t = t.m

(* Grow the arena to [cap] arcs, keeping the first [t.m]. *)
let resize t cap =
  let grow_i a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.m; b in
  let grow_f a = let b = Array.make cap 0.0 in Array.blit a 0 b 0 t.m; b in
  t.dst <- grow_i t.dst;
  t.src <- grow_i t.src;
  t.next <- grow_i t.next;
  t.cap <- grow_f t.cap;
  t.cap0 <- grow_f t.cap0;
  t.cost <- grow_f t.cost

(* Room for [e] edges in all (2e arcs with the twins): a builder that
   knows its edge count sizes the arena once, exactly when it starts
   empty. *)
let reserve t e =
  let capm = Array.length t.dst in
  if capm < 2 * e then resize t (max (2 * e) (2 * capm))

let ensure_capacity t =
  let capm = Array.length t.dst in
  if t.m + 2 > capm then resize t (max 16 (2 * capm))

(* Add a directed arc [u -> v]; returns the forward arc id (always even). *)
let add_edge t ~u ~v ~cap ~cost =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then invalid_arg "Graph.add_edge";
  if cap < 0.0 then invalid_arg "Graph.add_edge: negative capacity";
  ensure_capacity t;
  let a = t.m in
  t.dst.(a) <- v; t.src.(a) <- u;
  t.cap.(a) <- cap; t.cap0.(a) <- cap; t.cost.(a) <- cost;
  t.next.(a) <- t.head.(u); t.head.(u) <- a;
  let b = a + 1 in
  t.dst.(b) <- u; t.src.(b) <- v;
  t.cap.(b) <- 0.0; t.cap0.(b) <- 0.0; t.cost.(b) <- -.cost;
  t.next.(b) <- t.head.(v); t.head.(v) <- b;
  t.m <- t.m + 2;
  a

let rev a = a lxor 1

let dst t a = t.dst.(a)
let src t a = t.src.(a)
let capacity t a = t.cap.(a)
let original_capacity t a = t.cap0.(a)
let cost t a = t.cost.(a)

(* Flow currently on a forward arc (meaningless on residual twins). *)
let flow t a = t.cap0.(a) -. t.cap.(a)

(* Push [delta] units over arc [a] (consuming residual capacity and opening
   the twin). *)
let push t a delta =
  t.cap.(a) <- t.cap.(a) -. delta;
  t.cap.(rev a) <- t.cap.(rev a) +. delta

let iter_out t u f =
  let a = ref t.head.(u) in
  while !a >= 0 do
    f !a;
    a := t.next.(!a)
  done

let fold_out t u f init =
  let acc = ref init in
  iter_out t u (fun a -> acc := f !acc a);
  !acc

(* Iterate over forward arcs only. *)
let iter_edges t f =
  let a = ref 0 in
  while !a < t.m do
    f !a;
    a := !a + 2
  done

(* Reset all flow to zero. *)
let reset_flow t =
  for a = 0 to t.m - 1 do
    t.cap.(a) <- t.cap0.(a)
  done
