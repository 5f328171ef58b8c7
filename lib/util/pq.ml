(* Binary min-heap keyed by floats, with a generic payload.

   Used by BestChoice clustering.  Stale entries are handled by the
   caller via lazy deletion (pop and discard), which keeps this structure a
   plain heap without decrease-key bookkeeping. *)

type 'a t = {
  mutable keys : float array;
  mutable data : 'a array;
  mutable size : int;
}

let create () = { keys = [||]; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let clear t = t.size <- 0

let grow t x =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let nkeys = Array.make ncap 0.0 and ndata = Array.make ncap x in
    Array.blit t.keys 0 nkeys 0 t.size;
    Array.blit t.data 0 ndata 0 t.size;
    t.keys <- nkeys;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.keys.(p) > t.keys.(i) then begin
      let k = t.keys.(i) and d = t.data.(i) in
      t.keys.(i) <- t.keys.(p); t.data.(i) <- t.data.(p);
      t.keys.(p) <- k; t.data.(p) <- d;
      sift_up t p
    end
  end

let push t key v =
  grow t v;
  t.keys.(t.size) <- key;
  t.data.(t.size) <- v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && t.keys.(l) < t.keys.(i) then l else i in
  let m = if r < t.size && t.keys.(r) < t.keys.(m) then r else m in
  if m <> i then begin
    let k = t.keys.(i) and d = t.data.(i) in
    t.keys.(i) <- t.keys.(m); t.data.(i) <- t.data.(m);
    t.keys.(m) <- k; t.data.(m) <- d;
    sift_down t m
  end

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and v = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (key, v)
  end
