(* Compressed-sparse-row matrices, assembled from (row, col, value) triplets.

   The QP net models (clique/star) generate Laplacian-plus-diagonal systems;
   assembly accumulates duplicate triplets, then freezes into CSR for the
   matrix-vector products inside conjugate gradients.

   Most pushes are diagonal (every spring end, anchor and regularizer), so
   the builder sums the diagonal densely, one float and one "present" mark
   per row, and only off-diagonal pushes become triplets.  A row's sum
   starts at 0.0 and adds its pushes in insertion order; since
   [0.0 +. v = v], it has the bits the same pushes would get as
   accumulated triplets, and since zero pushes are dropped, a diagonal
   entry exists exactly when a nonzero push reached it.

   PR 5 rebuilt the assembly path for speed while keeping results
   bit-identical:

   - the builder stores triplets in growable unboxed [int]/[float] arrays
     (the seed used three boxed lists: ~3 allocations per triplet and a
     full unspool at freeze);
   - [freeze] dedups each row with a stamp array over column ids instead of
     a per-row [Hashtbl] (O(1) per entry), and sorts row segments with an
     in-place dual-array quicksort instead of boxing (col, val) tuples;
   - a caller that freezes repeatedly passes a [scratch], so the counting
     sort, the grouped triplets and the stamps reuse the same arrays and a
     freeze allocates only the matrix it returns;
   - across QP rounds the sparsity pattern is fixed (same nets, same
     movable set), so [freeze_capture] additionally records the symbolic
     structure — a permutation from triplet slot to CSR slot, which names
     each triplet's row and column, and each row's diagonal slot — and
     [refreeze] re-assembles the next round as a flat value sweep: verify
     the stream and the diagonal pattern match (falling back to a full
     freeze when the topology changed), zero the values, scatter-accumulate
     the triplets, write the diagonal sums.  Value accumulation order
     equals the fresh-freeze order (insertion order per duplicate group),
     so a reused and a fresh assembly are bit-identical.

   [mul] is a plain row loop on the calling domain: the solves that call
   it are what runs in parallel (DESIGN §9).  Each row's accumulation is a
   fixed sequential sum.  [mul2] serves CG's lockstep x/y solve: both
   products in one pass over the matrix, each in [mul]'s order. *)

type t = {
  n : int;                 (* square dimension *)
  row_start : int array;   (* length n+1 *)
  col : int array;
  value : float array;
}

type builder = {
  mutable dim : int;
  mutable rows : int array;   (* off-diagonal triplets, insertion order *)
  mutable cols : int array;
  mutable vals : float array;
  mutable count : int;
  mutable diag : float array;     (* per-row diagonal sum, first [dim] *)
  mutable has_diag : bool array;  (* row got a nonzero diagonal push *)
}

(* [freeze]'s temporaries; each grows on demand and is never shrunk *)
type scratch = {
  mutable row_count : int array;  (* n+1: row histogram, then row starts *)
  mutable cursor : int array;     (* n+1: scatter position per row *)
  mutable gcol : int array;       (* entries grouped by row, then the *)
  mutable gval : float array;     (*    deduplicated rows, in place *)
  mutable stamp : int array;      (* n *)
  mutable slot_of : int array;    (* n *)
}

type structure = {
  s_perm : int array;      (* triplet slot -> CSR slot; the stream's length *)
  s_diag : int array;      (* row -> CSR slot of its diagonal, -1 if none;
                              its length is the dimension *)
  s_row_start : int array; (* shared with every refrozen matrix *)
  s_col : int array;
}

let builder n =
  { dim = n; rows = Array.make 64 0; cols = Array.make 64 0;
    vals = Array.make 64 0.0; count = 0; diag = Array.make n 0.0;
    has_diag = Array.make n false }

let reset b n =
  if Array.length b.diag < n then begin
    let cap = max n (2 * Array.length b.diag) in
    b.diag <- Array.make cap 0.0;
    b.has_diag <- Array.make cap false
  end
  else begin
    Array.fill b.diag 0 n 0.0;
    Array.fill b.has_diag 0 n false
  end;
  b.dim <- n;
  b.count <- 0

(* Triplet capacity of at least [m], keeping the triplets; grows at least
   twofold, so a push-by-push growth stays amortized. *)
let reserve b m =
  let cap = Array.length b.rows in
  if cap < m then begin
    let cap' = max m (2 * cap) in
    let rows' = Array.make cap' 0 and cols' = Array.make cap' 0 in
    let vals' = Array.make cap' 0.0 in
    Array.blit b.rows 0 rows' 0 b.count;
    Array.blit b.cols 0 cols' 0 b.count;
    Array.blit b.vals 0 vals' 0 b.count;
    b.rows <- rows';
    b.cols <- cols';
    b.vals <- vals'
  end

let grow b = reserve b (Array.length b.rows + 1)

let add b ~row ~col v =
  if row < 0 || row >= b.dim || col < 0 || col >= b.dim then
    invalid_arg "Csr.add: index out of range";
  if not (Float.equal v 0.0) then begin
    if row = col then begin
      Array.unsafe_set b.diag row (Array.unsafe_get b.diag row +. v);
      Array.unsafe_set b.has_diag row true
    end
    else begin
      if b.count = Array.length b.rows then grow b;
      Array.unsafe_set b.rows b.count row;
      Array.unsafe_set b.cols b.count col;
      Array.unsafe_set b.vals b.count v;
      b.count <- b.count + 1
    end
  end

(* Symmetric convenience: adds the four entries of a spring between i and j
   with stiffness w (Laplacian stencil). *)
let add_spring b i j w =
  add b ~row:i ~col:i w;
  add b ~row:j ~col:j w;
  add b ~row:i ~col:j (-.w);
  add b ~row:j ~col:i (-.w)

(* Diagonal-only convenience (anchors / fixed-pin stiffness). *)
let add_diag b i w = add b ~row:i ~col:i w

let create_scratch () =
  { row_count = [||]; cursor = [||]; gcol = [||]; gval = [||]; stamp = [||];
    slot_of = [||] }

(* Grow [sc] to dimension [n] and [m] grouped entries; contents are not
   kept. *)
let reserve_scratch sc n m =
  let ints a k =
    if Array.length a >= k then a else Array.make (max k (2 * Array.length a)) 0
  in
  sc.row_count <- ints sc.row_count (n + 1);
  sc.cursor <- ints sc.cursor (n + 1);
  sc.gcol <- ints sc.gcol m;
  if Array.length sc.gval < m then
    sc.gval <- Array.make (max m (2 * Array.length sc.gval)) 0.0;
  sc.stamp <- ints sc.stamp n;
  sc.slot_of <- ints sc.slot_of n

(* Structural well-formedness: monotone row pointers, strictly increasing
   in-range columns per row, finite values, over the stored entries.  The
   arrays may run past them (a view of a freeze scratch), never short of
   them.  Returns the first violation. *)
let validate t =
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  let stored = ref 0 in
  if Array.length t.row_start < t.n + 1 then
    report
      (Printf.sprintf "row_start has %d entries for dimension %d"
         (Array.length t.row_start) t.n)
  else begin
    stored := t.row_start.(t.n);
    if t.row_start.(0) <> 0 then
      report (Printf.sprintf "row_start.(0) = %d, not 0" t.row_start.(0));
    if Array.length t.col < !stored || Array.length t.value < !stored then
      report
        (Printf.sprintf "row_start.(n) = %d but col holds %d and value %d entries"
           !stored (Array.length t.col) (Array.length t.value));
    for r = 0 to t.n - 1 do
      if t.row_start.(r) > t.row_start.(r + 1) then
        report
          (Printf.sprintf "row %d: row_start decreases (%d > %d)" r
             t.row_start.(r)
             t.row_start.(r + 1))
    done
  end;
  let m = min !stored (min (Array.length t.col) (Array.length t.value)) in
  for r = 0 to t.n - 1 do
    if r + 1 < Array.length t.row_start then begin
      let lo = max 0 t.row_start.(r) and hi = min m t.row_start.(r + 1) in
      for k = lo to hi - 1 do
        let c = t.col.(k) in
        if c < 0 || c >= t.n then
          report (Printf.sprintf "row %d: column %d out of range" r c)
        else if k > lo && t.col.(k - 1) >= c then
          report
            (Printf.sprintf
               "row %d: columns not strictly increasing (%d then %d)" r
               t.col.(k - 1) c);
        if not (Float.is_finite t.value.(k)) then
          report (Printf.sprintf "row %d: non-finite value at slot %d" r k)
      done
    end
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

(* In-place quicksort of cols.(lo..hi) with vals permuted alongside —
   avoids the boxed (col, val) pairs the seed sorted.  Row segments are
   usually tiny; star rows can be wide, hence quicksort over insertion
   sort. *)
let rec sort_segment (cols : int array) (vals : float array) lo hi =
  if hi - lo > 8 then begin
    let pivot = cols.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while cols.(!i) < pivot do incr i done;
      while cols.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let tc = cols.(!i) in
        cols.(!i) <- cols.(!j);
        cols.(!j) <- tc;
        let tv = vals.(!i) in
        vals.(!i) <- vals.(!j);
        vals.(!j) <- tv;
        incr i;
        decr j
      end
    done;
    sort_segment cols vals lo !j;
    sort_segment cols vals !i hi
  end
  else
    for i = lo + 1 to hi do
      let c = cols.(i) and v = vals.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cols.(!j) > c do
        cols.(!j + 1) <- cols.(!j);
        vals.(!j + 1) <- vals.(!j);
        decr j
      done;
      cols.(!j + 1) <- c;
      vals.(!j + 1) <- v
    done

(* Shared freeze core over the temporaries in [sc]. *)
let freeze_core sc b =
  let n = b.dim in
  let m = b.count in
  let diag = b.diag and has_diag = b.has_diag in
  reserve_scratch sc n (m + n);
  (* counting sort by row, each present diagonal counted in its row; the
     scatter is stable, so within a row the insertion order is preserved
     (duplicate accumulation order below is therefore the insertion order
     — the determinism contract [refreeze] relies on) *)
  let count = sc.row_count in
  Array.fill count 0 (n + 1) 0;
  for r = 0 to n - 1 do
    if Array.unsafe_get has_diag r then count.(r + 1) <- 1
  done;
  for k = 0 to m - 1 do
    let r = Array.unsafe_get b.rows k in
    count.(r + 1) <- count.(r + 1) + 1
  done;
  for i = 1 to n do
    count.(i) <- count.(i) + count.(i - 1)
  done;
  let gcol = sc.gcol and gval = sc.gval in
  let cursor = sc.cursor in
  Array.blit count 0 cursor 0 (n + 1);
  (* a row's diagonal is its first grouped entry, before its triplets *)
  for r = 0 to n - 1 do
    if Array.unsafe_get has_diag r then begin
      let at = cursor.(r) in
      Array.unsafe_set gcol at r;
      Array.unsafe_set gval at (Array.unsafe_get diag r);
      cursor.(r) <- at + 1
    end
  done;
  for k = 0 to m - 1 do
    let r = Array.unsafe_get b.rows k in
    let at = cursor.(r) in
    Array.unsafe_set gcol at (Array.unsafe_get b.cols k);
    Array.unsafe_set gval at (Array.unsafe_get b.vals k);
    cursor.(r) <- at + 1
  done;
  (* per-row dedup via stamp arrays over column ids: stamp.(c) = r marks
     column c as seen in row r, slot_of.(c) its accumulation slot.  Slots
     are compacted in place: slot !nnz never lies past the entry being
     read, and every entry before it has been consumed.  The scatter is
     done with [cursor], so it takes the row starts *)
  let row_start = cursor in
  let stamp = sc.stamp and slot_of = sc.slot_of in
  Array.fill stamp 0 n (-1);
  let nnz = ref 0 in
  for r = 0 to n - 1 do
    row_start.(r) <- !nnz;
    for idx = count.(r) to count.(r + 1) - 1 do
      let c = Array.unsafe_get gcol idx in
      if Array.unsafe_get stamp c = r then begin
        let slot = Array.unsafe_get slot_of c in
        Array.unsafe_set gval slot
          (Array.unsafe_get gval slot +. Array.unsafe_get gval idx)
      end
      else begin
        Array.unsafe_set stamp c r;
        Array.unsafe_set slot_of c !nnz;
        Array.unsafe_set gcol !nnz c;
        Array.unsafe_set gval !nnz (Array.unsafe_get gval idx);
        incr nnz
      end
    done
  done;
  row_start.(n) <- !nnz;
  (* sort columns within each row: deterministic layout independent of
     triplet insertion order, and strictly-increasing columns become a
     checkable invariant (see [validate]) *)
  for r = 0 to n - 1 do
    let lo = row_start.(r) and hi = row_start.(r + 1) in
    if hi - lo > 1 then sort_segment gcol gval lo (hi - 1)
  done;
  { n; row_start; col = gcol; value = gval }

(* The matrix in [sc]'s arrays, copied to exact lengths. *)
let copy_out t =
  let nnz = t.row_start.(t.n) in
  {
    n = t.n;
    row_start = Array.sub t.row_start 0 (t.n + 1);
    col = Array.sub t.col 0 nnz;
    value = Array.sub t.value 0 nnz;
  }

let check_frozen ~site t =
  Fbp_resilience.Sanitize.check ~site ~invariant:"CSR well-formedness"
    (fun () -> validate t)

let freeze ?scratch b =
  let t =
    match scratch with
    | Some sc -> freeze_core sc b
    | None -> copy_out (freeze_core (create_scratch ()) b)
  in
  check_frozen ~site:"csr.freeze" t;
  t

(* Binary search for [c] in the sorted row segment [lo, hi). *)
let find_slot (col : int array) lo hi c =
  let lo = ref lo and hi = ref (hi - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cm = Array.unsafe_get col mid in
    if cm = c then found := mid
    else if cm < c then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let freeze_capture ?(scratch = create_scratch ()) b =
  let t = copy_out (freeze_core scratch b) in
  check_frozen ~site:"csr.freeze" t;
  let m = b.count and n = b.dim in
  let slot_in r c =
    let slot = find_slot t.col t.row_start.(r) t.row_start.(r + 1) c in
    (* every entry was folded into exactly one slot of its row *)
    assert (slot >= 0);
    slot
  in
  let perm = Array.make m 0 in
  for k = 0 to m - 1 do
    perm.(k) <- slot_in (Array.unsafe_get b.rows k) (Array.unsafe_get b.cols k)
  done;
  let s_diag = Array.make n (-1) in
  for r = 0 to n - 1 do
    if b.has_diag.(r) then s_diag.(r) <- slot_in r r
  done;
  let s =
    {
      s_perm = perm;
      s_diag;
      s_row_start = t.row_start;
      s_col = t.col;
    }
  in
  (t, s)

(* Same off-diagonal stream and same diagonal pattern.  Triplet k's
   captured slot holds its column and lies in its row's segment, and no
   other (row, col) pair maps to that slot, so checking both against the
   incoming triplet is checking the stream itself. *)
let structure_matches s b =
  let n = b.dim and m = b.count in
  n = Array.length s.s_diag && m = Array.length s.s_perm
  && begin
    let ok = ref true in
    let k = ref 0 in
    let row_start = s.s_row_start in
    while !ok && !k < m do
      let slot = Array.unsafe_get s.s_perm !k in
      let r = Array.unsafe_get b.rows !k in
      if
        Array.unsafe_get b.cols !k <> Array.unsafe_get s.s_col slot
        || slot < row_start.(r) || slot >= row_start.(r + 1)
      then ok := false;
      incr k
    done;
    let r = ref 0 in
    while !ok && !r < n do
      if
        not
          (Bool.equal (Array.unsafe_get b.has_diag !r)
             (Array.unsafe_get s.s_diag !r >= 0))
      then ok := false;
      incr r
    done;
    !ok
  end

let refreeze s b =
  if not (structure_matches s b) then None
  else begin
    let nnz = Array.length s.s_col in
    let value = Array.make nnz 0.0 in
    let perm = s.s_perm in
    for k = 0 to b.count - 1 do
      let slot = Array.unsafe_get perm k in
      Array.unsafe_set value slot
        (Array.unsafe_get value slot +. Array.unsafe_get b.vals k)
    done;
    let s_diag = s.s_diag in
    for r = 0 to b.dim - 1 do
      let slot = Array.unsafe_get s_diag r in
      if slot >= 0 then Array.unsafe_set value slot (Array.unsafe_get b.diag r)
    done;
    let t = { n = b.dim; row_start = s.s_row_start; col = s.s_col; value } in
    check_frozen ~site:"csr.refreeze" t;
    Some t
  end

let dim t = t.n
let nnz t = t.row_start.(t.n)

(* Vectors may be longer than [t.n] (CG's grow-only workspace); only the
   first [t.n] entries are read or written. *)
let check_dim name t (v : float array) =
  if Array.length v < t.n then invalid_arg ("Csr." ^ name ^ ": dimension mismatch")

(* out <- A x *)
let mul t x out =
  check_dim "mul" t x;
  check_dim "mul" t out;
  let row_start = t.row_start and col = t.col and value = t.value in
  for r = 0 to t.n - 1 do
    let acc = ref 0.0 in
    for k = Array.unsafe_get row_start r to Array.unsafe_get row_start (r + 1) - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get value k
            *. Array.unsafe_get x (Array.unsafe_get col k))
    done;
    Array.unsafe_set out r !acc
  done

(* ox <- A x and oy <- A y in one pass over the matrix.  Each row's two
   sums run in [mul]'s order, so each product equals [mul]'s bit for bit. *)
let mul2 t x y ox oy =
  check_dim "mul2" t x;
  check_dim "mul2" t y;
  check_dim "mul2" t ox;
  check_dim "mul2" t oy;
  let row_start = t.row_start and col = t.col and value = t.value in
  for r = 0 to t.n - 1 do
    let accx = ref 0.0 and accy = ref 0.0 in
    for k = Array.unsafe_get row_start r to Array.unsafe_get row_start (r + 1) - 1 do
      let v = Array.unsafe_get value k and c = Array.unsafe_get col k in
      accx := !accx +. (v *. Array.unsafe_get x c);
      accy := !accy +. (v *. Array.unsafe_get y c)
    done;
    Array.unsafe_set ox r !accx;
    Array.unsafe_set oy r !accy
  done

let diagonal t d =
  check_dim "diagonal" t d;
  for r = 0 to t.n - 1 do
    d.(r) <- 0.0;
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      if t.col.(k) = r then d.(r) <- d.(r) +. t.value.(k)
    done
  done

let get t r c =
  let acc = ref 0.0 in
  for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
    if t.col.(k) = c then acc := !acc +. t.value.(k)
  done;
  !acc

let iter_entries t f =
  for r = 0 to t.n - 1 do
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      f r t.col.(k) t.value.(k)
    done
  done

let is_symmetric ?(eps = 1e-9) t =
  let ok = ref true in
  for r = 0 to t.n - 1 do
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      let c = t.col.(k) in
      if Float.abs (t.value.(k) -. get t c r) > eps then ok := false
    done
  done;
  !ok
