(* In-place ascending sort of an int array range, specialised to ints:
   [Array.sort Int.compare] pays a closure call per comparison.  A
   middle-pivot quicksort with insertion sort below 9 elements. *)

let rec sort (a : int array) lo hi =
  if hi - lo > 8 then begin
    let pivot = a.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort a lo !j;
    sort a !i hi
  end
  else
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
