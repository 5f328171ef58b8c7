(* Wall-clock timers for the phase instrumentation reported in Tables I and
   VI (flow computation vs realization, global placement vs legalization). *)

let now () = Unix.gettimeofday ()

(* Time a thunk, returning its result and the wall time it took. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
