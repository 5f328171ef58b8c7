(* Sanitizer switch and check runner.  Atomics, not refs: the realization
   runs worker domains, and a test may flip the switch around a parallel
   region. *)

let enabled_flag = Atomic.make false

let counter = Atomic.make 0

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let checks_run () = Atomic.get counter

let check ~site ~invariant f =
  if Atomic.get enabled_flag then begin
    Atomic.incr counter;
    match f () with
    | Ok () -> ()
    | Error detail ->
      Fbp_error.raise_error
        (Fbp_error.Sanitizer_violation { site; invariant; detail })
  end
