(* A local helper called inside a work closure: the closure's text names
   only [step], a function of the enclosing one, which calls [poll], which
   calls [Inject.fire], whose registry is not synchronized.  The rule must
   follow the helpers, and their callees, from the closure.  (The mended
   shape, with the fault drawn before the pool runs, is in
   fix_capture_clean.ml.) *)

let helper_chain out =
  let poll () =
    Fbp_resilience.Inject.fire Fbp_resilience.Inject.Transport <> None
  in
  let step c = if poll () then out.(c) <- 1 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> step c)
