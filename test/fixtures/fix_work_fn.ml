(* A local work function handed to the pool by name or by partial
   application: the closure's text is the function's name, and its body,
   which runs on the workers, calls on to [Inject.fire], whose registry
   is not synchronized.  The rule must follow the body's callees. *)

let poll_fault () =
  match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Cg with
  | Some _ -> 1
  | None -> 0

let named_work_fn out =
  let work c = out.(c) <- poll_fault () in
  Fbp_util.Pool.run_chunks ~n_chunks:2 work

let partial_work_fn out =
  let work k c = out.(c) <- k + poll_fault () in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (work 1)
