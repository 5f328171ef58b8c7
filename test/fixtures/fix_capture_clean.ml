(* Pool closures the domain-safety rule must leave alone: a closure that
   only reads its inputs and stores into its own chunk's slot, one that
   mutates state it allocated itself, a pure fork2, and a profile hook
   that forwards to a named handler. *)

let pure_closure xs out =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> out.(c) <- xs.(c) + 1)

let own_local xs out =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c ->
      let acc = ref 0 in
      acc := xs.(c);
      out.(c) <- !acc)

let pure_fork2 () = Fbp_util.Pool.fork2 (fun () -> 1) (fun () -> 2)

let handle scale (_ : Fbp_util.Pool.profile_event) = ignore (scale * 2)

let arm scale = Fbp_util.Pool.set_profile_hook (fun ev -> handle scale ev)
