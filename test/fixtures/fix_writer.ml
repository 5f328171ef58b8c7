(* The seeded transitive race the per-file rules cannot see: the closure
   handed to Pool.run_chunks is textually clean — the write to shared
   state sits two calls down, in another module.  Only the
   interprocedural pass connects launch -> middle -> work ->
   Fix_state.bump -> incr Fix_state.hits. *)

let work c =
  Fix_state.bump ();
  c

let middle c = work c

let launch () =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> ignore (middle c))
