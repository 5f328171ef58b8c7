(* Every capture kind the domain-safety rule flags, under each Pool entry
   point: run_chunks, the second closure of fork2 and set_profile_hook.
   Each function hands the pool a closure that touches mutable state the
   closure did not allocate, and that state has a name of its own, so
   the tests find each finding by the name it reports.  State let-bound
   in the enclosing function is reported as captured; module-level
   state ([g_*]) as shared. *)

type counter = { mutable count : int }

(* ---------------------------------------- captured from the enclosing fn *)

let rc_ref_read out =
  let rc_ref_read = ref 1 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> out.(c) <- !rc_ref_read)

let rc_ref_write () =
  let rc_ref_write = ref 0 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> rc_ref_write := c)

let rc_incr () =
  let rc_incr = ref 0 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun _ -> incr rc_incr)

let rc_decr () =
  let rc_decr = ref 0 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun _ -> decr rc_decr)

let rc_tbl_add () =
  let rc_tbl_add = Hashtbl.create 8 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> Hashtbl.replace rc_tbl_add c c)

let rc_tbl_find out =
  let rc_tbl_find : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c ->
      out.(c) <- Option.value ~default:0 (Hashtbl.find_opt rc_tbl_find c))

let rc_field () =
  let rc_field = { count = 0 } in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> rc_field.count <- c)

let rc_named () =
  let rc_named = ref 0 in
  let work c = rc_named := c in
  Fbp_util.Pool.run_chunks ~n_chunks:2 work

let rc_partial () =
  let rc_partial = ref 0 in
  let work k c = rc_partial := k + c in
  Fbp_util.Pool.run_chunks ~n_chunks:2 (work 1)

let f2_ref_read () =
  let f2_ref_read = ref 1 in
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> !f2_ref_read)

let f2_ref_write () =
  let f2_ref_write = ref 0 in
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> f2_ref_write := 1)

let f2_incr () =
  let f2_incr = ref 0 in
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> incr f2_incr)

let f2_tbl_add () =
  let f2_tbl_add = Hashtbl.create 8 in
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> Hashtbl.replace f2_tbl_add 1 1)

let f2_tbl_find () =
  let f2_tbl_find : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> Hashtbl.find_opt f2_tbl_find 1)

let f2_field () =
  let f2_field = { count = 0 } in
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> f2_field.count <- 1)

let f2_named () =
  let f2_named = ref 0 in
  let work () = f2_named := 1 in
  Fbp_util.Pool.fork2 (fun () -> 0) work

let f2_partial () =
  let f2_partial = ref 0 in
  let work k () = f2_partial := k in
  Fbp_util.Pool.fork2 (fun () -> 0) (work 1)

let hk_ref_read () =
  let hk_ref_read = ref 1 in
  Fbp_util.Pool.set_profile_hook (fun _ -> ignore !hk_ref_read)

let hk_ref_write () =
  let hk_ref_write = ref 0 in
  Fbp_util.Pool.set_profile_hook (fun _ -> hk_ref_write := 1)

let hk_incr () =
  let hk_incr = ref 0 in
  Fbp_util.Pool.set_profile_hook (fun _ -> incr hk_incr)

let hk_tbl_add () =
  let hk_tbl_add = Hashtbl.create 8 in
  Fbp_util.Pool.set_profile_hook (fun ev -> Hashtbl.replace hk_tbl_add ev ())

let hk_tbl_find () =
  let hk_tbl_find = Hashtbl.create 8 in
  Fbp_util.Pool.set_profile_hook (fun ev ->
      if Hashtbl.mem hk_tbl_find ev then ())

let hk_field () =
  let hk_field = { count = 0 } in
  Fbp_util.Pool.set_profile_hook (fun _ -> hk_field.count <- 1)

let hk_named () =
  let hk_named = ref 0 in
  let on_event _ = incr hk_named in
  Fbp_util.Pool.set_profile_hook on_event

let hk_partial () =
  let hk_partial = ref 0 in
  let on_event k _ = hk_partial := k in
  Fbp_util.Pool.set_profile_hook (on_event 1)

(* ------------------------------------------------- module-level state *)

let g_ref_read = ref 1
let g_ref_write = ref 0
let g_incr = ref 0
let g_tbl_add : (int, int) Hashtbl.t = Hashtbl.create 8
let g_tbl_find : (int, int) Hashtbl.t = Hashtbl.create 8
let g_field = { count = 0 }
let g_f2_incr = ref 0
let g_hk_incr = ref 0
let g_named = ref 0
let g_partial = ref 0

let shared_ref_read out =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> out.(c) <- !g_ref_read)

let shared_ref_write () =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> g_ref_write := c)

let shared_incr () = Fbp_util.Pool.run_chunks ~n_chunks:2 (fun _ -> incr g_incr)

let shared_tbl_add () =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> Hashtbl.replace g_tbl_add c c)

let shared_tbl_find () =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c ->
      ignore (Hashtbl.find_opt g_tbl_find c))

let shared_field () =
  Fbp_util.Pool.run_chunks ~n_chunks:2 (fun c -> g_field.count <- c)

let shared_fork2 () =
  Fbp_util.Pool.fork2 (fun () -> 0) (fun () -> incr g_f2_incr; 1)

let shared_hook () = Fbp_util.Pool.set_profile_hook (fun _ -> incr g_hk_incr)

let named_work c = g_named := c

let shared_named () = Fbp_util.Pool.run_chunks ~n_chunks:2 named_work

let partial_work k c = g_partial := k + c

let shared_partial () = Fbp_util.Pool.run_chunks ~n_chunks:2 (partial_work 1)
