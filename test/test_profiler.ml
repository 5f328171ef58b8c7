(* Tests for the domain-level runtime profiler: the unavailable fallback,
   trace well-formedness with gc.* tracks at 1 and 8 domains, placement
   bit-identity with the profiler on vs off, snapshot monotonicity, the
   summary JSON round-trip, pool-hook lifecycle, and the PR7 anti-scaling
   signature (parked surplus workers accruing stop-the-world time with no
   useful work).  The profiler is process-global, so every test stops it
   in a [finally]. *)

module Prof = Fbp_obs.Profiler
module Obs = Fbp_obs.Obs
module Pool = Fbp_util.Pool

let with_prof ?force_unavailable f =
  Fun.protect
    ~finally:(fun () ->
      ignore (Prof.stop ());
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Prof.start ?force_unavailable ();
      f ())

let small_instance ?(n_cells = 300) ?(seed = 5) () =
  let d = Fbp_netlist.Generator.quick ~seed ~name:"prof" n_cells in
  Fbp_movebound.Instance.unconstrained d

let place ?(domains = 1) inst =
  let config = { Fbp_core.Config.default with domains; hw_clamp = false } in
  match Fbp_core.Placer.place ~config inst with
  | Ok rep -> rep
  | Error e ->
    Alcotest.fail ("placement failed: " ^ Fbp_resilience.Fbp_error.to_string e)

(* Drive enough minor collections that at least one stop-the-world
   rendezvous lands inside the observation window, polling as we go so a
   small ring cannot overflow the interesting events away. *)
let churn_gc () =
  let sink = ref [] in
  for i = 1 to 64 do
    sink := List.init 256 (fun j -> (i * j, string_of_int j)) :: [];
    Gc.minor ();
    if i mod 8 = 0 then Prof.poll ()
  done;
  ignore (Sys.opaque_identity !sink)

(* ---------- lifecycle ---------- *)

let test_stop_when_not_running () =
  let s = Prof.stop () in
  Alcotest.(check bool) "not running" false (Prof.running ());
  Alcotest.(check int) "empty summary" 0 s.Prof.s_events;
  Alcotest.(check (float 0.0)) "no wall" 0.0 s.Prof.s_wall_us

let test_unavailable_fallback () =
  with_prof ~force_unavailable:true (fun () ->
      Alcotest.(check bool) "running" true (Prof.running ());
      let rep = place ~domains:2 (small_instance ()) in
      ignore rep;
      (* no wave of the 300-cell design is large enough to reach the pool,
         so open a region of our own inside the window *)
      Pool.run_chunks ~domains:2 ~n_chunks:4 (fun _c -> ());
      churn_gc ();
      let s = Prof.stop () in
      Alcotest.(check bool) "degraded, not failed" false s.Prof.s_available;
      Alcotest.(check int) "no runtime events" 0 s.Prof.s_events;
      Alcotest.(check bool) "pool occupancy still observed" true
        (s.Prof.s_pool_samples > 0);
      Alcotest.(check bool) "window has width" true (s.Prof.s_wall_us > 0.0))

let test_pool_hook_detached_on_stop () =
  with_prof ~force_unavailable:true (fun () ->
      let rep = place ~domains:2 (small_instance ~n_cells:200 ()) in
      ignore rep);
  (* after stop, a fresh hook install must see a clean slot: stop detached
     the profiler's hook, so ours receives events *)
  let n = Atomic.make 0 in
  Pool.set_profile_hook (fun _ev -> Atomic.incr n);
  Fun.protect ~finally:Pool.clear_profile_hook (fun () ->
      Pool.run_chunks ~domains:2 ~n_chunks:4 (fun _c -> ()));
  Alcotest.(check bool) "replacement hook observed the pool" true
    (Atomic.get n > 0)

(* ---------- trace export ---------- *)

let trace_at_domains domains =
  Obs.reset ();
  Obs.enable ();
  with_prof (fun () ->
      let rep = place ~domains (small_instance ~n_cells:250 ~seed:7 ()) in
      ignore rep;
      churn_gc ();
      let s = Prof.stop () in
      let trace = Obs.trace_json () in
      (match Obs.validate_trace trace with
      | Ok n ->
        Alcotest.(check bool)
          (Printf.sprintf "trace has events at %d domains" domains)
          true (n > 0)
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "trace invalid at %d domains: %s" domains e));
      (s, trace))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

let test_trace_one_domain () =
  let s, trace = trace_at_domains 1 in
  if s.Prof.s_available && s.Prof.s_stw_count > 0 then
    Alcotest.(check bool) "gc track injected" true (contains trace "gc.")

let test_trace_eight_domains () =
  let s, trace = trace_at_domains 8 in
  if s.Prof.s_available then begin
    Alcotest.(check bool) "stw observed with surplus domains" true
      (s.Prof.s_stw_count > 0);
    Alcotest.(check bool) "gc track injected" true (contains trace "gc.")
  end

(* ---------- observer property ---------- *)

let test_bit_identical_on_off () =
  let run () = place ~domains:2 (small_instance ~n_cells:350 ~seed:11 ()) in
  let base = run () in
  let profiled = with_prof (fun () -> run ()) in
  let px (r : Fbp_core.Placer.report) = r.Fbp_core.Placer.placement in
  let a = px base and b = px profiled in
  let bits arr = Array.map Int64.bits_of_float arr in
  Alcotest.(check bool) "x coordinates bit-identical" true
    (bits a.Fbp_netlist.Placement.x = bits b.Fbp_netlist.Placement.x);
  Alcotest.(check bool) "y coordinates bit-identical" true
    (bits a.Fbp_netlist.Placement.y = bits b.Fbp_netlist.Placement.y)

(* ---------- snapshots ---------- *)

let test_snapshot_monotone () =
  with_prof (fun () ->
      churn_gc ();
      let s1 = Prof.snapshot () in
      churn_gc ();
      let s2 = Prof.snapshot () in
      Alcotest.(check bool) "events monotone" true
        (s2.Prof.s_events >= s1.Prof.s_events);
      Alcotest.(check bool) "wall monotone" true
        (s2.Prof.s_wall_us >= s1.Prof.s_wall_us);
      Alcotest.(check bool) "stw count monotone" true
        (s2.Prof.s_stw_count >= s1.Prof.s_stw_count);
      Alcotest.(check bool) "minor time monotone" true
        (s2.Prof.s_minor_us >= s1.Prof.s_minor_us);
      let final = Prof.stop () in
      Alcotest.(check bool) "stop caps the window" true
        (final.Prof.s_wall_us >= s2.Prof.s_wall_us))

let test_occupancy_sums_to_wall () =
  with_prof (fun () ->
      let rep = place ~domains:4 (small_instance ~n_cells:300 ~seed:13 ()) in
      ignore rep;
      let s = Prof.stop () in
      List.iter
        (fun (d : Prof.domain_summary) ->
          if d.Prof.d_wid >= 0 then begin
            let sum =
              d.Prof.d_busy_us +. d.Prof.d_spin_us +. d.Prof.d_park_us
              +. d.Prof.d_stw_us
            in
            let slack = 0.05 *. d.Prof.d_wall_us in
            Alcotest.(check bool)
              (Printf.sprintf "worker %d occupancy sums to wall" d.Prof.d_wid)
              true
              (Float.abs (sum -. d.Prof.d_wall_us) <= slack +. 1.0)
          end)
        s.Prof.s_domains)

(* ---------- phases ---------- *)

let test_phases_recorded () =
  with_prof (fun () ->
      let rep = place ~domains:1 (small_instance ~n_cells:200 ()) in
      ignore rep;
      let s = Prof.stop () in
      let names = List.map (fun p -> p.Prof.ph_name) s.Prof.s_phases in
      List.iter
        (fun expected ->
          Alcotest.(check bool) ("phase " ^ expected) true
            (List.exists (String.equal expected) names))
        [ "qp"; "flow"; "realization" ];
      List.iter
        (fun (p : Prof.phase_summary) ->
          Alcotest.(check bool) (p.Prof.ph_name ^ " wall positive") true
            (p.Prof.ph_wall_us > 0.0))
        s.Prof.s_phases)

(* ---------- serialization ---------- *)

let test_json_round_trip () =
  let s =
    with_prof (fun () ->
        let rep = place ~domains:2 (small_instance ~n_cells:250 ()) in
        ignore rep;
        churn_gc ();
        Prof.stop ())
  in
  let j = Prof.summary_json s in
  let text = Obs.Json.to_string j in
  match Obs.Json.parse text with
  | Error e -> Alcotest.fail ("summary JSON does not reparse: " ^ e)
  | Ok j' -> (
    match Prof.summary_of_json j' with
    | Error e -> Alcotest.fail ("summary does not decode: " ^ e)
    | Ok s' ->
      Alcotest.(check bool) "available" s.Prof.s_available s'.Prof.s_available;
      Alcotest.(check int) "events" s.Prof.s_events s'.Prof.s_events;
      Alcotest.(check int) "stw count" s.Prof.s_stw_count s'.Prof.s_stw_count;
      Alcotest.(check (float 1e-6)) "wall" s.Prof.s_wall_us s'.Prof.s_wall_us;
      Alcotest.(check int) "domain rows" (List.length s.Prof.s_domains)
        (List.length s'.Prof.s_domains);
      Alcotest.(check int) "phase rows" (List.length s.Prof.s_phases)
        (List.length s'.Prof.s_phases);
      Alcotest.(check int) "pause rows" (List.length s.Prof.s_top_pauses)
        (List.length s'.Prof.s_top_pauses);
      List.iter2
        (fun (a : Prof.domain_summary) (b : Prof.domain_summary) ->
          Alcotest.(check int) "tid" a.Prof.d_tid b.Prof.d_tid;
          Alcotest.(check int) "wid" a.Prof.d_wid b.Prof.d_wid;
          Alcotest.(check (float 1e-6)) "stw us" a.Prof.d_stw_us b.Prof.d_stw_us;
          Alcotest.(check int) "chunks" a.Prof.d_chunks b.Prof.d_chunks)
        s.Prof.s_domains s'.Prof.s_domains;
      let r = Prof.render s' in
      Alcotest.(check bool) "render has per-domain table" true
        (contains r "stw" && contains r "main"))

(* ---------- the PR7 signature ---------- *)

let test_pr7_signature_visible () =
  (* Surplus workers on a saturated machine: spin the pool up with a
     trivial batch, then allocate on the main domain only.  Parked workers
     contribute nothing, yet every minor-GC stop-the-world rendezvous must
     drag them in — the profiler alone has to make that visible. *)
  with_prof (fun () ->
      Pool.run_chunks ~domains:4 ~n_chunks:4 (fun _c -> ());
      churn_gc ();
      churn_gc ();
      let s = Prof.stop () in
      if s.Prof.s_available then begin
        Alcotest.(check bool) "stop-the-world observed" true
          (s.Prof.s_stw_count > 0);
        let idle_victims =
          List.filter
            (fun (d : Prof.domain_summary) ->
              d.Prof.d_wid >= 0 && d.Prof.d_stw_us > 0.0
              && d.Prof.d_stw_us > d.Prof.d_busy_us)
            s.Prof.s_domains
        in
        Alcotest.(check bool)
          "an idle worker pays stop-the-world tax (PR7 signature)" true
          (idle_victims <> [])
      end)

let suite =
  [
    Alcotest.test_case "stop when not running" `Quick test_stop_when_not_running;
    Alcotest.test_case "unavailable fallback" `Quick test_unavailable_fallback;
    Alcotest.test_case "pool hook detached on stop" `Quick
      test_pool_hook_detached_on_stop;
    Alcotest.test_case "trace valid at 1 domain" `Quick test_trace_one_domain;
    Alcotest.test_case "trace valid at 8 domains" `Quick
      test_trace_eight_domains;
    Alcotest.test_case "bit-identical on/off" `Quick test_bit_identical_on_off;
    Alcotest.test_case "snapshot monotone" `Quick test_snapshot_monotone;
    Alcotest.test_case "occupancy sums to wall" `Quick
      test_occupancy_sums_to_wall;
    Alcotest.test_case "phases recorded" `Quick test_phases_recorded;
    Alcotest.test_case "summary JSON round trip" `Quick test_json_round_trip;
    Alcotest.test_case "PR7 signature visible" `Quick test_pr7_signature_visible;
  ]
