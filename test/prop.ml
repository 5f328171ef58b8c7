(* The one runner for the suite's QCheck properties.  Each property draws
   from its own generator state, seeded with the same fixed [seed], so
   every run checks the same cases and a failure replays as it was
   reported.  (Left to itself, QCheck_alcotest draws a fresh seed per
   process unless QCHECK_SEED is set; that is ignored here.) *)

let seed = 42

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
