(* Points in the plane.  All geometry in the placer is in abstract layout
   units (one standard-cell row height = 1.0 by convention of the netlist
   generator). *)

type t = { x : float; y : float }

let make x y = { x; y }

let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale s a = { x = s *. a.x; y = s *. a.y }

(* L1 (Manhattan) distance: the cost metric of the paper's flow model. *)
let dist_l1 a b = Float.abs (a.x -. b.x) +. Float.abs (a.y -. b.y)

let dist_l2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let equal ?(eps = 1e-9) a b =
  Float.abs (a.x -. b.x) <= eps && Float.abs (a.y -. b.y) <= eps

let pp fmt p = Format.fprintf fmt "(%g, %g)" p.x p.y
let to_string p = Format.asprintf "%a" pp p
