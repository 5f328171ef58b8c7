(* Axis-parallel rectangles, the atom of all placement geometry: cell shapes,
   movebound area pieces (Definition 1), regions (Definition 2), windows and
   blockages are all built from these. *)

type t = {
  x0 : float;
  y0 : float;
  x1 : float;
  y1 : float;
}

let eps = 1e-9

let make ~x0 ~y0 ~x1 ~y1 =
  if x1 < x0 || y1 < y0 then invalid_arg "Rect.make: negative extent";
  { x0; y0; x1; y1 }

let of_corner ~x ~y ~w ~h =
  if w < 0.0 || h < 0.0 then invalid_arg "Rect.of_corner: negative extent";
  { x0 = x; y0 = y; x1 = x +. w; y1 = y +. h }

let of_center ~cx ~cy ~w ~h =
  of_corner ~x:(cx -. (w /. 2.0)) ~y:(cy -. (h /. 2.0)) ~w ~h

let width r = r.x1 -. r.x0
let height r = r.y1 -. r.y0
let area r = width r *. height r
let is_empty r = width r <= eps || height r <= eps

let center r = Point.make ((r.x0 +. r.x1) /. 2.0) ((r.y0 +. r.y1) /. 2.0)

let contains_point r (p : Point.t) =
  p.x >= r.x0 -. eps && p.x <= r.x1 +. eps && p.y >= r.y0 -. eps && p.y <= r.y1 +. eps

(* [contains r s]: is [s] entirely inside [r] (within eps)? *)
let contains r s =
  s.x0 >= r.x0 -. eps && s.y0 >= r.y0 -. eps && s.x1 <= r.x1 +. eps && s.y1 <= r.y1 +. eps

(* Positive-area overlap (touching edges do not count). *)
let overlaps a b =
  a.x0 < b.x1 -. eps && b.x0 < a.x1 -. eps && a.y0 < b.y1 -. eps && b.y0 < a.y1 -. eps

let intersect a b =
  let x0 = Float.max a.x0 b.x0 and y0 = Float.max a.y0 b.y0 in
  let x1 = Float.min a.x1 b.x1 and y1 = Float.min a.y1 b.y1 in
  if x1 -. x0 > eps && y1 -. y0 > eps then Some { x0; y0; x1; y1 } else None

let intersection_area a b =
  match intersect a b with None -> 0.0 | Some r -> area r

let bbox a b =
  { x0 = Float.min a.x0 b.x0;
    y0 = Float.min a.y0 b.y0;
    x1 = Float.max a.x1 b.x1;
    y1 = Float.max a.y1 b.y1 }

let inflate r d = { x0 = r.x0 -. d; y0 = r.y0 -. d; x1 = r.x1 +. d; y1 = r.y1 +. d }

(* Nearest point of [r] to [p] (the projection used for L1 distances from a
   cell to a region or window). *)
let clamp_point r (p : Point.t) =
  Point.make (Float.max r.x0 (Float.min r.x1 p.x)) (Float.max r.y0 (Float.min r.y1 p.y))

let dist_l1_point r p = Point.dist_l1 p (clamp_point r p)

(* [subtract a b]: decompose [a] minus [b] into at most four disjoint
   rectangles (left, right strips full-height; bottom, top strips between). *)
let subtract a b =
  match intersect a b with
  | None -> [ a ]
  | Some i ->
    let pieces = ref [] in
    let add x0 y0 x1 y1 =
      if x1 -. x0 > eps && y1 -. y0 > eps then
        pieces := { x0; y0; x1; y1 } :: !pieces
    in
    add a.x0 a.y0 i.x0 a.y1;          (* left strip *)
    add i.x1 a.y0 a.x1 a.y1;          (* right strip *)
    add i.x0 a.y0 i.x1 i.y0;          (* bottom strip *)
    add i.x0 i.y1 i.x1 a.y1;          (* top strip *)
    !pieces

let equal ?(eps = 1e-9) a b =
  Float.abs (a.x0 -. b.x0) <= eps && Float.abs (a.y0 -. b.y0) <= eps
  && Float.abs (a.x1 -. b.x1) <= eps && Float.abs (a.y1 -. b.y1) <= eps

(* Are two rectangles 4-adjacent, i.e. do they share a boundary segment of
   positive length?  Used when merging Hanan cells into maximal regions. *)
let adjacent a b =
  let overlap lo0 hi0 lo1 hi1 = Float.min hi0 hi1 -. Float.max lo0 lo1 > eps in
  (Float.abs (a.x1 -. b.x0) <= eps || Float.abs (b.x1 -. a.x0) <= eps)
  && overlap a.y0 a.y1 b.y0 b.y1
  || (Float.abs (a.y1 -. b.y0) <= eps || Float.abs (b.y1 -. a.y0) <= eps)
     && overlap a.x0 a.x1 b.x0 b.x1

let pp fmt r = Format.fprintf fmt "[%g,%g;%g,%g]" r.x0 r.y0 r.x1 r.y1
let to_string r = Format.asprintf "%a" pp r
