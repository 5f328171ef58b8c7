(* Window grids (the Gamma of Section III) and region-in-window pieces.

   A level's grid partitions the chip into nx * ny rectangular windows.  The
   FBP flow model needs, per window, the pieces of the global maximal regions
   intersecting it: those pieces are the region nodes (and their count is the
   |R| column of Table I). *)

open Fbp_geometry

type window = {
  index : int;
  wx : int;
  wy : int;
  rect : Rect.t;
}

type piece = {
  id : int;  (* dense over all pieces of the level *)
  window : int;  (* owning window index *)
  region : int;  (* global region id (signature lookup) *)
  area : Rect_set.t;
  capacity : float;
  centroid : Point.t;  (* of the free area: embedding of the region node *)
}

type t = {
  chip : Rect.t;
  nx : int;
  ny : int;
  windows : window array;
  pieces : piece array;
  piece_start : int array;
      (* pieces are numbered window by window: window w's are the ids
         [piece_start.(w), piece_start.(w + 1)) *)
  geom : float array array;  (* per piece, [flat_area] of its area *)
}

let n_windows t = Array.length t.windows
let n_pieces t = Array.length t.pieces

let window_index t ~wx ~wy = (wy * t.nx) + wx

let window_at t (p : Point.t) =
  let fx = (p.Point.x -. t.chip.Rect.x0) /. Rect.width t.chip in
  let fy = (p.Point.y -. t.chip.Rect.y0) /. Rect.height t.chip in
  let wx = max 0 (min (t.nx - 1) (int_of_float (fx *. float_of_int t.nx))) in
  let wy = max 0 (min (t.ny - 1) (int_of_float (fy *. float_of_int t.ny))) in
  window_index t ~wx ~wy

(* 4-neighbour window indices with their direction (0=N,1=E,2=S,3=W). *)
let neighbors t w =
  let win = t.windows.(w) in
  let out = ref [] in
  if win.wy < t.ny - 1 then out := (0, window_index t ~wx:win.wx ~wy:(win.wy + 1)) :: !out;
  if win.wx < t.nx - 1 then out := (1, window_index t ~wx:(win.wx + 1) ~wy:win.wy) :: !out;
  if win.wy > 0 then out := (2, window_index t ~wx:win.wx ~wy:(win.wy - 1)) :: !out;
  if win.wx > 0 then out := (3, window_index t ~wx:(win.wx - 1) ~wy:win.wy) :: !out;
  !out

(* Midpoint of a window boundary for a direction — the embedding of transit
   nodes (Section IV-A). *)
let boundary_point t w dir =
  let r = t.windows.(w).rect in
  match dir with
  | 0 -> Point.make ((r.Rect.x0 +. r.Rect.x1) /. 2.0) r.Rect.y1  (* N *)
  | 1 -> Point.make r.Rect.x1 ((r.Rect.y0 +. r.Rect.y1) /. 2.0)  (* E *)
  | 2 -> Point.make ((r.Rect.x0 +. r.Rect.x1) /. 2.0) r.Rect.y0  (* S *)
  | 3 -> Point.make r.Rect.x0 ((r.Rect.y0 +. r.Rect.y1) /. 2.0)  (* W *)
  | _ -> invalid_arg "Grid.boundary_point: direction must be 0..3"

(* The per-cell geometry of realization and repartition reads piece
   areas as flat floats: no [Point] per cell, and no float crosses a call
   (under [-opaque] every float argument or result of a call that is not
   inlined is boxed), so a point is (array, index) and a result is
   written into an array. *)

(* A piece area as floats: its bounding box ([Rect_set.bbox]), then x0 y0
   x1 y1 of each rectangle in [Rect_set.rects] order.  Empty for an empty
   area. *)
let flat_area (area : Rect_set.t) =
  match Rect_set.rects area with
  | [] -> [||]
  | rects ->
    let bb = Rect_set.bbox area in
    let g = Array.make (4 * (1 + List.length rects)) 0.0 in
    List.iteri
      (fun t (r : Rect.t) ->
        let o = 4 * (t + 1) in
        g.(o) <- r.Rect.x0;
        g.(o + 1) <- r.Rect.y0;
        g.(o + 2) <- r.Rect.x1;
        g.(o + 3) <- r.Rect.y1)
      rects;
    g.(0) <- bb.Rect.x0;
    g.(1) <- bb.Rect.y0;
    g.(2) <- bb.Rect.x1;
    g.(3) <- bb.Rect.y1;
    g

(* [Rect_set.dist_l1_point] on a flat area, for point [i] of [xs]/[ys],
   written into [out.(o)]: the clamp of [Rect.clamp_point] and the fold
   of [Rect_set] from [infinity], in the same order. *)
let dist_l1 (g : float array) (xs : float array) (ys : float array) i
    (out : float array) o =
  let px = xs.(i) and py = ys.(i) in
  let d = ref infinity in
  for t = 1 to (Array.length g / 4) - 1 do
    let b = 4 * t in
    let cx = Float.max g.(b) (Float.min g.(b + 2) px)
    and cy = Float.max g.(b + 1) (Float.min g.(b + 3) py) in
    d := Float.min !d (Float.abs (px -. cx) +. Float.abs (py -. cy))
  done;
  out.(o) <- !d

(* [Rect_set.project_point] on a flat area, for point [i] of [xs]/[ys],
   written back in place: the nearest clamp in L2, the first rectangle
   winning ties. *)
let project_into (g : float array) (xs : float array) (ys : float array) i =
  if Array.length g = 0 then invalid_arg "Rect_set.project_point: empty set";
  let px = xs.(i) and py = ys.(i) in
  let bx = ref 0.0 and by = ref 0.0 and bd = ref infinity in
  for t = 1 to (Array.length g / 4) - 1 do
    let o = 4 * t in
    let cx = Float.max g.(o) (Float.min g.(o + 2) px)
    and cy = Float.max g.(o + 1) (Float.min g.(o + 3) py) in
    let dx = px -. cx and dy = py -. cy in
    let d = sqrt ((dx *. dx) +. (dy *. dy)) in
    if t = 1 || d < !bd then begin
      bx := cx;
      by := cy;
      bd := d
    end
  done;
  xs.(i) <- !bx;
  ys.(i) <- !by

let opposite_dir = function 0 -> 2 | 1 -> 3 | 2 -> 0 | 3 -> 1 | _ -> invalid_arg "Grid.opposite_dir: direction must be 0..3"

(* [usable] optionally maps a global region id to its row-usable area; when
   given, piece capacities are measured against it (see Density), so the
   flow model never prescribes more than legalization can realize. *)
(* [capacity_slack] is subtracted from every piece's capacity (clamped at
   0): integral rounding can overfill each piece by up to one cell, so half
   a typical cell of headroom per piece keeps legalization feasible. *)
let create ?(usable : Rect_set.t array option) ?(capacity_factor = 1.0)
    ?(capacity_slack = 0.0) ~(chip : Rect.t) ~nx ~ny
    ~(regions : Fbp_movebound.Regions.t) ~(density : Density.t) () =
  if nx < 1 || ny < 1 then invalid_arg "Grid.create: need at least one window";
  let wwidth = Rect.width chip /. float_of_int nx in
  let wheight = Rect.height chip /. float_of_int ny in
  let windows =
    Array.init (nx * ny) (fun index ->
        let wx = index mod nx and wy = index / nx in
        let rect =
          Rect.make
            ~x0:(chip.Rect.x0 +. (float_of_int wx *. wwidth))
            ~y0:(chip.Rect.y0 +. (float_of_int wy *. wheight))
            ~x1:(chip.Rect.x0 +. (float_of_int (wx + 1) *. wwidth))
            ~y1:(chip.Rect.y0 +. (float_of_int (wy + 1) *. wheight))
        in
        { index; wx; wy; rect })
  in
  let pieces = ref [] in
  let piece_start = Array.make ((nx * ny) + 1) 0 in
  let next = ref 0 in
  Array.iter
    (fun win ->
      piece_start.(win.index) <- !next;
      Array.iter
        (fun (r : Fbp_movebound.Regions.region) ->
          let inter = Rect_set.intersect_rect r.Fbp_movebound.Regions.area win.rect in
          if Rect_set.area inter > 1e-9 then begin
            let raw =
              match usable with
              | None -> Density.capacity_set density inter
              | Some u ->
                density.Density.density
                *. Rect_set.area
                     (Rect_set.intersect_rect u.(r.Fbp_movebound.Regions.id) win.rect)
            in
            let capacity = Float.max 0.0 ((capacity_factor *. raw) -. capacity_slack) in
            let centroid = Density.free_centroid density inter in
            let piece =
              { id = !next; window = win.index; region = r.Fbp_movebound.Regions.id;
                area = inter; capacity; centroid }
            in
            incr next;
            pieces := piece :: !pieces
          end)
        regions.Fbp_movebound.Regions.regions)
    windows;
  piece_start.(nx * ny) <- !next;
  let pieces = Array.of_list (List.rev !pieces) in
  let geom = Array.map (fun p -> flat_area p.area) pieces in
  { chip; nx; ny; windows; pieces; piece_start; geom }
