(* Placement legality audits: row alignment, overlap-freeness, chip and
   blockage containment.  Together with Fbp_movebound.Legality this decides
   whether a final placement counts as "legal" in the tables. *)

open Fbp_geometry
open Fbp_netlist

type report = {
  n_overlaps : int;
  n_off_row : int;
  n_outside_chip : int;
  n_on_blockage : int;
  legal : bool;
}

let audit (design : Design.t) (pos : Placement.t) =
  let nl = design.Design.netlist in
  let chip = design.Design.chip in
  let rh = design.Design.row_height in
  let movable = ref [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then movable := c :: !movable
  done;
  let movable = Array.of_list !movable in
  let k = Array.length movable in
  (* each movable cell's rectangle, once: its row, left and right edge *)
  let row = Array.make k 0 and x0 = Array.make k 0.0 and x1 = Array.make k 0.0 in
  let n_off_row = ref 0 and n_outside = ref 0 and n_blocked = ref 0 in
  Array.iteri
    (fun i c ->
      let r = Placement.cell_rect nl pos c in
      if not (Rect.contains chip r) then incr n_outside;
      (* row alignment: bottom edge on a row boundary *)
      let rel = (r.Rect.y0 -. chip.Rect.y0) /. rh in
      if Float.abs (rel -. Float.round rel) > 1e-6 then incr n_off_row;
      if List.exists (fun b -> Rect.overlaps b r) design.Design.blockages then
        incr n_blocked;
      row.(i) <- int_of_float (Float.round rel);
      x0.(i) <- r.Rect.x0;
      x1.(i) <- r.Rect.x1)
    movable;
  (* overlaps: per row, sweep by left edge, tracking the furthest right
     edge seen: catches overlaps even across non-adjacent cells of
     different widths.  Cells of one row and one left edge keep descending
     id order (the sort is stable), which decides the count when a
     zero-width cell ties with a wider one. *)
  let order = Array.init k (fun j -> k - 1 - j) in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare row.(a) row.(b) in
      if c <> 0 then c else Float.compare x0.(a) x0.(b))
    order;
  let n_overlaps = ref 0 and reach = ref neg_infinity in
  for j = 0 to k - 1 do
    let i = order.(j) in
    if j > 0 && row.(i) <> row.(order.(j - 1)) then reach := neg_infinity;
    if x0.(i) < !reach -. 1e-9 then incr n_overlaps;
    if x1.(i) > !reach then reach := x1.(i)
  done;
  {
    n_overlaps = !n_overlaps;
    n_off_row = !n_off_row;
    n_outside_chip = !n_outside;
    n_on_blockage = !n_blocked;
    legal = !n_overlaps = 0 && !n_off_row = 0 && !n_outside = 0 && !n_blocked = 0;
  }
