(* Region decomposition (Definition 2 + Lemma 1).

   A region is a rectangle set that, for every movebound, is either entirely
   inside or entirely outside its area.  We build the Hanan grid of all
   movebound rectangles (O(l^2) cells, Lemma 1), stamp every Hanan cell with
   its *coverage signature* — which exclusive movebound owns it (at most one
   after Instance.normalize) and which inclusive movebounds contain it — and
   merge 4-adjacent cells of equal signature with union-find.  The merged
   groups are the maximal regions of Figure 1. *)

open Fbp_geometry
open Fbp_util

type signature = {
  exclusive_owner : int;  (* movebound id, -1 = none *)
  inclusive : int list;  (* sorted ids of inclusive movebounds covering *)
}

let default_signature = { exclusive_owner = -1; inclusive = [] }

let signature_equal a b =
  a.exclusive_owner = b.exclusive_owner && a.inclusive = b.inclusive

type region = {
  id : int;
  area : Rect_set.t;
  signature : signature;
}

type t = {
  regions : region array;
  hanan : Hanan.t;
  region_of_cell : int array;  (* hanan cell -> region id *)
}

let n_regions t = Array.length t.regions

(* [List.exists (Int.equal x)] without the closure that partial
   application allocates on every call: every flow model asks
   [admissible] once or more per (class, piece) pair. *)
let rec mem_int (x : int) = function [] -> false | y :: l -> x = y || mem_int x l

(* May a cell of movebound [mb] ([-1] = unconstrained) be placed in [r]? *)
let admissible r ~mb =
  if r.signature.exclusive_owner >= 0 then mb = r.signature.exclusive_owner
  else if mb < 0 then true
  else mem_int mb r.signature.inclusive

(* Which movebound ids "cover" region [r] in the sense of Definition 2
   (area of r contained in A(M))? *)
let covering_movebounds r =
  if r.signature.exclusive_owner >= 0 then [ r.signature.exclusive_owner ]
  else r.signature.inclusive

let decompose ~(chip : Rect.t) (movebounds : Movebound.t array) =
  let all_rects =
    Array.to_list movebounds
    |> List.concat_map (fun (m : Movebound.t) -> Rect_set.rects m.Movebound.area)
  in
  let hanan = Hanan.create ~chip all_rects in
  let n = Hanan.n_cells hanan in
  (* Signature per Hanan cell.  A Hanan cell is entirely inside or outside
     every movebound rectangle, so coverage = positive-area overlap. *)
  let signatures =
    Array.init n (fun idx ->
        let ix, iy = Hanan.cell_coords hanan idx in
        let cell = Hanan.cell_rect hanan ~ix ~iy in
        let excl = ref (-1) and incl = ref [] in
        Array.iter
          (fun (m : Movebound.t) ->
            if Rect_set.overlaps_rect m.Movebound.area cell then
              if Movebound.is_exclusive m then begin
                (* after normalization at most one exclusive owner *)
                if !excl < 0 then excl := m.Movebound.id
              end
              else incl := m.Movebound.id :: !incl)
          movebounds;
        if !excl >= 0 then { exclusive_owner = !excl; inclusive = [] }
        else { exclusive_owner = -1; inclusive = List.sort Int.compare !incl })
  in
  (* Merge adjacent equal-signature cells. *)
  let uf = Union_find.create n in
  Hanan.iter_cells hanan (fun ~ix ~iy _ ->
      let idx = Hanan.cell_index hanan ~ix ~iy in
      List.iter
        (fun nb ->
          if signature_equal signatures.(idx) signatures.(nb) then
            Union_find.union uf idx nb)
        (Hanan.neighbors hanan ~ix ~iy));
  let region_of_cell, n_groups = Union_find.groups uf in
  let rects_per_group = Array.make n_groups [] in
  let sig_per_group = Array.make n_groups default_signature in
  Hanan.iter_cells hanan (fun ~ix ~iy rect ->
      let idx = Hanan.cell_index hanan ~ix ~iy in
      let g = region_of_cell.(idx) in
      rects_per_group.(g) <- rect :: rects_per_group.(g);
      sig_per_group.(g) <- signatures.(idx));
  let regions =
    Array.init n_groups (fun g ->
        { id = g; area = Rect_set.of_disjoint rects_per_group.(g); signature = sig_per_group.(g) })
  in
  { regions; hanan; region_of_cell }

(* Region containing a point (signature lookup for placements). *)
let region_at t (p : Point.t) =
  let ix, iy = Hanan.cell_at t.hanan p.Point.x p.Point.y in
  let idx = Hanan.cell_index t.hanan ~ix ~iy in
  t.regions.(t.region_of_cell.(idx))
