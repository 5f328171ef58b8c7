(* BestChoice clustering (Nam et al. [17], as used by the paper's
   experimental setup: "Both tools used BestChoice for clustering with
   cluster ratio 5" for Tables II-VI, ratio 2 for ISPD).

   Score-based bottom-up clustering: each pair of connected cells (u, v)
   scores sum over shared nets of w_e / |e|, divided by the combined area;
   repeatedly merge the globally best pair until the number of cells drops
   to n / ratio.  We implement the standard lazy-update variant: a global
   heap of candidate pairs, entries revalidated on pop against the current
   cluster generation.

   Clustering produces a coarse netlist plus the maps to expand a coarse
   placement back to the original cells (each original cell at its cluster's
   position — the placer's multilevel refinement and the legalizer then
   spread them). *)

open Fbp_util

type t = {
  coarse : Netlist.t;
  cluster_of : int array;  (* original cell -> coarse cell *)
  members : int list array;  (* coarse cell -> original cells *)
}

(* Union-find with cluster area and generation counters for lazy heap
   entries. *)
let best_choice ?(ratio = 5.0) (nl : Netlist.t) =
  let n = Netlist.n_cells nl in
  let target = max 1 (int_of_float (float_of_int n /. Float.max 1.0 ratio)) in
  let uf = Union_find.create n in
  let area = Array.init n (fun c -> Netlist.size nl c) in
  let generation = Array.make n 0 in
  let alive = ref n in
  (* fixed cells never merge (macros keep their identity) *)
  let mergeable c = not nl.Netlist.fixed.(c) in
  (* adjacency with weights: for each net, each pin pair gets w/(p-1) *)
  let adj = Hashtbl.create (4 * n) in
  for ni = 0 to Netlist.n_nets nl - 1 do
    let pins = ref [] in
    for k = nl.Netlist.net_start.(ni) to nl.Netlist.net_start.(ni + 1) - 1 do
      let c = nl.Netlist.pin_cell.(k) in
      if c >= 0 && mergeable c then pins := c :: !pins
    done;
    let pins = List.sort_uniq Int.compare !pins in
    let p = List.length pins in
    if p >= 2 && p <= 10 then begin
      let w = nl.Netlist.net_weight.(ni) /. float_of_int (p - 1) in
      List.iteri
        (fun i u ->
          List.iteri
            (fun j v ->
              if i < j then begin
                let key = (min u v, max u v) in
                Hashtbl.replace adj key
                  (w +. (try Hashtbl.find adj key with Not_found -> 0.0))
              end)
            pins)
        pins
    end
  done;
  (* heap of candidate merges; keys are negated scores (min-heap) *)
  let pq : (int * int * int * int) Pq.t = Pq.create () in
  let score u v w = w /. (area.(u) +. area.(v)) in
  Hashtbl.iter
    (fun (u, v) w -> Pq.push pq (-.score u v w) (u, v, generation.(u), generation.(v)))
    adj;
  let find = Union_find.find uf in
  let continue_ = ref true in
  while !alive > target && !continue_ do
    match Pq.pop pq with
    | None -> continue_ := false
    | Some (neg_score, (u, v, gu, gv)) ->
      let ru = find u and rv = find v in
      if ru <> rv && generation.(ru) = gu && generation.(rv) = gv
         && ru = u && rv = v
      then begin
        (* commit the merge: u absorbs v *)
        ignore neg_score;
        Union_find.union uf u v;
        let r = find u in
        let other = if r = u then v else u in
        area.(r) <- area.(u) +. area.(v);
        generation.(r) <- generation.(r) + 1;
        generation.(other) <- generation.(other) + 1;
        decr alive;
        (* refresh candidate pairs incident to the merged cluster *)
        Hashtbl.iter
          (fun (a, b) w ->
            let ra = find a and rb = find b in
            if ra <> rb && (ra = r || rb = r) then
              Pq.push pq
                (-.score ra rb w)
                (min ra rb, max ra rb, generation.(min ra rb), generation.(max ra rb)))
          adj
      end
  done;
  (* build the coarse netlist *)
  let cluster_of_raw, n_coarse = Union_find.groups uf in
  let members = Array.make n_coarse [] in
  Array.iteri (fun c g -> members.(g) <- c :: members.(g)) cluster_of_raw;
  let widths = Array.make n_coarse 0.0 in
  let heights = Array.make n_coarse 0.0 in
  let fixed = Array.make n_coarse false in
  let movebound = Array.make n_coarse (-1) in
  let names = Array.make n_coarse "" in
  Array.iteri
    (fun g mems ->
      let total = List.fold_left (fun a c -> a +. Netlist.size nl c) 0.0 mems in
      let h = List.fold_left (fun a c -> Float.max a nl.Netlist.heights.(c)) 0.0 mems in
      heights.(g) <- h;
      widths.(g) <- total /. Float.max 1e-9 h;
      fixed.(g) <- List.exists (fun c -> nl.Netlist.fixed.(c)) mems;
      (* a cluster inherits a movebound only if all members agree *)
      (match mems with
       | first :: rest ->
         let mb = nl.Netlist.movebound.(first) in
         movebound.(g) <-
           (if List.for_all (fun c -> nl.Netlist.movebound.(c) = mb) rest then mb else -1);
         names.(g) <- nl.Netlist.names.(first) ^ if rest = [] then "" else "+"
       | [] -> ()))
    members;
  (* nets: pins re-target clusters; degenerate nets (all pins in one
     cluster) are dropped, the others keep their pins, offsets and weight
     in order *)
  let coarse_cell k =
    let c = nl.Netlist.pin_cell.(k) in
    if c < 0 then c else cluster_of_raw.(c)
  in
  let kept i =
    let lo = nl.Netlist.net_start.(i) and hi = nl.Netlist.net_start.(i + 1) in
    let rec differs k =
      k < hi && (coarse_cell k <> coarse_cell lo || differs (k + 1))
    in
    differs (lo + 1)
  in
  let nets =
    List.init (Netlist.n_nets nl) Fun.id |> List.filter kept |> Array.of_list
  in
  let m = Array.length nets in
  let net_start = Array.make (m + 1) 0 in
  Array.iteri
    (fun j i -> net_start.(j + 1) <- net_start.(j) + Netlist.degree nl i)
    nets;
  let pin_src = Array.make net_start.(m) 0 in
  Array.iteri
    (fun j i ->
      for d = 0 to Netlist.degree nl i - 1 do
        pin_src.(net_start.(j) + d) <- nl.Netlist.net_start.(i) + d
      done)
    nets;
  {
    coarse =
      Netlist.make ~names ~widths ~heights ~fixed ~movebound ~net_start
        ~net_weight:(Array.map (fun i -> nl.Netlist.net_weight.(i)) nets)
        ~pin_cell:(Array.map coarse_cell pin_src)
        ~pin_dx:(Array.map (fun k -> nl.Netlist.pin_dx.(k)) pin_src)
        ~pin_dy:(Array.map (fun k -> nl.Netlist.pin_dy.(k)) pin_src);
    cluster_of = cluster_of_raw;
    members;
  }

(* Coarse placement for a clustering: each cluster at the area-weighted
   centroid of its members' positions. *)
let coarse_placement (t : t) (nl : Netlist.t) (pos : Placement.t) =
  let out = Placement.create t.coarse.Netlist.n_cells in
  Array.iteri
    (fun g mems ->
      let sx = ref 0.0 and sy = ref 0.0 and m = ref 0.0 in
      List.iter
        (fun c ->
          let a = Netlist.size nl c in
          sx := !sx +. (a *. pos.Placement.x.(c));
          sy := !sy +. (a *. pos.Placement.y.(c));
          m := !m +. a)
        mems;
      if !m > 0.0 then begin
        out.Placement.x.(g) <- !sx /. !m;
        out.Placement.y.(g) <- !sy /. !m
      end)
    t.members;
  out

(* Expand a coarse placement back to the original cells: every member lands
   at its cluster's position (the fine levels / legalization spread them). *)
let expand (t : t) (coarse_pos : Placement.t) (out : Placement.t) =
  Array.iteri
    (fun c g ->
      out.Placement.x.(c) <- coarse_pos.Placement.x.(g);
      out.Placement.y.(c) <- coarse_pos.Placement.y.(g))
    t.cluster_of
