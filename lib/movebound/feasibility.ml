(* Feasibility of movebounded placement (Theorems 1 and 2).

   Condition (1): for every subset M' of movebounds, the total size of cells
   bound to M' must fit in the capacity of the union of their areas.
   Theorem 1 reduces the exponentially many subset checks to one MaxFlow on
   the bipartite network cells -> regions; Theorem 2 clusters all cells of
   the same movebound into a single node, giving the
   O(|C| + |M|^2 |R|) bound.  We implement the clustered variant (the
   unclustered one would only differ in the trivially-parallel supply arcs).

   On infeasibility the MaxFlow min cut yields a witness: the movebound
   classes on the source side of the cut violate inequality (1). *)

open Fbp_flow

type verdict =
  | Feasible
  | Infeasible of {
      classes : int list;
          (* movebound ids (n_movebounds = unconstrained class) on the
             source side of the min cut: a violating M' of condition (1) *)
      demand : float;  (* total size of cells in those classes *)
      capacity : float;  (* capacity of the union of admissible regions *)
    }

(* [capacity_of] maps a region to its free capacity (area minus blockages,
   times target density); supplied by the caller so that the density model
   lives in one place (fbp_core.Density). *)
let check (inst : Instance.t) (regions : Regions.t) ~capacity_of =
  let k = Instance.n_movebounds inst in
  let nr = Regions.n_regions regions in
  let class_area = Instance.area_by_class inst in
  (* nodes: 0 = source, 1 = sink, 2..2+k = classes, then regions *)
  let source = 0 and sink = 1 in
  let class_node i = 2 + i in
  let region_node r = 2 + k + 1 + r in
  let g = Graph.create (2 + k + 1 + nr) in
  let total_demand = Array.fold_left ( +. ) 0.0 class_area in
  let infinite = total_demand +. 1.0 in
  Array.iteri
    (fun i area ->
      if area > 0.0 then
        ignore (Graph.add_edge g ~u:source ~v:(class_node i) ~cap:area ~cost:0.0))
    class_area;
  Array.iter
    (fun (r : Regions.region) ->
      let cap = capacity_of r in
      if cap > 0.0 then
        ignore (Graph.add_edge g ~u:(region_node r.Regions.id) ~v:sink ~cap ~cost:0.0);
      (* admissible classes *)
      for i = 0 to k do
        let mb = if i = k then -1 else i in
        if class_area.(i) > 0.0 && Regions.admissible r ~mb then
          ignore
            (Graph.add_edge g ~u:(class_node i) ~v:(region_node r.Regions.id)
               ~cap:infinite ~cost:0.0)
      done)
    regions.Regions.regions;
  let result = Maxflow.solve g ~source ~sink in
  if result.Maxflow.value >= total_demand -. 1e-6 then Feasible
  else begin
    (* Classes on the source side of the min cut witness the violation. *)
    let classes = ref [] in
    for i = 0 to k do
      if class_area.(i) > 0.0 && result.Maxflow.min_cut.(class_node i) then
        classes := i :: !classes
    done;
    let demand =
      List.fold_left (fun acc i -> acc +. class_area.(i)) 0.0 !classes
    in
    let capacity =
      Array.fold_left
        (fun acc (r : Regions.region) ->
          (* regions reachable from the cut classes are on the source side *)
          if result.Maxflow.min_cut.(region_node r.Regions.id) then
            acc +. capacity_of r
          else acc)
        0.0 regions.Regions.regions
    in
    Infeasible { classes = List.rev !classes; demand; capacity }
  end

(* Default capacity model when no density/blockage information is needed:
   plain region area times a uniform density target. *)
let plain_capacity ~density (r : Regions.region) =
  density *. Fbp_geometry.Rect_set.area r.Regions.area

(* End-to-end convenience used by the CLI and the examples: normalize,
   decompose, check. *)
let check_instance ?capacity_of (inst : Instance.t) =
  match Instance.normalize inst with
  | Error e -> Error e
  | Ok inst ->
    let regions =
      Regions.decompose ~chip:inst.Instance.design.Fbp_netlist.Design.chip
        inst.Instance.movebounds
    in
    let capacity_of =
      match capacity_of with
      | Some f -> f
      | None ->
        plain_capacity ~density:inst.Instance.design.Fbp_netlist.Design.target_density
    in
    Ok (check inst regions ~capacity_of, regions)
