(* Flow-based legalization, after Brenner–Vygen [6] ("Legalizing a placement
   with minimum total movement") — the legalizer the paper actually calls.

   The full algorithm partitions the chip into zones and solves a min-cost
   flow that moves cell *area* between overfull and underfull zones with
   minimum total movement, then realizes the flow within rows.  This module
   implements the same structure at our scale:

   1. per region (Section III again: regions make overlapping movebounds
      independent), a Hitchcock transportation between the region's cells
      and its row segments, capacities = segment widths, cost = L1 distance
      from the cell to the segment interval — the zone flow;
   2. per segment, the assigned cells are packed in x-order at minimum
      displacement (a single-row optimal packing under ordering).

   Compared with the default Tetris/interval legalizer this produces lower
   total movement on dense regions at higher cost (the transportation runs
   over all cells x segments of a region); the harness exposes both so the
   trade-off is measurable. *)

open Fbp_netlist

type stats = {
  n_legalized : int;
  n_failed : int;
  avg_displacement : float;
  max_displacement : float;
  time : float;
}

(* Pack [cells] (already assigned to this segment) in x-order with minimum
   total |x - desired| subject to non-overlap and the segment bounds: a
   classic single-row problem; the greedy-with-collapse (Abacus cluster)
   solution is optimal for the L1 objective with unit weights. *)
let pack_segment (nl : Netlist.t) (pos : Placement.t) (seg : Rows.segment) cells =
  (* order by desired x *)
  let order =
    List.sort (fun a b -> Float.compare pos.Placement.x.(a) pos.Placement.x.(b)) cells
  in
  (* clusters: (total width, desired positions sum offsets) collapsed left
     to right; each cluster's optimal start is the median-like balance
     point, here approximated by the mean of (desired_x0 - offset) clamped
     to the segment *)
  let rec place_clusters placed = function
    | [] -> List.rev placed
    | c :: rest ->
      let w = nl.Netlist.widths.(c) in
      let desired = pos.Placement.x.(c) -. (w /. 2.0) in
      (* cluster = (start, width, members, sum_desired_minus_offset, count) *)
      let cluster = (desired, w, [ (c, 0.0) ], desired, 1) in
      let rec absorb (start, cw, members, sum_d, k) placed =
        (* clamp into the segment *)
        let start = Float.max seg.Rows.x0 (Float.min (seg.Rows.x1 -. cw) start) in
        match placed with
        | (pstart, pw, pmembers, psum, pk) :: tail
          when pstart +. pw > start +. 1e-12 ->
          (* overlap with the previous cluster: merge *)
          let members' =
            pmembers @ List.map (fun (m, off) -> (m, off +. pw)) members
          in
          let sum' = psum +. (sum_d -. (float_of_int k *. pw)) in
          let k' = pk + k in
          absorb (sum' /. float_of_int k', pw +. cw, members', sum', k') tail
        | _ -> ((start, cw, members, sum_d, k), placed)
      in
      let cluster', placed' = absorb cluster placed in
      place_clusters (cluster' :: placed') rest
  in
  let clusters = place_clusters [] order in
  List.iter
    (fun (start, cw, members, _, _) ->
      let start = Float.max seg.Rows.x0 (Float.min (seg.Rows.x1 -. cw) start) in
      List.iter
        (fun (c, off) ->
          pos.Placement.x.(c) <- start +. off +. (nl.Netlist.widths.(c) /. 2.0);
          pos.Placement.y.(c) <- seg.Rows.y)
        members)
    clusters

let run (inst : Fbp_movebound.Instance.t) (regions : Fbp_movebound.Regions.t)
    (pos : Placement.t) =
  let t0 = Fbp_util.Timer.now () in
  let design = inst.Fbp_movebound.Instance.design in
  let nl = design.Design.netlist in
  let before = Placement.copy pos in
  let n_failed = ref 0 and n_legalized = ref 0 in
  (* group movable cells by the region containing their position *)
  let groups = Array.make (Fbp_movebound.Regions.n_regions regions) [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then begin
      let r = Fbp_movebound.Regions.region_at regions (Placement.get pos c) in
      groups.(r.Fbp_movebound.Regions.id) <- c :: groups.(r.Fbp_movebound.Regions.id)
    end
  done;
  Array.iteri
    (fun rid cells ->
      if cells <> [] then begin
        let region = regions.Fbp_movebound.Regions.regions.(rid) in
        let segments =
          Rows.build ~chip:design.Design.chip ~row_height:design.Design.row_height
            ~blockages:design.Design.blockages ~region:rid
            region.Fbp_movebound.Regions.area
          |> Array.of_list
        in
        if Array.length segments = 0 then n_failed := !n_failed + List.length cells
        else begin
          let cells = Array.of_list (List.sort Int.compare cells) in
          (* zone flow: cells -> segments *)
          let k = Array.length segments in
          let cost = Array.make (Array.length cells * k) 0.0 in
          Array.iteri
            (fun i c ->
              let cx = pos.Placement.x.(c) and cy = pos.Placement.y.(c) in
              for j = 0 to k - 1 do
                let seg = segments.(j) in
                let dx =
                  if cx < seg.Rows.x0 then seg.Rows.x0 -. cx
                  else if cx > seg.Rows.x1 then cx -. seg.Rows.x1
                  else 0.0
                in
                cost.((i * k) + j) <- dx +. Float.abs (cy -. seg.Rows.y)
              done)
            cells;
          let problem =
            {
              Fbp_flow.Transport.n = Array.length cells;
              k;
              sizes = Array.map (fun c -> nl.Netlist.widths.(c)) cells;
              capacities = Array.map Rows.width segments;
              cost;
            }
          in
          match Fbp_flow.Transport.solve problem with
          | Error _ -> n_failed := !n_failed + Array.length cells
          | Ok assignment ->
            let choice = Fbp_flow.Transport.round_integral assignment in
            let per_segment = Array.make (Array.length segments) [] in
            let load = Array.make (Array.length segments) 0.0 in
            Array.iteri
              (fun i c ->
                let j = choice.(i) in
                if j >= 0 then begin
                  per_segment.(j) <- c :: per_segment.(j);
                  load.(j) <- load.(j) +. nl.Netlist.widths.(c);
                  incr n_legalized
                end
                else incr n_failed)
              cells;
            (* integral rounding can overfill a segment: shed the narrowest
               members to the most-slack segment that fits them *)
            Array.iteri
              (fun j _ ->
                while load.(j) > Rows.width segments.(j) +. 1e-9
                      && per_segment.(j) <> [] do
                  let victim =
                    List.fold_left
                      (fun best c ->
                        if nl.Netlist.widths.(c) < nl.Netlist.widths.(best) then c
                        else best)
                      (List.hd per_segment.(j))
                      per_segment.(j)
                  in
                  per_segment.(j) <- List.filter (fun c -> c <> victim) per_segment.(j);
                  load.(j) <- load.(j) -. nl.Netlist.widths.(victim);
                  (* most slack target with room *)
                  let target = ref (-1) and slack = ref 0.0 in
                  Array.iteri
                    (fun j' _ ->
                      let s = Rows.width segments.(j') -. load.(j') in
                      if j' <> j && s > !slack && s >= nl.Netlist.widths.(victim) then begin
                        slack := s;
                        target := j'
                      end)
                    segments;
                  if !target >= 0 then begin
                    per_segment.(!target) <- victim :: per_segment.(!target);
                    load.(!target) <- load.(!target) +. nl.Netlist.widths.(victim)
                  end
                  else begin
                    decr n_legalized;
                    incr n_failed
                  end
                done)
              segments;
            Array.iteri
              (fun j members ->
                if members <> [] then pack_segment nl pos segments.(j) members)
              per_segment
        end
      end)
    groups;
  {
    n_legalized = !n_legalized;
    n_failed = !n_failed;
    avg_displacement = Placement.avg_displacement before pos;
    max_displacement = Placement.max_displacement before pos;
    time = Fbp_util.Timer.now () -. t0;
  }
