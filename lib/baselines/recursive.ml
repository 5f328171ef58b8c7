(* Classic recursive partitioning (old BonnPlace style [5], [27]) — the
   ablation comparator for Section IV's claims.

   Each window is recursively quadrisected: a QP restores connectivity, then
   the window's cells are split among its four subwindows by the
   transportation algorithm with subwindow capacities.  All decisions are
   *local to the window*: once cells are committed to a subwindow they never
   leave it, which is precisely the drawback the flow-based partitioning
   removes (local rounding can make a subproblem infeasible, and there is no
   global view).  Cells that do not fit their subwindow are force-assigned
   to the least-loaded one ("rounding effects" in the paper's words); the
   count of such overflow events is reported. *)

open Fbp_geometry
open Fbp_netlist

type report = {
  placement : Placement.t;
  overflow_events : int;  (* cells force-assigned past subwindow capacity *)
  global_time : float;
  hpwl : float;  (* global (pre-legalization) *)
}

let place ?(config = Fbp_core.Config.default) (inst0 : Fbp_movebound.Instance.t) =
  match Fbp_movebound.Instance.normalize inst0 with
  | Error e -> Error e
  | Ok inst ->
    let design = inst.Fbp_movebound.Instance.design in
    let nl = design.Design.netlist in
    let t0 = Fbp_util.Timer.now () in
    let density = Fbp_core.Density.create design in
    let pos = Placement.copy design.Design.initial in
    let chip_center = Rect.center design.Design.chip in
    ignore
      (Fbp_core.Qp.solve_global config nl pos ~anchor:(fun _ ->
           Some (1e-6, chip_center.Point.x, 1e-6, chip_center.Point.y)) ());
    let overflow_events = ref 0 in
    let max_level = Fbp_core.Placer.n_levels config design in
    (* window assignment per cell, refined level by level *)
    let assigned = Array.make (Netlist.n_cells nl) (Rect.of_corner ~x:design.Design.chip.Rect.x0 ~y:design.Design.chip.Rect.y0 ~w:(Rect.width design.Design.chip) ~h:(Rect.height design.Design.chip)) in
    let anchor_pos = ref (Placement.copy pos) in
    for level = 1 to max_level do
      let anchor_w = Fbp_core.Placer.anchor_weight level in
      if level > 1 then begin
        let ap = !anchor_pos in
        ignore
          (Fbp_core.Qp.solve_global config nl pos ~anchor:(fun c ->
               Some (anchor_w, ap.Placement.x.(c), anchor_w, ap.Placement.y.(c)))
             ())
      end;
      (* group cells by current assigned window, then split each window *)
      let groups = Hashtbl.create 64 in
      for c = 0 to Netlist.n_cells nl - 1 do
        if not nl.Netlist.fixed.(c) then begin
          let key = assigned.(c) in
          Hashtbl.replace groups key
            (c :: (try Hashtbl.find groups key with Not_found -> []))
        end
      done;
      Hashtbl.iter
        (fun (win : Rect.t) cells ->
          let cells = Array.of_list (List.sort Int.compare cells) in
          (* quadrants *)
          let cx = (win.Rect.x0 +. win.Rect.x1) /. 2.0 in
          let cy = (win.Rect.y0 +. win.Rect.y1) /. 2.0 in
          let quads =
            [|
              Rect.make ~x0:win.Rect.x0 ~y0:win.Rect.y0 ~x1:cx ~y1:cy;
              Rect.make ~x0:cx ~y0:win.Rect.y0 ~x1:win.Rect.x1 ~y1:cy;
              Rect.make ~x0:win.Rect.x0 ~y0:cy ~x1:cx ~y1:win.Rect.y1;
              Rect.make ~x0:cx ~y0:cy ~x1:win.Rect.x1 ~y1:win.Rect.y1;
            |]
          in
          let caps = Array.map (Fbp_core.Density.capacity_rect density) quads in
          (* movebound admissibility: cell of movebound M may go to a
             quadrant only if the quadrant intersects A(M); purely local,
             no global capacity reasoning (the baseline's weakness) *)
          let admissible i q =
            let mb = nl.Netlist.movebound.(i) in
            if mb < 0 then true
            else
              Rect_set.overlaps_rect
                inst.Fbp_movebound.Instance.movebounds.(mb).Fbp_movebound.Movebound.area
                q
          in
          let cost =
            Array.init (Array.length cells * 4) (fun ij ->
                let i = ij / 4 and j = ij mod 4 in
                if not (admissible cells.(i) quads.(j)) then infinity
                else Rect.dist_l1_point quads.(j) (Placement.get pos cells.(i)))
          in
          let sizes = Array.map (fun c -> Netlist.size nl c) cells in
          let problem =
            { Fbp_flow.Transport.n = Array.length cells; k = 4; sizes;
              capacities = caps; cost }
          in
          let choice =
            match Fbp_flow.Transport.solve problem with
            | Ok a -> Fbp_flow.Transport.round_integral a
            | Error _ ->
              (* some cell has no admissible quadrant: fall back greedily *)
              Array.mapi
                (fun i _ ->
                  let best = ref 0 and bestc = ref infinity in
                  for j = 0 to 3 do
                    let c = cost.((i * 4) + j) in
                    let c = if Float.equal c infinity then 1e18 else c in
                    if c < !bestc then begin
                      bestc := c;
                      best := j
                    end
                  done;
                  !best)
                cells
          in
          (* commit: clamp into quadrant; count capacity overruns *)
          let load = Array.make 4 0.0 in
          Array.iteri
            (fun i c ->
              let j = if choice.(i) >= 0 then choice.(i) else 0 in
              load.(j) <- load.(j) +. sizes.(i);
              if load.(j) > caps.(j) +. 1e-6 then incr overflow_events;
              assigned.(c) <- quads.(j);
              let p = Rect.clamp_point quads.(j) (Placement.get pos c) in
              Placement.set pos c p)
            cells)
        groups;
      anchor_pos := Placement.copy pos
    done;
    Ok
      {
        placement = pos;
        overflow_events = !overflow_events;
        global_time = Fbp_util.Timer.now () -. t0;
        hpwl = Hpwl.total nl pos;
      }
