(* RQL-style baseline: relaxed quadratic spreading with linearization
   (after Viswanathan et al., DAC'07 [25]).

   Iterates: quadratic solve with pseudo-net anchors -> capacity-
   proportional cell spreading -> re-anchor cells at their spread positions
   with weights damped by 1/distance (the "linearization").  Movebounds are
   handled *softly*: a cell's spread target is clipped into its admissible
   area, but nothing reserves capacity per movebound — which is exactly why
   this family of placers can end up with movebound violations on hard
   instances (Tables IV/V of the paper).

   Legalization is row-based but *not* flow-partitioned: cells are grouped
   by the region their final global position lies in, and spills ignore
   movebound admissibility.  Remaining violations are counted by the
   harness. *)

open Fbp_netlist

(* The comparator's one configuration. *)
let max_iterations = 60
let theta = 0.8  (* spreading damping *)
let anchor_base = 0.05
let stop_overflow = 1.03  (* stop when the worst bin ratio is below *)

type report = {
  placement : Placement.t;
  iterations : int;
  global_time : float;
  legalize_time : float;
  hpwl : float;  (* legal placement HPWL *)
}

(* bins at roughly 10 rows per side, matching the granularity density is
   judged at (the ISPD scoring and the FBP window floor) *)
let auto_bins (design : Design.t) =
  max 8 (min 64 (Design.n_rows design / 10))

let place (inst0 : Fbp_movebound.Instance.t) =
  match Fbp_movebound.Instance.normalize inst0 with
  | Error e -> Error e
  | Ok inst ->
    let design = inst.Fbp_movebound.Instance.design in
    let nl = design.Design.netlist in
    let t0 = Fbp_util.Timer.now () in
    let nb = auto_bins design in
    let pos = Placement.copy design.Design.initial in
    let cfg = Fbp_core.Config.default in
    (* admissible area per class, for the soft clip *)
    let k = Fbp_movebound.Instance.n_movebounds inst in
    let class_area =
      Array.init (k + 1) (fun m ->
          if m = k then begin
            (* unconstrained: chip minus exclusive areas *)
            let excl =
              Array.fold_left
                (fun acc (mb : Fbp_movebound.Movebound.t) ->
                  if Fbp_movebound.Movebound.is_exclusive mb then
                    Fbp_geometry.Rect_set.union acc mb.Fbp_movebound.Movebound.area
                  else acc)
                Fbp_geometry.Rect_set.empty inst.Fbp_movebound.Instance.movebounds
            in
            Fbp_geometry.Rect_set.subtract
              (Fbp_geometry.Rect_set.of_rect design.Design.chip)
              excl
          end
          else inst.Fbp_movebound.Instance.movebounds.(m).Fbp_movebound.Movebound.area)
    in
    let anchors_x = ref (Array.copy pos.Placement.x) in
    let anchors_y = ref (Array.copy pos.Placement.y) in
    let anchor_weight = ref 0.0 in
    let iter = ref 0 in
    let converged = ref false in
    while (not !converged) && !iter < max_iterations do
      incr iter;
      (* quadratic solve with linearized pseudo-net anchors *)
      let ax = !anchors_x and ay = !anchors_y and aw = !anchor_weight in
      ignore
        (Fbp_core.Qp.solve_global cfg nl pos ~anchor:(fun c ->
             if aw <= 0.0 then None
             else begin
               (* linearization: weight / max(1, distance to anchor) *)
               let d =
                 Float.abs (pos.Placement.x.(c) -. ax.(c))
                 +. Float.abs (pos.Placement.y.(c) -. ay.(c))
               in
               let w = aw /. Float.max 1.0 d in
               Some (w, ax.(c), w, ay.(c))
             end) ());
      (* spreading *)
      let tx, ty, bins = Spread.targets design pos ~nx:nb ~ny:nb ~theta in
      (* soft movebound clip *)
      for c = 0 to Netlist.n_cells nl - 1 do
        if not nl.Netlist.fixed.(c) then begin
          let mb = nl.Netlist.movebound.(c) in
          let m = if mb < 0 then k else mb in
          let x, y = Spread.clip_into class_area.(m) tx.(c) ty.(c) in
          tx.(c) <- x;
          ty.(c) <- y
        end
      done;
      anchors_x := tx;
      anchors_y := ty;
      anchor_weight :=
        anchor_base *. (1.0 +. (0.3 *. float_of_int !iter));
      (* move cells toward their targets (damped) *)
      for c = 0 to Netlist.n_cells nl - 1 do
        if not nl.Netlist.fixed.(c) then begin
          pos.Placement.x.(c) <- tx.(c);
          pos.Placement.y.(c) <- ty.(c)
        end
      done;
      if Spread.max_overflow_ratio bins <= stop_overflow then converged := true
    done;
    let global_time = Fbp_util.Timer.now () -. t0 in
    (* legalization: row-based, grouped by current position, spills ignore
       movebounds (see module header) *)
    let t1 = Fbp_util.Timer.now () in
    let regions =
      Fbp_movebound.Regions.decompose ~chip:design.Design.chip
        inst.Fbp_movebound.Instance.movebounds
    in
    ignore
      (Fbp_legalize.Legalizer.run ~movebound_aware:false inst regions pos
         ~piece_of_cell:(Array.make (Netlist.n_cells nl) (-1))
         ~grid:None);
    let legalize_time = Fbp_util.Timer.now () -. t1 in
    Ok
      {
        placement = pos;
        iterations = !iter;
        global_time;
        legalize_time;
        hpwl = Hpwl.total nl pos;
      }
