(* Kraftwerk2-style baseline: force-directed quadratic placement with a
   demand-and-supply potential (after Spindler, Schlichtmann, Johannes,
   TCAD'08 [21]).

   Each iteration solves the discretized Poisson equation
   laplacian(phi) = -(demand - supply) on a bin grid by Gauss-Seidel; the
   negated gradient of phi is the move force, implemented as a fixed anchor
   pulling every cell from its current position along the force vector.
   Iterations stop when the worst bin overflow falls under a threshold.
   Used as the Table VII comparator. *)

open Fbp_geometry
open Fbp_netlist

(* The comparator's one configuration. *)
let max_iterations = 40
let step = 0.9  (* force-to-distance scaling *)
let anchor_weight = 0.06
let stop_overflow = 1.04
let gs_sweeps = 60  (* Gauss-Seidel sweeps per iteration *)

type report = Rql.report = {
  placement : Placement.t;
  iterations : int;
  global_time : float;
  legalize_time : float;
  hpwl : float;
}

(* Solve laplacian(phi) = rho on an nx*ny grid (Dirichlet 0 boundary) by
   [gs_sweeps] Gauss-Seidel sweeps; returns phi. *)
let poisson ~nx ~ny (rho : float array) =
  let phi = Array.make (nx * ny) 0.0 in
  for _ = 1 to gs_sweeps do
    for j = 0 to ny - 1 do
      for i = 0 to nx - 1 do
        let idx = (j * nx) + i in
        let get di dj =
          let i' = i + di and j' = j + dj in
          if i' < 0 || i' >= nx || j' < 0 || j' >= ny then 0.0
          else phi.((j' * nx) + i')
        in
        phi.(idx) <-
          0.25
          *. (get (-1) 0 +. get 1 0 +. get 0 (-1) +. get 0 1 -. rho.(idx))
      done
    done
  done;
  phi

let place (inst0 : Fbp_movebound.Instance.t) =
  match Fbp_movebound.Instance.normalize inst0 with
  | Error e -> Error e
  | Ok inst ->
    let design = inst.Fbp_movebound.Instance.design in
    let nl = design.Design.netlist in
    let chip = design.Design.chip in
    let t0 = Fbp_util.Timer.now () in
    let nb = max 8 (min 48 (Design.n_rows design / 10)) in
    let pos = Placement.copy design.Design.initial in
    let cfg = Fbp_core.Config.default in
    let bw = Rect.width chip /. float_of_int nb in
    let bh = Rect.height chip /. float_of_int nb in
    let iter = ref 0 in
    let converged = ref false in
    let targets_x = ref (Array.copy pos.Placement.x) in
    let targets_y = ref (Array.copy pos.Placement.y) in
    let have_force = ref false in
    while (not !converged) && !iter < max_iterations do
      incr iter;
      let txs = !targets_x and tys = !targets_y and forced = !have_force in
      ignore
        (Fbp_core.Qp.solve_global cfg nl pos ~anchor:(fun c ->
             if not forced then None
             else Some (anchor_weight, txs.(c), anchor_weight, tys.(c)))
           ());
      (* demand - supply *)
      let bins = Spread.compute_bins design pos ~nx:nb ~ny:nb in
      let rho =
        Array.mapi
          (fun i u ->
            let c = bins.Spread.cap.(i) in
            (* normalized excess demand; negative where there is room *)
            (u -. c) /. Float.max 1.0 (bw *. bh))
          bins.Spread.usage
      in
      let phi = poisson ~nx:nb ~ny:nb rho in
      (* force = -grad(phi): move cells downhill *)
      let tx = Array.copy pos.Placement.x and ty = Array.copy pos.Placement.y in
      for c = 0 to Netlist.n_cells nl - 1 do
        if not nl.Netlist.fixed.(c) then begin
          let x = pos.Placement.x.(c) and y = pos.Placement.y.(c) in
          let bi = max 0 (min (nb - 1) (int_of_float ((x -. chip.Rect.x0) /. bw))) in
          let bj = max 0 (min (nb - 1) (int_of_float ((y -. chip.Rect.y0) /. bh))) in
          let p di dj =
            let i' = bi + di and j' = bj + dj in
            if i' < 0 || i' >= nb || j' < 0 || j' >= nb then 0.0
            else phi.((j' * nb) + i')
          in
          let gx = (p 1 0 -. p (-1) 0) /. (2.0 *. bw) in
          let gy = (p 0 1 -. p 0 (-1)) /. (2.0 *. bh) in
          let x' = x -. (step *. gx *. bw *. float_of_int nb) in
          let y' = y -. (step *. gy *. bh *. float_of_int nb) in
          (* keep on chip; soft movebound clip like the RQL baseline *)
          let x' = Float.max chip.Rect.x0 (Float.min chip.Rect.x1 x') in
          let y' = Float.max chip.Rect.y0 (Float.min chip.Rect.y1 y') in
          let mb = nl.Netlist.movebound.(c) in
          let x', y' =
            if mb < 0 then (x', y')
            else
              Spread.clip_into
                inst.Fbp_movebound.Instance.movebounds.(mb).Fbp_movebound.Movebound.area
                x' y'
          in
          tx.(c) <- x';
          ty.(c) <- y'
        end
      done;
      targets_x := tx;
      targets_y := ty;
      have_force := true;
      if Spread.max_overflow_ratio bins <= stop_overflow then converged := true
    done;
    let global_time = Fbp_util.Timer.now () -. t0 in
    let t1 = Fbp_util.Timer.now () in
    let regions =
      Fbp_movebound.Regions.decompose ~chip inst.Fbp_movebound.Instance.movebounds
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
