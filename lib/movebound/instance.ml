(* A movebounded placement instance: a design plus its movebound table.

   The paper assumes (Section II) that no exclusive movebound overlaps any
   other movebound — "such situations can easily be detected and modified at
   the input".  [normalize] performs exactly that modification: exclusive
   areas are subtracted from every other movebound's area (and from the
   implicit chip-wide bound of unconstrained cells, which the region
   decomposition handles via signatures). *)

open Fbp_geometry

type t = {
  design : Fbp_netlist.Design.t;
  movebounds : Movebound.t array;  (* index = movebound id *)
}

let n_movebounds t = Array.length t.movebounds

let movebound_of_cell t c =
  let id = t.design.Fbp_netlist.Design.netlist.Fbp_netlist.Netlist.movebound.(c) in
  if id < 0 then None else Some t.movebounds.(id)

(* Total movable cell area per class (last entry = unconstrained). *)
let area_by_class t =
  let nl = t.design.Fbp_netlist.Design.netlist in
  let k = n_movebounds t in
  let areas = Array.make (k + 1) 0.0 in
  for c = 0 to nl.Fbp_netlist.Netlist.n_cells - 1 do
    if not nl.Fbp_netlist.Netlist.fixed.(c) then begin
      let id = nl.Fbp_netlist.Netlist.movebound.(c) in
      let idx = if id < 0 then k else id in
      areas.(idx) <- areas.(idx) +. Fbp_netlist.Netlist.size nl c
    end
  done;
  areas

let validate t =
  let nl = t.design.Fbp_netlist.Design.netlist in
  let k = n_movebounds t in
  let bad = ref None in
  Array.iteri
    (fun i (m : Movebound.t) ->
      if m.Movebound.id <> i then bad := Some (Printf.sprintf "movebound %d has id %d" i m.Movebound.id))
    t.movebounds;
  Array.iteri
    (fun c id ->
      if id >= k then bad := Some (Printf.sprintf "cell %d references movebound %d" c id))
    nl.Fbp_netlist.Netlist.movebound;
  (* exclusive movebounds must not overlap any other movebound *)
  Array.iter
    (fun (m : Movebound.t) ->
      if Movebound.is_exclusive m then
        Array.iter
          (fun (m' : Movebound.t) ->
            if m'.Movebound.id <> m.Movebound.id
               && Rect_set.overlaps m.Movebound.area m'.Movebound.area
            then
              bad :=
                Some
                  (Printf.sprintf "exclusive movebound %s overlaps %s (run normalize)"
                     m.Movebound.name m'.Movebound.name))
          t.movebounds)
    t.movebounds;
  match !bad with None -> Ok () | Some m -> Error m

(* Subtract exclusive areas from every *other* movebound, enforcing the
   paper's preprocessing assumption.  Fails if some movebound's area becomes
   empty (its cells would have nowhere to go). *)
let normalize t =
  let exclusive_union =
    Array.fold_left
      (fun acc (m : Movebound.t) ->
        if Movebound.is_exclusive m then Rect_set.union acc m.Movebound.area else acc)
      Rect_set.empty t.movebounds
  in
  let bad = ref None in
  let movebounds =
    Array.map
      (fun (m : Movebound.t) ->
        if Movebound.is_exclusive m then m
        else begin
          let area = Rect_set.subtract m.Movebound.area exclusive_union in
          if Rect_set.is_empty area then begin
            bad := Some (Printf.sprintf "movebound %s vanishes under exclusive areas" m.Movebound.name);
            m
          end
          else { m with Movebound.area }
        end)
      t.movebounds
  in
  match !bad with
  | Some msg -> Error msg
  | None -> Ok { t with movebounds }

(* Instance without movebounds (every placement problem is a movebounded one
   with A(mu(c)) = chip — Section II). *)
let unconstrained design = { design; movebounds = [||] }
