(* Half-perimeter wirelength — the quality metric of every table in the
   paper.  For each net, the bounding box of its pin positions contributes
   weight * (width + height).

   Allocation-free: the bounding box is taken in pin order and the nets are
   summed in net order in [@inline] code, so no pin position, tuple or
   accumulator is boxed (a float crossing a call would be). *)

let[@inline] net_hpwl (xs : float array) (ys : float array)
    (net : Netlist.net) =
  let pins = net.Netlist.pins in
  let np = Array.length pins in
  if np <= 1 then 0.0
  else begin
    let x0 = ref infinity and x1 = ref neg_infinity in
    let y0 = ref infinity and y1 = ref neg_infinity in
    for i = 0 to np - 1 do
      let pin = pins.(i) in
      let c = pin.Netlist.cell in
      let x = if c < 0 then pin.Netlist.dx else xs.(c) +. pin.Netlist.dx in
      let y = if c < 0 then pin.Netlist.dy else ys.(c) +. pin.Netlist.dy in
      if x < !x0 then x0 := x;
      if x > !x1 then x1 := x;
      if y < !y0 then y0 := y;
      if y > !y1 then y1 := y
    done;
    net.Netlist.weight *. (!x1 -. !x0 +. !y1 -. !y0)
  end

let of_net (_nl : Netlist.t) (p : Placement.t) net =
  net_hpwl p.Placement.x p.Placement.y net

let total (nl : Netlist.t) (p : Placement.t) =
  let nets = nl.Netlist.nets in
  let xs = p.Placement.x and ys = p.Placement.y in
  let acc = ref 0.0 in
  for k = 0 to Array.length nets - 1 do
    acc := !acc +. net_hpwl xs ys nets.(k)
  done;
  !acc

(* HPWL in the "millions of layout units" scale the tables use. *)
let total_millions nl p = total nl p /. 1e6
