(* Half-perimeter wirelength — the quality metric of every table in the
   paper.  For each net, the bounding box of its pin positions contributes
   weight * (width + height).

   Allocation-free: the bounding box is taken in pin order over the flat
   pin arrays and the nets are summed in net order in [@inline] code, so
   no pin position, tuple or accumulator is boxed (a float crossing a call
   would be). *)

let[@inline] net_hpwl (nl : Netlist.t) (xs : float array) (ys : float array)
    i =
  let lo = nl.Netlist.net_start.(i) and hi = nl.Netlist.net_start.(i + 1) in
  if hi - lo <= 1 then 0.0
  else begin
    let pin_cell = nl.Netlist.pin_cell in
    let pin_dx = nl.Netlist.pin_dx and pin_dy = nl.Netlist.pin_dy in
    let x0 = ref infinity and x1 = ref neg_infinity in
    let y0 = ref infinity and y1 = ref neg_infinity in
    for k = lo to hi - 1 do
      let c = pin_cell.(k) in
      let x = if c < 0 then pin_dx.(k) else xs.(c) +. pin_dx.(k) in
      let y = if c < 0 then pin_dy.(k) else ys.(c) +. pin_dy.(k) in
      if x < !x0 then x0 := x;
      if x > !x1 then x1 := x;
      if y < !y0 then y0 := y;
      if y > !y1 then y1 := y
    done;
    nl.Netlist.net_weight.(i) *. (!x1 -. !x0 +. !y1 -. !y0)
  end

let of_net (nl : Netlist.t) (p : Placement.t) i =
  net_hpwl nl p.Placement.x p.Placement.y i

let total (nl : Netlist.t) (p : Placement.t) =
  let xs = p.Placement.x and ys = p.Placement.y in
  let acc = ref 0.0 in
  for i = 0 to Netlist.n_nets nl - 1 do
    acc := !acc +. net_hpwl nl xs ys i
  done;
  !acc

(* HPWL in the "millions of layout units" scale the tables use. *)
let total_millions nl p = total nl p /. 1e6
