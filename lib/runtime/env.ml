open Mmt_frame

type t = {
  engine : Mmt_sim.Engine.t;
  local_ip : Addr.Ip.t;
  send : Addr.Ip.t -> Mmt_sim.Packet.t -> unit;
  fresh_id : unit -> int;
  ring : Mmt_sim.Ring.t;
}

let now t = Mmt_sim.Engine.now t.engine
let after t delay fn = Mmt_sim.Engine.schedule_after t.engine ~delay fn

let retire t packet = Mmt_sim.Ring.in_packet_done t.ring packet
let pool t = Mmt_sim.Ring.pool t.ring

let loopback ?(local_ip = Addr.Ip.of_octets 127 0 0 1)
    ?(ring = Mmt_sim.Ring.create ()) engine =
  let queue = Queue.create () in
  let counter = ref 0 in
  let fresh_id () =
    let id = !counter in
    incr counter;
    id
  in
  let send _dst pkt = Queue.push pkt queue in
  ({ engine; local_ip; send; fresh_id; ring }, queue)
