open Mmt_frame

type t = {
  table : (Addr.Ip.t, Mmt_sim.Packet.t -> unit) Hashtbl.t;
  default : (Mmt_sim.Packet.t -> unit) option;
  ring : Mmt_sim.Ring.t;
  mutable unrouted : int;
}

let create ?default ~ring () =
  { table = Hashtbl.create 8; default; ring; unrouted = 0 }

let add t ip sink = Hashtbl.replace t.table ip sink
let find t ip = Hashtbl.find_opt t.table ip

let send t ip packet =
  match Hashtbl.find_opt t.table ip with
  | Some sink -> sink packet
  | None -> (
      match t.default with
      | Some sink -> sink packet
      | None ->
          t.unrouted <- t.unrouted + 1;
          (* The router was the last holder of an unroutable packet. *)
          Mmt_sim.Ring.in_packet_done t.ring packet)

let unrouted t = t.unrouted

let env t ~engine ~fresh_id ~local_ip =
  { Mmt_runtime.Env.engine; local_ip; send = send t; fresh_id; ring = t.ring }
