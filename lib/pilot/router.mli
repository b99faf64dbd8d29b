(** Per-host static routing and environment construction.

    Each host in a pilot topology owns a router: a map from destination
    IP to a sink (usually [Link.send] of the next-hop link).  The
    router also manufactures the {!Mmt_runtime.Env.t} handed to the
    protocol endpoints living on that host. *)

open Mmt_frame

type t

val create :
  ?default:(Mmt_sim.Packet.t -> unit) -> ring:Mmt_sim.Ring.t -> unit -> t
(** [ring] is the topology's packet ring: packets with no
    route and no default sink retire into it (the router was their
    last holder), and {!env} hands it to the endpoints living on the
    host. *)

val add : t -> Addr.Ip.t -> (Mmt_sim.Packet.t -> unit) -> unit
val send : t -> Addr.Ip.t -> Mmt_sim.Packet.t -> unit

(** O(1) table lookup without the default fallback or unrouted
    accounting — the shape switch [route] callbacks need.  Replaces the
    per-packet linear scans that degraded super-linearly with fan-out
    (every data packet paid O(consumers) at the switch). *)
val find : t -> Addr.Ip.t -> (Mmt_sim.Packet.t -> unit) option
val unrouted : t -> int

val env :
  t ->
  engine:Mmt_sim.Engine.t ->
  fresh_id:(unit -> int) ->
  local_ip:Addr.Ip.t ->
  Mmt_runtime.Env.t
