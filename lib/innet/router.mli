(** A node's forwarding table: exact match on the IPv4 destination.

    Each node owns one table mapping destination addresses to sinks:
    usually [Link.send] of the next-hop link, and for the node's own
    address the consumer that lives there (a buffer host, a receiver).
    The node's switch ({!Switch.attach}) looks up every frame it
    forwards, and the node's endpoints send through the same table
    ({!env}).  A hit hands the packet to the entry's sink, a miss to
    the table's default, and without a default the packet is counted
    {!unrouted} and retired into the ring.

    {b Keys.}  An address is keyed by {!Mmt_frame.Addr.Ip.to_int}, the
    unsigned int [a lsl 24 lor b lsl 16 lor c lsl 8 lor d], which is
    what {!Mmt.Header_vector.ip_dst} returns for a frame that rides
    IPv4.  A frame that does not (raw or Ethernet-only encapsulation,
    or one whose encapsulation did not parse) has key [-1], which no
    entry matches.  A lookup allocates nothing. *)

open Mmt_frame

type t

val create : ?default:(Mmt_sim.Packet.t -> unit) -> ring:Mmt_sim.Ring.t -> int -> t
(** [create ~ring n] is an empty table sized for [n] entries (it grows
    past them).  [ring] is the topology's packet ring: missed packets
    retire into it, and {!env} hands it to the node's endpoints. *)

val add : t -> Addr.Ip.t -> (Mmt_sim.Packet.t -> unit) -> unit
(** Install or replace the entry for an address. *)

val forward : t -> int -> Mmt_sim.Packet.t -> bool
(** [forward t key packet] hands the packet to [key]'s sink, else to the
    default, and returns [true]; with neither it counts the packet
    unrouted, retires it and returns [false]. *)

val send : t -> Addr.Ip.t -> Mmt_sim.Packet.t -> unit
(** {!forward} by address: the send primitive of {!env}. *)

val unrouted : t -> int
val ring : t -> Mmt_sim.Ring.t

val env :
  t ->
  engine:Mmt_sim.Engine.t ->
  fresh_id:(unit -> int) ->
  local_ip:Addr.Ip.t ->
  Mmt_runtime.Env.t
(** The environment of an endpoint on the node. *)
