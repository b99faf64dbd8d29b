(** Facility addressing plan.

    A facility scenario hosts up to 2^16 flows, each owning three
    addresses derived arithmetically from its flow id, so any element
    on the path recovers the id from a destination address in O(1) —
    the property the per-flow demultiplexers ({!Flow_table}) rely on.
    The plan mirrors how a P4 switch would match on a prefix and use
    the host bits as a register index:

    - [10.16.hi.lo] — flow [hi*256+lo]'s source (detector front-end)
    - [10.32.hi.lo] — flow [hi*256+lo]'s receiver (event-builder side)
    - [10.48.hi.lo] — flow [hi*256+lo]'s retransmission buffer
    - [10.64.0.m]   — sink host [m] (the shared event-builder node) *)

open Mmt_frame

val source_ip : int -> Addr.Ip.t
val flow_ip : int -> Addr.Ip.t
(** The per-flow destination the source addresses; terminates at the
    flow's receiver on its assigned sink host. *)

val buffer_ip : int -> Addr.Ip.t
(** Where the flow's NAKs go: the per-flow retransmission buffer at
    the facility edge. *)

val sink_ip : int -> Addr.Ip.t

type role =
  | Source of int
  | Flow of int
  | Buffer of int
  | Sink of int
  | Other

val classify : Addr.Ip.t -> role
(** Invert the plan: prefix match plus host-bit extraction, no table. *)

val classify_int : int -> role
(** {!classify} on an address as an unsigned int, as
    {!Mmt.Header_vector.ip_dst} gives it. *)
