(** Baseline UDP datagram transport.

    "When a transport is used in a DAQ network, it is usually UDP (as
    done in DUNE)" (§ 4).  Fire-and-forget datagrams over an
    Ethernet+IPv4+UDP stack: no sequencing, no recovery, no
    timeliness — loss upstream of the first buffering stage is simply
    gone, which is the baseline the multi-modal mode-0/mode-1 split
    improves on.

    Datagrams live in the topology's packet ring: the sender writes
    each one into a ring frame and the receiver reads it in place and
    retires it. *)

open Mmt_util
open Mmt_frame

type sender

type sender_stats = { datagrams_sent : int; bytes_sent : int }

val create_sender :
  engine:Mmt_sim.Engine.t ->
  ring:Mmt_sim.Ring.t ->
  fresh_id:(unit -> int) ->
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  src_port:int ->
  dst_port:int ->
  tx:(Mmt_sim.Packet.t -> unit) ->
  ?padding:int ->
  unit ->
  sender

val send : sender -> bytes -> unit
(** Write the IPv4 header, the UDP header and the payload into one
    frame from the sender's ring, then transmit it.  The payload is
    copied once, into the frame, and not kept. *)

val sender_stats : sender -> sender_stats

type receiver

type receiver_stats = {
  datagrams_received : int;
  bytes_received : int;
  corrupted : int;
  decode_failures : int;
}

val create_receiver :
  ring:Mmt_sim.Ring.t ->
  deliver:(src:Addr.Ip.t -> src_port:int -> Mmt_wire.Cursor.Reader.t -> unit) ->
  unit ->
  receiver
(** [deliver ~src ~src_port payload] runs once per datagram received.
    [payload] is a reader over the datagram's payload bytes inside the
    arriving frame, not a copy.  The frame goes back to [ring] when
    {!on_packet} returns, so the reader is valid only until [deliver]
    returns; a callback that keeps the payload copies it out, e.g. with
    {!Mmt_wire.Cursor.Reader.rest}. *)

val on_packet : receiver -> Mmt_sim.Packet.t -> unit
(** Feed an arriving packet.  Corrupted and undecodable packets are
    counted and dropped.  The receiver is the packet's last holder on
    every path: it retires the packet into the ring before
    returning. *)

val receiver_stats : receiver -> receiver_stats
val receiver_goodput : receiver -> over:Units.Time.t -> Units.Rate.t
