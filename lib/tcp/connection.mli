(** Baseline TCP connection (one-directional data flow).

    A deliberately faithful model of the mechanisms that make TCP a
    poor fit for DAQ workloads (§ 4.1): an ordered bytestream with
    cumulative ACKs (head-of-line blocking), retransmission from the
    source across the whole path RTT, RTO estimation with exponential
    backoff, fast retransmit on triple duplicate ACKs, and Reno/Cubic
    congestion control.  "Tuning" (window sizing to the
    bandwidth-delay product, as DTN operators do [22, 43, 73]) is a
    configuration profile.

    Payload content is synthetic: segments carry their logical length
    (as wire padding) but no materialized bytes, so multi-gigabyte
    streams simulate in O(1) memory.  All measurements made on the
    baseline are timing and ordering measurements, which are
    unaffected.

    Segments live in the topology's packet ring: each is a
    header-only ring frame written in place ({!Segment.write}), read in
    place by the peer, and retired by the endpoint that consumes it. *)

open Mmt_util

type config = {
  mss : int;  (** payload bytes per segment *)
  initial_window : int;  (** bytes; also the post-RTO restart window *)
  max_window : int;  (** bytes; socket buffer = advertised window cap *)
  algorithm : Congestion.algorithm;
  min_rto : Units.Time.t;
  max_rto : Units.Time.t;
}

val default_config : config
(** Untuned endpoint: 64 KiB windows, Reno — the out-of-the-box
    behaviour the paper contrasts with tuned DTNs. *)

val tuned_config : bdp:Units.Size.t -> config
(** DTN-style tuning: Cubic, windows sized to the path
    bandwidth-delay product, 10 MSS initial window. *)

type stats = {
  bytes_written : int;
  bytes_acked : int;
  bytes_delivered : int;  (** in-order bytes handed to the receiver app *)
  segments_sent : int;
  retransmits : int;
  fast_retransmits : int;
  timeouts : int;
  duplicate_acks : int;
  out_of_order_segments : int;
  srtt : Units.Time.t option;
  cwnd : int;
  completed_at : Units.Time.t option;
      (** when every written byte was acknowledged (after [finish]) *)
}

type t

val create :
  engine:Mmt_sim.Engine.t ->
  ring:Mmt_sim.Ring.t ->
  fresh_id:(unit -> int) ->
  config:config ->
  ?port:int ->
  tx:(Mmt_sim.Packet.t -> unit) ->
  ?deliver:(int -> unit) ->
  unit ->
  t
(** [tx] transmits a packet toward the peer; segments are taken from
    [ring], the ring of the topology [tx] sends on.  [deliver n]
    reports [n] new in-order bytes to the receiving application.
    [port] (default 1) tags this connection's segments; several
    connections can share one link for multi-stream experiments, with
    {!dispatch} handing each arriving segment to its connection. *)

val on_packet : t -> Mmt_sim.Packet.t -> unit
(** Feed a packet from the peer.  Corrupted packets are dropped as a
    checksum failure would, and packets that are not a segment for
    this connection's port are ignored.  The connection is the
    packet's last holder on every path: it retires the packet into the
    ring before returning, and keeps nothing that points into the
    frame. *)

val dispatch : ring:Mmt_sim.Ring.t -> t list -> Mmt_sim.Packet.t -> unit
(** [dispatch ~ring connections] is the packet handler of a node that
    terminates several connections (one per port): it reads each
    segment's destination port once and hands the packet to that
    connection's {!on_packet}.  A packet that is not a segment, or is
    for no listed port, is retired into [ring]. *)

val write : t -> int -> unit
(** Append [n] synthetic bytes to the send stream. *)

val finish : t -> unit
(** No more writes; [stats.completed_at] is set once fully acked. *)

val stats : t -> stats
val config : t -> config
val rto : t -> Units.Time.t
