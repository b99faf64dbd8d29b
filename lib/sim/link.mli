(** Unidirectional point-to-point links.

    A link owns an output queue, a transmitter that serializes packets
    at the link rate, an impairment model applied as packets leave the
    wire, and a fixed propagation delay.  Delivery invokes a callback —
    the topology layer wires callbacks to node handlers. *)

open Mmt_util

type t

type event =
  | Sent  (** handed to the link (pre-queue) *)
  | Queue_dropped
  | Transmitted  (** finished serialization *)
  | Loss_dropped
  | Corrupted  (** delivered corrupted: flagged by the loss model, or
                   real bits flipped by a fault tamperer *)
  | Delivered
  | Fault_dropped  (** destroyed because the link was down *)

type stats = {
  offered : int;  (** packets handed to [send] *)
  transmitted : int;  (** packets that finished serialization *)
  delivered : int;  (** packets handed to the delivery callback *)
  queue_drops : int;
  loss_drops : int;
  corrupted : int;  (** oracle-flagged by the loss model *)
  fault_drops : int;  (** destroyed while the link was down *)
  tampered : int;  (** delivered with genuinely flipped bits *)
  delivered_bytes : int;
  busy : Units.Time.t;  (** cumulative serialization time *)
}

val create :
  engine:Engine.t ->
  name:string ->
  rate:Units.Rate.t ->
  propagation:Units.Time.t ->
  ?loss:Loss.t ->
  ?queue:Queue_model.t ->
  ring:Ring.t ->
  ?observer:(event -> Packet.t -> unit) ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t
(** Default impairment is {!Loss.perfect}; default queue is a 4 MiB
    drop-tail.  A zero [rate] means an ideal link (no serialization
    delay).  [observer] sees every per-packet event as it happens —
    tracing taps into it.  Packets the link destroys (queue drops,
    expired drops, loss drops, fault drops) retire into [ring] after
    the observer has seen the event; delivered packets belong to the
    receiver.

    Every hop is two engine events: a serialize event when the packet
    leaves the transmitter (up check, loss draw, tamper, observer
    callbacks, stats, and the poll for the next packet), then a
    propagate event that hands the packet to [deliver]. *)

val send : t -> Packet.t -> unit
(** Enqueue for transmission; drops (with accounting) if the queue is
    full. *)

val name : t -> string
val rate : t -> Units.Rate.t
val propagation : t -> Units.Time.t
val queue : t -> Queue_model.t

(** {2 Fault hooks}

    The fault-injection layer ({!Mmt_fault}) drives links through
    these; all default to the healthy state, in which the link
    behaves exactly as it always did.  Up state and the tamperer are
    read when a packet finishes serializing, so a hook that fires
    while a packet is on the transmitter applies to that packet. *)

val is_up : t -> bool

val set_up : t -> bool -> unit
(** A downed link destroys traffic with [Fault_dropped] accounting:
    packets offered while down never enter the queue, and packets
    finishing serialization while down die at the wire.  Queued
    packets survive a short outage and transmit once the link is
    back up. *)

val set_rate : t -> Units.Rate.t -> unit
(** Degrade or restore the serialization rate; takes effect from the
    next packet to start serializing. *)

val set_tamper : t -> (Packet.t -> bool) option -> unit
(** Install a corruptor consulted for every packet that survives the
    loss model.  Returning [true] means it mutated the frame's bytes
    in place; the packet is delivered (the corrupted oracle flag is
    NOT set — detection must come from checksums). *)

val stats : t -> stats
val utilization : t -> over:Units.Time.t -> float
(** Fraction of [over] the transmitter spent serializing. *)
