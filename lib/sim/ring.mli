(** Preallocated packet ring (lib_ethernet MII idiom).

    A growable arena of preallocated {!Packet.t} records plus an
    embedded frame {!Pool}.  The hot path hands the *same* record —
    identified by its slot index ([Packet.slot]) — from link to element
    pipeline to receiver, and recycles both the record and its frame at
    the retirement point with {!in_packet_done}; steady-state forwarding
    therefore does zero minor allocation.

    Ownership protocol (MII [in_packet]/[in_packet_done]):

    - {!in_packet} / {!alloc} / {!clone} acquire a live slot; exactly
      one component owns it at a time.  Ownership moves with the
      packet: scheduling a delivery transfers it to the delivery
      closure, [Element.process] transfers it to the element for the
      duration of the call and back to the switch with the outcome.
    - The owner at a packet's end of life calls {!in_packet_done}
      (delivery consumed, loss/queue/fault drop, dedup, discard).
      Holding a reference after that point is a use-after-free bug:
      the slot's [gen] was bumped and the record will be rewritten by
      a future acquire.  Double-done is a counted no-op.
    - The ring is the only packet allocator: every topology owns one,
      and every host, link, queue and element built on that topology
      creates and retires its packets through it.

    Past [max_slots] the ring hands out floating heap records (counted
    in [overflow]), so correctness never depends on capacity tuning.
    {!in_packet_done} on a floating packet, whether an overflow record
    or a [Packet.create] over a caller's buffer, disarms it (its frame
    becomes {!Pool.retired}) but leaves the frame to the GC rather than
    the pool: the ring cannot tell a frame it handed out from one the
    caller still holds.  Only overflow records and hand-built packets
    take that path. *)

open Mmt_util

type t

type stats = {
  capacity : int;  (** Current arena size (slots). *)
  in_use : int;  (** Live slots right now. *)
  acquired : int;  (** Total acquires (slots + overflow fallbacks). *)
  retired : int;  (** Total {!in_packet_done} retirements. *)
  double_done : int;  (** Redundant/stale retirements (no-ops). *)
  overflow : int;  (** Acquires served as floating records. *)
}

val create : ?slots:int -> ?max_slots:int -> unit -> t
(** [create ()] preallocates [slots] packet records (default 1024) and
    doubles on demand up to [max_slots] (default 65536), with a fresh
    private frame pool.
    @raise Invalid_argument if [slots < 1]. *)

val pool : t -> Pool.t
(** The embedded frame pool, for copy paths that recycle bare frames
    (element rewrites, scratch copies). *)

val in_packet :
  t -> ?padding:int -> id:int -> born:Units.Time.t -> int -> Packet.t
(** [in_packet t ~id ~born len] acquires a slot holding a pool frame of
    exactly [len] bytes.  Contents are unspecified; the caller must
    overwrite every byte. *)

val alloc :
  t -> ?padding:int -> id:int -> born:Units.Time.t -> bytes -> Packet.t
(** Like {!in_packet} but adopting a caller-built frame (which will be
    recycled into the ring's pool at retirement). *)

val clone : t -> Packet.t -> id:int -> Packet.t
(** Slot-allocated deep copy (in-network duplication): pool frame,
    contents/padding/born/corrupted/hops copied from the source. *)

val in_packet_done : t -> Packet.t -> unit
(** Retire a packet: recycle its frame into the pool and free its slot.
    Safe on floating packets (disarmed, frame not pooled) and
    idempotent — a second call on the same incarnation is a counted
    no-op. *)

val stats : t -> stats
