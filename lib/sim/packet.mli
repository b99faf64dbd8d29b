(** Simulated packets.

    A packet carries its real on-wire frame as [bytes] (the header
    stack that in-network elements parse and rewrite) plus an optional
    [padding] byte count so that jumbo-frame payloads can be modelled
    without materializing them: the wire size used for serialization
    delay is [Bytes.length frame + padding]. *)

open Mmt_util

type t = {
  mutable id : int;
  mutable frame : bytes;
  mutable padding : int;
  mutable born : Units.Time.t;
  mutable corrupted : bool;
  mutable hops : int;
  mutable gen : int;
      (** Frame generation, bumped by {!Pool.release_packet} when the
          frame is recycled.  A holder that recorded [gen] at hand-off
          can detect that the frame under it was retired. *)
  mutable slot : int;
      (** Ring-slot index when the record is a {!Ring} arena slot,
          [-1] for a floating (heap-allocated) packet.  Only {!Ring}
          writes this field. *)
}

val create :
  ?padding:int -> id:int -> born:Units.Time.t -> bytes -> t
(** @raise Invalid_argument if [padding < 0]. *)

val none : t
(** The inert sentinel: fills empty packet slots and stands for "no
    packet" where an [option] would box.  Compare physically ([==]).
    Its frame is empty, so retiring it is a no-op. *)

(** Growable circular packet FIFO; steady-state push/pop allocate
    nothing. *)
module Fifo : sig
  type packet := t
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> packet -> unit

  val pop : t -> packet
  (** The oldest packet, or {!none} when the FIFO is empty. *)
end

val wire_size : t -> Units.Size.t
val frame : t -> bytes
val set_frame : t -> bytes -> unit
(** Replace the frame (used when a mode change grows or shrinks the
    header stack).  Padding is preserved. *)

val copy : t -> id:int -> t
(** Deep copy with a new identity (in-network duplication).  The copy
    is always floating ([slot = -1]). *)

val pp : Format.formatter -> t -> unit
