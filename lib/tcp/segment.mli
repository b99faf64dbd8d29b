(** Baseline TCP segment codec.

    A compact TCP-like header for the baseline transport — not
    bit-compatible with RFC 793 (64-bit sequence space avoids wrap
    handling; no options), but carrying exactly the machinery the
    baseline models: cumulative ACKs, flags, and a receive window.
    The first byte is 0x54 ('T'), distinguishing baseline frames from
    multi-modal transport (0x01), IPv4 (0x45) and Ethernet frames.

    The codec works in place at fixed offsets: {!write} fills a frame's
    header, {!check} validates a frame, and the accessors read single
    fields from a checked frame.  {!encode} and {!decode} are thin
    wrappers over them for callers that want a record. *)

type flags = { syn : bool; ack : bool; fin : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** first payload byte's offset in the stream *)
  ack : int;  (** next expected byte (valid when [flags.ack]) *)
  window : int;  (** receive window, bytes *)
  flags : flags;
  payload : bytes;
}

val header_size : int
(** 28 bytes. *)

val ack_only : flags
(** The flags of every baseline data segment and pure ACK. *)

(** {2 In place} *)

val write :
  bytes ->
  flags:flags ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  window:int ->
  length:int ->
  unit
(** [write frame ...] writes a header announcing [length] payload
    bytes into the first {!header_size} bytes of [frame].  The payload,
    if any, is the caller's to write at offset {!header_size}.  Ports
    and [length] keep their low 16 bits and [window] its low 32; [seq]
    and [ack] go on the wire as 64-bit two's complement, so any [int]
    reads back unchanged.
    @raise Invalid_argument if [frame] is shorter than a header. *)

val check : bytes -> (unit, string) result
(** [Ok ()] when [frame] holds a segment: it is at least a header
    long, starts with the magic byte, and the announced payload lies
    within it.  Accepts exactly the frames {!decode} accepts, and
    allocates nothing. *)

(** Accessors for a frame {!check} accepted. *)

val flags : bytes -> flags
(** Allocation-free: the record is shared. *)

val src_port : bytes -> int
val dst_port : bytes -> int
val seq : bytes -> int
val ack : bytes -> int
val window : bytes -> int
val payload_length : bytes -> int

(** {2 Records} *)

val data : src_port:int -> dst_port:int -> seq:int -> ack:int -> window:int -> bytes -> t
val pure_ack : src_port:int -> dst_port:int -> ack:int -> window:int -> t

val encode : t -> bytes
(** {!write} into a fresh frame, then the payload. *)

val decode : bytes -> (t, string) result
(** {!check}, then the accessors; the payload is copied out. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
