(** Encapsulation of the multi-modal transport (Req 1).

    The protocol "works both directly on Ethernet and on IP" (§ 5.3):
    inside a DAQ network frames may be raw transport datagrams or ride
    an Ethernet frame with {!Mmt_frame.Ethernet.ethertype_mmt}; across
    a WAN they ride IPv4 with {!Mmt_frame.Ipv4.protocol_mmt}.

    In-network elements use {!locate} to find the transport header
    inside an arbitrary frame without decapsulating — exactly what a P4
    parser does.

    Disambiguation rule for bare frames: the first byte of a raw
    transport frame is the configuration identifier (1); an IPv4 header
    starts 0x45; anything else is treated as Ethernet.  The simulator
    never uses multicast source/destination MACs whose first octet
    collides with these values. *)

open Mmt_frame

type t =
  | Raw  (** transport header first — straight off a sensor *)
  | Over_ethernet of { src : Addr.Mac.t; dst : Addr.Mac.t }
  | Over_ipv4 of { src : Addr.Ip.t; dst : Addr.Ip.t; dscp : int; ttl : int }

val wrap : t -> bytes -> bytes
(** Prepend the encapsulation headers to an MMT frame
    (header ++ payload). *)

val overhead : t -> int
(** Byte length of the encapsulation prefix {!wrap} prepends. *)

val wrap_into : t -> mmt_length:int -> bytes -> unit
(** Serialize the encapsulation header for an [mmt_length]-byte
    transport frame at offset 0 of a caller-owned buffer (at least
    [overhead t] long).  The caller blits the transport frame at
    [overhead t]; together with a pool buffer this is the
    allocation-free counterpart of {!wrap}.  [mmt_length] is the
    transport frame's wire length: for a padded packet it counts the
    padding, which the buffer does not hold. *)

val packet :
  Mmt_runtime.Env.t ->
  ?padding:int ->
  t ->
  Header.t ->
  length:int ->
  (Mmt_wire.Cursor.Writer.t -> unit) ->
  Mmt_sim.Packet.t
(** [packet env encap header ~length write] is the one frame builder
    for packets a host originates: it takes a frame of the final length
    from [env]'s ring pool, writes the encapsulation and the encoded
    header into it, then hands [write] a writer positioned at the
    payload, which must write exactly [length] bytes.  Each byte of the
    frame is written once: a fragment is written by its codec straight
    from the caller's data, and a payload already in a buffer is copied
    in with [Cursor.Writer.bytes].  The packet has a fresh identity and
    is born now.  [padding] (default 0) is the packet's wire padding:
    payload bytes that follow the [length] written ones on the wire
    but are not materialized.  The encapsulation header states the wire
    length, so an IPv4 total length counts the padding.
    @raise Invalid_argument when [write] writes fewer or more than
    [length] bytes; the ring slot is retired first, so a recycled frame
    never carries bytes nobody wrote. *)

val packet_of_template :
  Mmt_runtime.Env.t ->
  ?padding:int ->
  t ->
  Header.Template.t ->
  deadline:Mmt_util.Units.Time.t ->
  length:int ->
  (Mmt_wire.Cursor.Writer.t -> unit) ->
  Mmt_sim.Packet.t
(** {!packet} with a compiled header: [Header.Template.write] at the
    header's place, its deadline (when it carries one) set to
    [deadline].  A host that sends many messages with one header shape
    compiles it once instead of building and encoding a {!Header.t}
    per message. *)

val locate : bytes -> (t * int, string) result
(** [locate frame] identifies the encapsulation and returns the byte
    offset of the transport header. *)

val parse : bytes -> (Header.t * Mmt_wire.Cursor.Reader.t, string) result
(** [parse frame] is the receive-side twin of {!packet}: it locates the
    transport header, decodes it in place and returns a reader over the
    payload that follows.  The reader is a view of [frame], not a copy:
    consumers parse it directly (e.g. [Fragment.read]) or copy a small
    control payload out with [Reader.rest]. *)

val rewrap : old_frame:bytes -> mmt_offset:int -> bytes -> bytes
(** [rewrap ~old_frame ~mmt_offset new_mmt] keeps the encapsulation
    bytes of [old_frame] (fixing the IPv4 length/checksum when present)
    and replaces everything from [mmt_offset] with [new_mmt] — how an
    element swaps a grown or shrunk transport header without touching
    the outer routing. *)

val rewrap_into :
  old_frame:bytes -> mmt_offset:int -> mmt_length:int -> bytes -> unit
(** Allocation-free counterpart of {!rewrap}: copy [old_frame]'s
    encapsulation prefix into a caller-owned buffer and apply the IPv4
    length/checksum fix for an [mmt_length]-byte transport frame.  The
    caller blits the replacement transport frame at [mmt_offset]
    (before or after — the fix touches only the prefix).  As with
    {!wrap_into}, [mmt_length] is the wire length, padding included. *)

val describe : t -> string
