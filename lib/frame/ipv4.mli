(** IPv4 header (no options, no fragmentation).

    DAQ networks configure MTUs to remove fragmentation (§ 2.1 of the
    paper), so the codec rejects fragmented datagrams rather than
    reassemble. *)

type t = {
  dscp : int; (* 6-bit differentiated services code point *)
  ttl : int;
  protocol : int;
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  payload_length : int; (* bytes after this header *)
}

val header_size : int
(** 20 bytes. *)

val protocol_udp : int
val protocol_mmt : int
(** 0xFD: IANA "use for experimentation and testing" protocol number,
    carrying the multi-modal transport over IP (Req 1). *)

val write : Mmt_wire.Cursor.Writer.t -> t -> unit
(** Computes and embeds the header checksum. *)

val write_at :
  bytes ->
  off:int ->
  dscp:int ->
  ttl:int ->
  protocol:int ->
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  payload_length:int ->
  unit
(** {!write} straight into [header_size] bytes at [off], building no
    record and no cursor.
    @raise Invalid_argument when the bytes are not there. *)

val read : Mmt_wire.Cursor.Reader.t -> t
(** @raise Failure on bad version, bad checksum, options present or a
    fragmented datagram.
    @raise Mmt_wire.Cursor.Out_of_bounds on truncated input. *)

val header_error : bytes -> off:int -> string option
(** The {!read} check of the [header_size] bytes at [off], in place and
    without allocating: [Some] the message {!read} would fail with
    (checksum, version, options, fragmentation), or [None].  The caller
    checks that the bytes are there. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
