(** Bounds-checked big-endian cursors over [bytes].

    All protocol headers (Ethernet, IPv4, UDP and the multi-modal
    transport header) serialize and parse through these cursors, so
    every field access is network byte order and bounds-checked in one
    place. *)

exception Out_of_bounds of string
(** Raised on any read or write past the cursor's window. *)

module Reader : sig
  type t

  val of_bytes : ?off:int -> ?len:int -> ?tail:int -> bytes -> t
  (** View over [bytes.(off .. off+len-1)]; defaults to the whole
      buffer.  [tail] (default 0) adds that many {e virtual} bytes after
      the window: bytes a frame carries on the wire as padding but never
      materializes.  They count in {!remaining}, so a length field that
      covers them checks out, but no read reaches them: every read is
      bounded by the real bytes and raises {!Out_of_bounds} past them.
      @raise Invalid_argument on a bad window or a negative tail. *)

  val remaining : t -> int
  (** Bytes left to the end of the window, plus the tail. *)

  val position : t -> int
  (** Offset consumed so far, relative to the window start. *)

  val u8 : t -> int
  val u16 : t -> int
  val u24 : t -> int
  val u32 : t -> int32
  val u32_int : t -> int
  (** [u32] as a non-negative [int] (always fits on 64-bit OCaml). *)

  val u64 : t -> int64
  val take : t -> int -> bytes
  (** Copy out the next [n] bytes.  They must all be real: on a reader
      with a tail, [take] raises {!Out_of_bounds} when [n] reaches into
      it. *)

  val skip : t -> int -> unit
  (** Move past the next [n] real bytes; bounded like a read. *)

  val rest : t -> bytes
  (** Copy out the real bytes remaining.  Without a tail that is
      everything remaining; on a tail reader the result leaves the tail
      out (its bytes do not exist), so it is [tail] bytes shorter than
      {!remaining}. *)
end

module Writer : sig
  type t

  val create : int -> t
  (** Fixed-capacity writer; writes beyond capacity raise
      {!Out_of_bounds} rather than grow, because on-wire headers have
      known sizes. *)

  val over : ?off:int -> bytes -> t
  (** Writer positioned at offset [off] (default 0) of a caller-owned
      buffer (e.g. a pool frame), so headers and payloads can be
      serialized in place without allocating.  Writes may run to the
      buffer's end; {!contents} still copies.
      @raise Invalid_argument when [off] is outside the buffer. *)

  val length : t -> int
  (** Bytes written so far, counted from the writer's start offset. *)

  val u8 : t -> int -> unit
  (** Low 8 bits of the argument. *)

  val u16 : t -> int -> unit
  val u24 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u32_int : t -> int -> unit
  val u64 : t -> int64 -> unit
  val bytes : t -> bytes -> unit
  val contents : t -> bytes
  (** Copy of the written prefix. *)

  val writes_exactly : t -> int -> (t -> unit) -> bool
  (** [writes_exactly w n write] runs [write w] and tells whether it
      wrote exactly [n] bytes; running out of room counts as [false]. *)
end

val checksum : bytes -> off:int -> len:int -> int
(** RFC 1071 Internet checksum of the given window (16-bit one's
    complement of the one's-complement sum). *)
