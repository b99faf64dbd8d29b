(** Link-layer and network-layer addresses. *)

module Mac : sig
  type t
  (** A 48-bit Ethernet address. *)

  val broadcast : t
  val of_int64 : int64 -> t
  (** Low 48 bits are used. *)

  val to_int64 : t -> int64
  val of_string : string -> t
  (** Parse "aa:bb:cc:dd:ee:ff".  @raise Invalid_argument on bad
      syntax. *)

  val to_string : t -> string
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val is_broadcast : t -> bool
end

module Ip : sig
  type t
  (** An IPv4 address. *)

  val any : t
  (** 0.0.0.0 — used as "no address" in optional header fields. *)

  val of_int32 : int32 -> t
  val to_int32 : t -> int32
  val to_int : t -> int
  (** The address as an unsigned int: [a.b.c.d] is
      [a lsl 24 lor b lsl 16 lor c lsl 8 lor d]. *)

  val of_octets : int -> int -> int -> int -> t
  val of_string : string -> t
  (** Parse dotted quad.  @raise Invalid_argument on bad syntax. *)

  val to_string : t -> string
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val is_any : t -> bool
end
