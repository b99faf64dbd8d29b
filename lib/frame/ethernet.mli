(** Ethernet II framing.

    The multi-modal transport can run directly over layer 2 inside the
    DAQ network (Req 1); {!ethertype_mmt} is the experimental ethertype
    it uses there. *)

type t = {
  dst : Addr.Mac.t;
  src : Addr.Mac.t;
  ethertype : int; (* 16-bit *)
}

val header_size : int
(** 14 bytes (no VLAN tag, no FCS — the simulator models corruption
    separately). *)

val ethertype_ipv4 : int
val ethertype_mmt : int
(** 0x88B5: IEEE 802 local experimental ethertype 1, used for the
    multi-modal transport directly over Ethernet. *)

val write : Mmt_wire.Cursor.Writer.t -> t -> unit

val write_at :
  bytes -> off:int -> dst:Addr.Mac.t -> src:Addr.Mac.t -> ethertype:int -> unit
(** {!write} straight into [header_size] bytes at [off], building no
    record and no cursor.
    @raise Invalid_argument when the bytes are not there. *)

val read : Mmt_wire.Cursor.Reader.t -> t
(** @raise Mmt_wire.Cursor.Out_of_bounds on truncated input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
