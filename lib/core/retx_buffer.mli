(** Retransmission buffers.

    The paper replaces TCP's retransmit-from-the-source with explicit
    on-path buffers: "a more 'recent' (lower RTT) retransmission
    buffer" (§ 1), named in the header so a receiver NAKs the nearest
    copy (§ 5.3).  A buffer stores full transport frames keyed by
    sequence number, bounded by bytes, evicting oldest-first — matching
    an FPGA ring buffer.

    Every byte count here is a wire size: a frame's materialized bytes
    plus its padding (the virtual payload of {!Mmt_sim.Packet.padding}),
    so a buffer holds as many synthetic frames as it would hold
    materialized ones.

    The buffer copies each frame's materialized bytes into memory it
    owns: chunks that grow geometrically from the first frame's size to
    1 MiB each, filled end to end, like the FPGA's one block of memory.
    A stored frame therefore costs no heap block of its own. *)

open Mmt_util

type t

type entry = {
  chunk : bytes;
      (** the buffer's memory the frame was copied into; read only
          [\[off, off + len)], and never write it *)
  off : int;
  len : int;  (** the frame's materialized length *)
  padding : int;  (** its wire padding, restored on a resend *)
  born : Units.Time.t;
      (** birth time of the original packet, preserved so a
          retransmission reports end-to-end (not resend-to-delivery)
          latency *)
}

type stats = {
  stored : int;  (** frames ever inserted *)
  evicted : int;
  hits : int;
  misses : int;
  occupancy : Units.Size.t;  (** wire bytes held *)
  entries : int;
  occupancy_high_water : Units.Size.t;
      (** most wire bytes the buffer ever held at once — the FPGA
          ring's required depth for this workload *)
  entries_high_water : int;
}

val create : capacity:Units.Size.t -> t
(** [capacity] bounds the wire bytes held. *)

val store : t -> seq:int -> born:Units.Time.t -> ?padding:int -> bytes -> unit
(** Insert (or overwrite) the frame for [seq], of wire size
    [Bytes.length frame + padding] ([padding] defaults to 0); evicts
    oldest entries until the new frame fits.  An overwrite makes [seq]
    the newest entry.  Frames larger than the whole capacity are
    rejected silently (counted as immediate eviction).  The buffer
    copies [frame]'s bytes, so the caller may reuse [frame] as soon as
    [store] returns. *)

val fetch : t -> seq:int -> entry option
(** Lookup; counts a hit or a miss. *)

val contains : t -> seq:int -> bool
(** Lookup without touching hit/miss accounting. *)

val stats : t -> stats
val capacity : t -> Units.Size.t
