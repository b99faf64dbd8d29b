(** The INT sink: strip the stack at a segment/flow boundary.

    An [Int_sink] sits where a flow leaves the telemetry domain
    (typically the destination DTN's smartNIC).  It pops the whole
    per-hop stack out of the header — restoring the packet to its
    pre-telemetry size before the endpoint sees it — and condenses the
    stack into a {!Digest.t} "postcard" handed to [emit] (the
    control-plane path toward a {!Collector}).

    Packets without the feature, and control traffic, pass untouched. *)

type stats = {
  stripped : int;  (** stacks removed and digested *)
  passed : int;  (** packets without a stack *)
}

type t

val create :
  node_id:int -> emit:(Digest.t -> unit) -> pool:Mmt_sim.Pool.t -> unit -> t
(** The stripped replacement frame is acquired from [pool] (the
    topology ring's) and the pre-strip frame released back, keeping the
    per-packet strip allocation-free. *)

val element : t -> Mmt_innet.Element.t
val program : Mmt_innet.Op.program
val stats : t -> stats
