(** Size-classed frame pool.

    Simulation workloads allocate millions of short-lived frames
    ([bytes]) that die at well-known points: the retirement points of
    the packet {!Ring} (loss, queue, expiry and fault drops inside
    {!Link}, consumed deliveries), and the frames replaced by element
    rewrites and scratch copies.  Recycling them through a pool keeps
    the per-packet hot path off the minor heap.

    Classes are keyed by exact frame length ([bytes] cannot be
    resized), each class a bounded stack, so [acquire]/[release] are
    O(1) and perform no allocation once a class is warm.

    Each {!Ring} embeds one pool ({!Ring.pool}); that is the pool every
    element and host on a topology uses.  {!release_packet} is the
    generation-stamped safe path: it retires the packet's frame (the
    packet is left holding the shared zero-length {!retired} sentinel
    and its [gen] is bumped), so releasing twice is a no-op and a
    recycled buffer can never be reached through the dead packet. *)

type t

type stats = {
  acquired : int;  (** Total [acquire] calls. *)
  recycled : int;  (** Acquires served from the pool (no allocation). *)
  released : int;  (** Frames accepted back into the pool. *)
  dropped : int;  (** Releases discarded because the class was full. *)
  pooled_bytes : int;  (** Bytes currently held, summed over classes. *)
}

val create : ?max_per_class:int -> unit -> t
(** [max_per_class] bounds each size class (default 256 frames), so a
    burst of one frame size cannot pin unbounded memory. *)

val retired : bytes
(** The shared zero-length sentinel installed into packets whose frame
    was released.  Touching it instead of real payload makes
    use-after-release loud (length 0) rather than silently corrupt. *)

val acquire : t -> int -> bytes
(** [acquire t len] returns a frame of exactly [len] bytes — recycled
    when the class has one, freshly allocated otherwise.  Contents are
    unspecified (matching [Bytes.create]); the caller overwrites. *)

val release : t -> bytes -> unit
(** Return a frame to its size class.  Only for buffers the caller
    exclusively owns (e.g. scratch copies); frames still referenced by
    a live {!Packet.t} must go through {!release_packet}. *)

val release_packet : t -> Packet.t -> unit
(** Retire [packet]'s frame into the pool: the frame is swapped for
    {!retired} and the packet's generation is bumped first, so a second
    call (or a stale alias) cannot hand the same buffer out twice. *)

val stats : t -> stats
