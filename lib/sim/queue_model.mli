(** Output-port queue disciplines.

    [droptail] is the commodity default.  [deadline_aware] implements
    the paper's § 5.3 idea that explicit transport deadlines are "an
    input to active queue management": earliest-deadline-first service,
    with optional dropping of already-expired packets. *)

open Mmt_util

type t

val droptail : capacity:Units.Size.t -> unit -> t
(** FIFO bounded by queued bytes; arrivals that would overflow are
    dropped. *)

val deadline_aware :
  capacity:Units.Size.t ->
  drop_expired:bool ->
  deadline_of:(Packet.t -> Units.Time.t option) ->
  unit ->
  t
(** Earliest-deadline-first; packets without a deadline are served
    after all deadline-bearing packets, among themselves in FIFO order.
    When [drop_expired], packets whose deadline already passed are
    discarded at dequeue time instead of transmitted, and retired into
    the [ring] the dequeue is given (the queue is the last holder of an
    expired packet). *)

val enqueue : t -> now:Units.Time.t -> Packet.t -> [ `Accepted | `Dropped ]

val passes_when_empty : t -> Packet.t -> bool
(** Whether an {!enqueue} of [packet] followed immediately by a {!poll}
    would hand back exactly this packet with no other observable effect
    — an empty FIFO the packet fits into.  Lets an idle transmitter
    bypass the queue round-trip; always [false] for deadline-aware
    queues, whose poll may legitimately expire the fresh packet. *)

val poll : t -> ring:Ring.t -> now:Units.Time.t -> Packet.t
(** Allocation-free dequeue: the head packet, or {!Packet.none} when
    the queue has none.  Expired packets skipped on the way retire into
    [ring], the polling link's. *)

val length : t -> int
val queued_bytes : t -> Units.Size.t
val overflow_drops : t -> int
val expired_drops : t -> int
val describe : t -> string
