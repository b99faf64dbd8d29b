(** Deterministic discrete-event simulation engine.

    Events are closures keyed by (time, sequence): two events scheduled
    for the same instant fire in the order they were scheduled, so runs
    are exactly reproducible.  Time is {!Mmt_util.Units.Time} (unboxed integer
    nanoseconds).

    The queue is a structure-of-arrays binary heap: timestamps and
    sequence numbers live in parallel [int] arrays, callbacks in one
    closure array, and handles are packed slot+generation ints — so
    {!schedule} performs no heap allocation beyond the caller's
    callback closure. *)

open Mmt_util

type t

type handle = private int
(** Cancellation token for a scheduled event: an immediate
    slot+generation int.  Stale handles (events that already ran or
    were cancelled) are recognized by their generation and ignored. *)

val null : handle
(** A handle that never matches any event; {!cancel} ignores it.  Use
    as the initial value of a timer field instead of wrapping handles
    in [option] (which would box them). *)

val create : unit -> t
(** A fresh engine at time zero with an empty event queue. *)

val now : t -> Units.Time.t

val schedule : t -> at:Units.Time.t -> (unit -> unit) -> handle
(** [schedule t ~at fn] runs [fn] when the clock reaches [at].
    Scheduling in the past (before [now t]) runs at the current time
    instead — a common idiom for "immediately, but after the current
    event finishes". *)

val schedule_after : t -> delay:Units.Time.t -> (unit -> unit) -> handle

val cancel : t -> handle -> unit
(** [cancel t h] — [h] must come from this engine.  Cancelled events
    are skipped; cancelling twice is harmless, as is cancelling an
    event that has already run (the handle's generation went stale).
    When cancelled entries outnumber live ones the queue is compacted,
    so cancel-heavy workloads (timeouts, retransmit timers) stay
    bounded. *)

val pending : t -> int
(** Live (uncancelled) entries in the event heap.  O(1).  A non-empty
    {!Line} counts once, however many items it holds. *)

val processed : t -> int
(** Events executed so far. *)

val last_event_at : t -> Units.Time.t
(** Timestamp of the most recently executed event (zero before any
    event has run).  Unlike {!now}, this is never advanced by
    [run ~until]'s clock clamp, so it marks when the simulated work
    actually ended. *)

val run : ?until:Units.Time.t -> t -> unit
(** Execute events in order until the queue empties, or until the next
    event lies strictly beyond [until] (clock then advances to [until]).
    Re-entrant scheduling from inside events is the normal mode of
    operation. *)

val step : t -> bool
(** Execute exactly one event; [false] when the queue is empty. *)

val run_bounded : t -> until:Units.Time.t -> budget:int -> bool
(** [run ~until] with a watchdog: execute at most [budget] events, in
    exactly the order [run ~until] would (a budget that never trips is
    byte-identical, clock clamp included).  Returns [true] when the
    run terminated — the queue emptied or the next live event lies
    beyond [until] — and [false] when the budget expired with live
    work still inside the window, which is how a chaos campaign
    detects an event livelock that a pure time cap would spin on
    forever.  On [false] the clock is left where the budget ran out. *)

(** {2 Delay lines} *)

(** A constant-delay FIFO that keeps only its head in the event heap.

    Links (propagation), switch pipelines and host hand-offs delay
    every item by the same constant.  Scheduling one event per item
    would hold one heap entry per item in flight; a line holds one
    entry while it is non-empty, so the heap stays as deep as the
    number of busy lines.

    Output is identical by construction.  {!push} stores beside the
    item the key [schedule_after ~delay] would have drawn at that
    instant: the arrival time [now + delay] and the next value of the
    engine's one sequence counter.  The delay is constant and the
    clock never goes back, so keys within a line increase, and the
    least key in the heap is the least key overall.  Items therefore
    arrive in exactly the order, and at exactly the count of
    {!processed}, that one event per item would give. *)
module Line : sig
  type engine := t
  type 'a t

  val create :
    engine -> delay:Units.Time.t -> filler:'a -> ('a -> unit) -> 'a t
  (** [create engine ~delay ~filler deliver] is an empty line whose
      items reach [deliver] [delay] after their {!push}.  [filler]
      occupies empty slots (as {!Packet.none} does in {!Packet.Fifo}),
      so a delivered item is not kept alive by the line.
      @raise Invalid_argument if [delay] is negative. *)

  val push : 'a t -> 'a -> unit
  (** Deliver the item at [now + delay], keyed as if
      [schedule_after ~delay] were called now.  Allocation-free once
      the line has grown to its high-water mark. *)
end
