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
(** Live (uncancelled) events still queued.  O(1). *)

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
