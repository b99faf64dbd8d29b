(** Invariant checking for sequenced streams under faults.

    Whatever the fault plan does, three properties must survive:

    - every sequenced frame ends in exactly one terminal state —
      delivered, lost after exhausted retries, or abandoned as
      unrecoverable;
    - no frame is delivered to the application twice;
    - the run terminates.

    A {!ledger} wraps the application's deliver callback and tracks
    per-sequence delivery counts; {!check} reconciles it with the
    emission and abandonment counters at the end of the run and
    returns the list of violated invariants (empty = all hold). *)

type ledger

val ledger : unit -> ledger

val delivered : ledger -> seq:int -> unit
(** Record one application delivery of sequence [seq]. *)

type outcome = {
  emitted : int;  (** sequence numbers assigned by the rewriter *)
  delivered : int;  (** unique sequences the application received *)
  duplicates : int;  (** repeat deliveries (any is a violation) *)
  abandoned : int;  (** receiver gave up: lost + unrecoverable *)
  resurrected : int;
      (** abandoned frames a straggler retransmission delivered anyway *)
  pending : int;  (** still unresolved at end of run (violation) *)
  terminated : bool;
}

val outcome :
  emitted:int ->
  abandoned:int ->
  resurrected:int ->
  pending:int ->
  terminated:bool ->
  ledger ->
  outcome

val to_string : outcome -> string
(** Stable one-line machine-readable summary:
    ["emitted=N delivered=N duplicates=N abandoned=N resurrected=N
    pending=N terminated=B"].  The chaos CLI and the campaign report
    share this formatter — the rendering is part of the deterministic
    report surface, so its shape must never depend on the run. *)

val to_json : outcome -> string
(** The same summary as a single-line JSON object. *)

val check : outcome -> string list
(** Violated invariants, human-readable; empty when all hold. *)
