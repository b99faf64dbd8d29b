(** The five-node fault harness: buffer discovery and failover
    (§ 6 challenge 1) under a declarative fault plan.

    A five-node path (source → ingress → buffer A → buffer B → sink)
    with a checksumming ingress rewriter, in-network checksum
    verification ahead of both retransmission-buffer snoops, a
    soft-state control plane, and a {!Mmt_fault.Injector} armed with
    an arbitrary {!Mmt_fault.Plan}.  Both buffers snoop passing
    sequenced frames and advertise themselves to the ingress; the
    planner points the rewriter's reliability at the nearest live
    buffer.

    The planner runs every advert period, and also the moment the
    rewriter's liveness oracle finds the named buffer lapsed (failed,
    its soft state expired).  Frames therefore degrade to unsequenced
    only while no buffer is live, never in the gap between an expiry
    and the next periodic replan.

    Every run is checked against the delivery invariants
    ({!Mmt_fault.Invariant}): each sequenced frame ends in exactly one
    of delivered / lost / abandoned, nothing is delivered to the
    application twice, and the run terminates.  E-X1, E-R1 and the
    pilot campaign all run here. *)

open Mmt_util

type defect = No_defect | Broken_restart

type params = {
  fragment_count : int;
  fragment_size : Units.Size.t;  (** 4 096 B *)
  loss : float;  (** random drop on the buffer-b → sink link *)
  advert_period : Units.Time.t;
  run_until : Units.Time.t;
  seed : int64;  (** workload / loss RNG seed *)
  track_total : bool;
      (** give the receiver [expected_total] for tail-loss detection;
          turn off for plans that degrade frames to unsequenced, where
          the sequenced stream is legitimately shorter than the
          fragment count *)
  defect : defect;
      (** [Broken_restart] plants a test-only bug — buffer A's restart
          handler replays sequence 0 into the application — so shrink
          tests have a scenario that genuinely violates *)
  plan : Mmt_fault.Plan.t;
}

val params :
  ?fragment_count:int ->
  ?loss:float ->
  ?advert_period:Units.Time.t ->
  ?run_until:Units.Time.t ->
  ?seed:int64 ->
  ?track_total:bool ->
  ?defect:defect ->
  ?plan:Mmt_fault.Plan.t ->
  unit ->
  params

type pass_counts = {
  switch : string;  (** "ingress", "buffer-a" or "buffer-b" *)
  processed : int;  (** packets the switch's pipeline took in *)
  parses : int;  (** {!Mmt_innet.Switch.parses} *)
  refreshes : int;  (** {!Mmt_innet.Switch.refreshes} *)
}
(** How often a switch parsed headers over the run. *)

type outcome = {
  emitted : int;  (** sequence numbers assigned by the ingress rewriter *)
  delivered : int;
  degraded_delivered : int;  (** delivered unsequenced (degraded mode) *)
  recovered : int;
  lost : int;
  unrecoverable : int;
  resurrected : int;
  duplicates : int;
  checksum_failed_rx : int;  (** receiver-side checksum discards *)
  verify_failed_innet : int;  (** in-network verify-element discards *)
  tampered : int;  (** frames the injector bit-flipped on the wire *)
  fault_drops : int;  (** frames destroyed by downed links *)
  degraded_rewrites : int;
  mode_changes : int;  (** replans that re-targeted the buffer *)
  final_buffer : string;  (** "A", "B", "none" *)
  naks_served_by_a : int;
  naks_served_by_b : int;
  goodput : Units.Rate.t;
  completion : Units.Time.t option;
  faults_applied : int;
  fault_log : (Units.Time.t * string) list;
  events : int;  (** engine events processed *)
  invariant : Mmt_fault.Invariant.outcome;
  violations : string list;  (** empty iff all invariants held *)
  receiver : Mmt.Receiver.stats;
  passes : pass_counts list;  (** the three switches, in path order *)
  compiled_transitions : int;  (** {!Mmt_innet.Mode_rewriter.compiled} *)
}

val run : params -> outcome
(** Execute the plan.  Every host, switch and link creates and retires
    its packets through the topology's ring.  The injector's bit flips
    draw from one fixed seed, and a watchdog caps the run at 20M engine
    events, orders of magnitude above any honest trial: exhausting it
    marks the run non-terminated instead of spinning on an event
    livelock. *)

val failover_trial :
  ?fragment_count:int -> ?fail_at:Units.Time.t -> unit -> params
(** E-X1's parameters: 12 000 fragments (default) over a 0.5 % lossy
    last hop, seed 31.  [fail_at] installs a one-event plan that fails
    buffer A at that time; without it the plan is empty. *)

(** {2 Campaign wiring}

    The pilot as a {!Mmt_fault.Campaign} fuzzing target.  Campaign
    trials use smaller parameter bases than E-R1 (1500 fragments, 1 s
    cap) so thousands stay cheap; the lossy profile keeps tracked
    totals and the default loss, the degrading profile switches loss
    off, stops tracking totals and advertises every 400 µs so soft
    state can expire inside the fault horizon. *)

val campaign_trial : ?fragment_count:int -> unit -> params
(** Lossy-profile base parameters (no plan installed yet). *)

val campaign_trial_degrading : ?fragment_count:int -> unit -> params
(** Degrading-profile base parameters. *)

val emission_span : params -> Units.Time.t
(** Length of the workload's emission window under [params] — the
    quantity campaign horizons are derived from. *)

val campaign_universe : params -> Mmt_fault.Generator.universe
(** The pilot topology's resolved name universe: flap/degrade/
    partition/corruption pools on the post-sequencing path, buffer
    fail/restart subjects, and the emission-reducing names (source
    link, ingress rewriter, advert control) gated degrading-only. *)

val campaign_target :
  ?fragment_count:int -> ?defect:defect -> unit -> Mmt_fault.Campaign.target
(** The pilot target: executes each generated plan against the profile-
    matched parameter base.  [defect] plants {!Broken_restart} into
    both bases (shrink tests only). *)
