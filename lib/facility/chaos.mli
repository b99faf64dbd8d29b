(** The facility fan-in scenario as a chaos-campaign target.

    Wraps a scaled-down {!Scenario} (36 flows over 3 sites and 3 sinks,
    an 8 ms emission window, a 4 ms WAN RTT, random WAN loss off) for
    {!Mmt_fault.Campaign.run}: every generated plan is armed through a
    {!Mmt_fault.Injector} against the scenario's resolved link names,
    a watchdog of 50M engine events marks a livelocked run
    non-terminated, and the aggregated
    per-flow receiver/rewriter statistics are reconciled against one
    facility-wide {!Mmt_fault.Invariant} ledger (keyed by flow id and
    per-flow sequence number).

    Facility receivers track no delivery totals, so gap detection
    needs a sequenced arrival {e behind} every fault: the universe
    horizon closes all faults by 0.7 of the emission window, and one
    tail-probe frame per flow is pushed through the scenario's senders
    1 ms after emission ends — a guaranteed last sequenced arrival even
    for Poisson burst flows that went quiet early. *)

val universe : Mmt_fault.Generator.universe
(** The facility's resolved name universe: flaps and brown-outs on the
    post-sequencing data and NAK paths, WAN and metro partitions.  No
    corruption (the facility path is unchecksummed, so flips would be
    silent), no element or control subjects — which pins generated
    plans to the lossy profile. *)

type outcome = {
  emitted : int;  (** sequence numbers assigned, summed over flows *)
  delivered : int;
  faults_applied : int;
  events : int;
  invariant : Mmt_fault.Invariant.outcome;
  violations : string list;  (** empty iff every invariant held *)
}

val run : Mmt_fault.Plan.t -> outcome
(** Execute one plan against a fresh sequential build of the scenario.
    Deterministic: equal plans give equal outcomes. *)

val campaign_target : unit -> Mmt_fault.Campaign.target
