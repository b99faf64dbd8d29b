(** Chaos campaigns: N seeded plans against one target, one
    deterministic report.

    A campaign derives per-trial seeds from the campaign seed, feeds
    each through {!Generator.generate} against the target's name
    universe, executes the plan, and checks the {!Invariant} ledger
    plus the run-termination watchdog.  Trials are independent — every
    execution builds its own engine and topology — so the sweep runs
    on {!Mmt_util.Parallel.init} with each result stored at its trial's
    index: the rendered report is byte-identical at any [jobs] count.

    Targets are closure bundles supplied by the scenario layers (the
    pilot's {!Mmt_pilot.Chaos_run.campaign_target}, the facility's
    harness): this library sits below both and never names them. *)

type exec = {
  outcome : Invariant.outcome;
  violations : string list;  (** empty iff every invariant held *)
  faults_applied : int;
  events : int;  (** engine events the trial processed *)
}

type target = {
  name : string;  (** report label, e.g. ["pilot"] *)
  universe : Generator.universe;
  execute : Generator.profile -> Plan.t -> exec;
      (** run one trial; must be deterministic and must not share
          mutable state across calls (trials may run on sibling
          domains) *)
}

type trial = {
  index : int;
  seed : int64;  (** replayable: regenerates the plan *)
  profile : Generator.profile;
  plan : Plan.t;
  exec : exec;
}

type report = {
  target : string;
  trials : int;
  campaign_seed : int64;
  generator : Generator.config;
  results : trial array;  (** indexed by trial, independent of jobs *)
}

val trial_seeds : seed:int64 -> trials:int -> int64 array
(** The per-trial seed schedule — drawn up front from one splitmix
    stream, so trial [i]'s seed is independent of execution order. *)

val run :
  ?jobs:int ->
  ?config:Generator.config ->
  target ->
  trials:int ->
  seed:int64 ->
  report
(** Execute the campaign on up to [jobs] domains (default 1, on the
    calling domain; [0] asks for the machine's recommended count).
    @raise Invalid_argument if [trials < 1]. *)

val violating : report -> trial list
(** Trials with at least one violation, in trial order. *)

val all_ok : report -> bool

val render : ?verbose:bool -> report -> string
(** The campaign report: verdict counts, profile and fault-mix
    histograms, violation taxonomy, and full detail (seed, plan,
    {!Invariant.to_string}) for every violating trial.  [verbose]
    additionally lists every trial's one-line summary.  Byte-stable:
    depends only on the report value. *)
