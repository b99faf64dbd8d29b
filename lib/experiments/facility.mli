(** E-F5: the facility-scale fan-in flow-count sweep.

    Sweeps the {!Mmt_facility.Scenario} generator from 10 to ~1000
    elephant flows over one shared WAN bottleneck and reports aggregate
    goodput, Jain fairness, deadline hit-rate, and transport soft-state
    high-water marks per point. *)

val report :
  ?jobs:int ->
  ?base:Mmt_facility.Scenario.config ->
  ?points:int list ->
  unit ->
  string * bool
(** Render the sweep (optionally across domains — [jobs] parallelizes
    over sweep points; output is byte-identical to the sequential run)
    plus the shape checks.  The determinism check re-runs the first
    point.  With a
    single point the fan-in scaling row is reported as info, since
    there is nothing to compare. *)

val run : unit -> string * bool
(** The registry entry: [report] with the default configuration. *)
