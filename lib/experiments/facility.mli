(** E-F5: the facility-scale fan-in flow-count sweep.

    Sweeps the {!Mmt_facility.Scenario} generator from 10 to ~1000
    elephant flows over one shared WAN bottleneck and reports aggregate
    goodput, Jain fairness, deadline hit-rate, and transport soft-state
    high-water marks per point. *)

val log_points : lo:int -> hi:int -> int list
(** The 1-3-10 log series clipped to [[lo, hi]], e.g. 10, 30, 100,
    300, 1000 for [lo = 10], [hi = 1000]; empty when no point falls in
    the range. *)

val report :
  ?jobs:int ->
  ?base:Mmt_facility.Scenario.config ->
  ?points:int list ->
  unit ->
  string * bool
(** Run one scenario per point ([base] with [flows] overridden) and
    render the sweep plus the shape checks.  The points run through
    {!Mmt_util.Parallel.init} on up to [jobs] domains (default 1; [0]
    asks for the machine's recommended count); the output is
    byte-identical at any [jobs].  The determinism check re-runs the
    first point.  With a single point the fan-in scaling row is
    reported as info, since there is nothing to compare.
    @raise Invalid_argument if [points] is empty. *)

val run : unit -> string * bool
(** The registry entry: [report] with the default configuration. *)
