(** Arms a {!Plan} against a live simulated topology.

    The injector resolves link names against the topology, dispatches
    element fail/restart and control-plane blackhole actions to
    handlers the scenario registers, and schedules every plan event on
    the engine.  Header corruption draws from one dedicated splitmix
    stream owned by the injector, so identical (plan, seed) pairs
    flip identical bits and the scenario's own random streams are
    never perturbed — determinism by construction.

    Fault applications are counted, kept in an in-order log, and
    mirrored into the run's {!Mmt_sim.Trace} when one is attached. *)

open Mmt_util

type t

val create :
  ?trace:Mmt_sim.Trace.t ->
  ?seed:int64 ->
  engine:Mmt_sim.Engine.t ->
  links:Mmt_sim.Link.t list ->
  unit ->
  t

val of_topology : ?trace:Mmt_sim.Trace.t -> ?seed:int64 -> Mmt_sim.Topology.t -> t
(** Convenience: take engine and links straight from a topology
    (its trace, if any, must still be passed explicitly). *)

val register_element :
  t -> string -> fail:(unit -> unit) -> restart:(unit -> unit) -> unit
(** Define what fail-stop and restart-with-state-loss mean for a named
    element; {!Plan.Fail_element} / {!Plan.Restart_element} dispatch
    here. *)

val register_control : t -> string -> (bool -> unit) -> unit
(** Register a control-plane blackhole switch for
    {!Plan.Blackhole_adverts} / {!Plan.Unblackhole_adverts}. *)

val arm : t -> Plan.t -> unit
(** Schedule every event of the plan.  Validates all referenced link,
    element and control names first.
    @raise Invalid_argument on an unknown name. *)

val applied : t -> int
(** Fault events applied so far. *)

val log : t -> (Units.Time.t * string) list
(** Applied faults, oldest first. *)
