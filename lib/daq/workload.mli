(** DAQ workload generation.

    Produces the paper's traffic profile (§ 2.1): elephant flows of
    fixed-size, timestamped fragments at a known, capacity-planned rate
    — "traffic consists of elephant flows with a regular shape (size
    and arrival rate)".  Profiles cover steady streaming (telescope
    capture), periodic trigger windows (accelerator-driven
    experiments), Poisson physics events, and a supernova burst
    (sudden sustained multiplier — DUNE's integration driver, Req 10).

    Rates from Table 1 are scaled by [scale] to simulator-feasible
    magnitudes; shape (fragment size, burstiness, relative rates) is
    preserved and the scale is recorded in every report. *)

open Mmt_util

type profile =
  | Steady
  | Periodic_trigger of { window : Units.Time.t; duty : float }
      (** active for [duty] of each [window], off otherwise; the rate
          within a burst is raised so the average matches the catalog *)
  | Poisson_events of { mean_rate_hz : float; fragments_per_event : int }
      (** physics events arrive as a Poisson process; each event emits
          a back-to-back fragment train *)
  | Supernova of {
      onset : Units.Time.t;
      duration : Units.Time.t;
      multiplier : float;
    }  (** steady baseline with a sustained burst *)
  | Replay of (Units.Time.t * int) list
      (** trace-driven: emit one fragment of each recorded (time,
          payload-bytes) pair — how a captured DAQ sample (e.g. the
          pilot's ICEBERG traffic) drives the simulator.  The payload
          field sets content generation for non-[Synthetic] payloads;
          recorded sizes override [Synthetic] sizes. *)

type payload =
  | Synthetic of Units.Size.t
      (** content-free payload of the given size, carried as wire
          padding (see {!start}) *)
  | Raw_window of Lartpc.config * Lartpc.activity
  | Photon_flash of Photon.config * int
      (** photon-detector windows with Poisson flashes of the given
          mean photon count *)

type config = {
  experiment : Experiment.t;
  scale : float;  (** catalog-rate multiplier, e.g. 1e-4 *)
  profile : profile;
  payload : payload;
  run : int;
  slice : int;  (** which instrument partition this stream is (Req 8) *)
}

type stats = {
  fragments_emitted : int;
  bytes_emitted : int;  (** encoded fragment bytes, virtual payload included *)
  events : int;  (** profile-level events (triggers, bursts) *)
}

type t

val start :
  engine:Mmt_sim.Engine.t ->
  rng:Rng.t ->
  config ->
  emit:(padding:int -> Fragment.t -> unit) ->
  until:Units.Time.t ->
  t
(** Schedules fragment emission on the engine from now to [until].

    [emit ~padding fragment] receives each fragment with the number of
    {e virtual} payload bytes that follow its materialized [payload].
    A [Synthetic] payload is all virtual: nothing reads its content, so
    the fragment's [payload] is empty and [padding] is its size.  Other
    payload kinds have content and [padding = 0].  A sender writes the
    fragment with [Fragment.write ~padding] and gives the frame the
    same padding ([Mmt.Sender.send_with ~padding]), so the wire size is
    the full fragment's.  Every fragment is fresh: [emit] may keep it.
    @raise Invalid_argument on a non-positive scale or duty outside
    (0, 1]. *)

val stop : t -> unit
(** Cease scheduling new fragments. *)

val stats : t -> stats

val offered_rate : t -> over:Units.Time.t -> Units.Rate.t
(** Average emitted rate across [over] (encoded bytes, virtual payload
    included). *)

val expected_interval : config -> Units.Time.t
(** Steady-state inter-fragment gap implied by the scaled rate. *)

val synthesize_capture :
  rng:Rng.t ->
  experiment:Experiment.t ->
  scale:float ->
  duration:Units.Time.t ->
  (Units.Time.t * int) list
(** Build a replayable capture with the experiment's shape: fragment
    sizes jittered around the catalog size, inter-arrival jitter around
    the scaled rate — a stand-in for a recorded ICEBERG sample to feed
    {!Replay}. *)
