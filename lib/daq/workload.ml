open Mmt_util

type profile =
  | Steady
  | Periodic_trigger of { window : Units.Time.t; duty : float }
  | Poisson_events of { mean_rate_hz : float; fragments_per_event : int }
  | Supernova of {
      onset : Units.Time.t;
      duration : Units.Time.t;
      multiplier : float;
    }
  | Replay of (Units.Time.t * int) list

type payload =
  | Synthetic of Units.Size.t
  | Raw_window of Lartpc.config * Lartpc.activity
  | Photon_flash of Photon.config * int

type config = {
  experiment : Experiment.t;
  scale : float;
  profile : profile;
  payload : payload;
  run : int;
  slice : int;
}

type stats = {
  fragments_emitted : int;
  bytes_emitted : int;
  events : int;
}

type t = {
  engine : Mmt_sim.Engine.t;
  rng : Rng.t;
  config : config;
  emit : padding:int -> Fragment.t -> unit;
  until : Units.Time.t;
  mutable running : bool;
  mutable trigger : int;
  mutable fragments_emitted : int;
  mutable bytes_emitted : int;
  mutable events : int;
  started_at : Units.Time.t;
}

let payload_size config =
  match config.payload with
  | Synthetic size -> Units.Size.to_bytes size
  | Raw_window (lconfig, _) ->
      2 * lconfig.Lartpc.channels * lconfig.Lartpc.samples_per_channel
  | Photon_flash (pconfig, _) -> 2 * pconfig.Photon.samples

let expected_interval config =
  let rate = Experiment.scaled_rate config.experiment ~scale:config.scale in
  let fragment_bytes =
    Fragment.header_size + Fragment.subheader_size + payload_size config
  in
  Units.Rate.transmission_time rate (Units.Size.bytes fragment_bytes)

(* The payload's materialized bytes and its virtual bytes.  Nothing
   reads a Synthetic payload's content, so all of it is virtual: the
   fragment carries an empty payload and the frame carries [size] bytes
   of wire padding.  Each payload of 8 bytes or more still draws the
   random word a materialized one would be stamped with, so the
   stream's RNG sequence, and every report downstream of it, does not
   depend on how the payload travels. *)
let build_payload ?payload_bytes t =
  match t.config.payload with
  | Synthetic size ->
      let size = Option.value payload_bytes ~default:(Units.Size.to_bytes size) in
      if size >= 8 then ignore (Rng.int64 t.rng : int64);
      (Bytes.empty, size)
  | Raw_window (lconfig, activity) ->
      (Lartpc.serialize_window (Lartpc.generate_window lconfig t.rng ~activity), 0)
  | Photon_flash (pconfig, mean_photons) ->
      let photons = Rng.poisson t.rng ~mean:(float_of_int mean_photons) in
      (Photon.serialize (Photon.generate pconfig t.rng ~photons), 0)

let detector_for t =
  match t.config.payload with
  | Raw_window (lconfig, _) ->
      Fragment.Wib_ethernet
        {
          crate = 1;
          slot = t.config.slice;
          fiber = 1;
          first_channel = 0;
          channel_count = lconfig.Lartpc.channels;
        }
  | Photon_flash (pconfig, _) ->
      Fragment.Photon_detector
        {
          module_id = t.config.slice;
          sipm_count = pconfig.Photon.sipms;
          gain = 1_000_000;
        }
  | Synthetic _ ->
      Fragment.Beam_instrument
        { device = t.config.slice; sample_rate_khz = 2000; adc_bits = 14 }

let emit_fragment ?payload_bytes t =
  let now = Mmt_sim.Engine.now t.engine in
  let payload, padding = build_payload ?payload_bytes t in
  let fragment =
    {
      Fragment.run = t.config.run;
      trigger = t.trigger;
      timestamp = now;
      experiment =
        Mmt.Experiment_id.with_slice t.config.experiment.Experiment.id
          t.config.slice;
      detector = detector_for t;
      payload;
    }
  in
  t.trigger <- t.trigger + 1;
  t.fragments_emitted <- t.fragments_emitted + 1;
  t.bytes_emitted <- t.bytes_emitted + Fragment.total_size fragment + padding;
  t.emit ~padding fragment

(* Each profile is a self-rescheduling loop on the engine. *)

let rec steady_loop t interval =
  if t.running && Units.Time.(Mmt_sim.Engine.now t.engine <= t.until) then begin
    emit_fragment t;
    ignore
      (Mmt_sim.Engine.schedule_after t.engine ~delay:interval (fun () ->
           steady_loop t interval))
  end

let rec trigger_loop t ~window ~duty ~burst_interval =
  if t.running && Units.Time.(Mmt_sim.Engine.now t.engine <= t.until) then begin
    t.events <- t.events + 1;
    let burst_length = Units.Time.scale window duty in
    let fragments_in_burst =
      max 1
        (Units.Time.to_ns burst_length
        / max 1 (Units.Time.to_ns burst_interval))
    in
    for i = 0 to fragments_in_burst - 1 do
      ignore
        (Mmt_sim.Engine.schedule_after t.engine
           ~delay:(Units.Time.scale burst_interval (float_of_int i))
           (fun () ->
             if t.running && Units.Time.(Mmt_sim.Engine.now t.engine <= t.until)
             then emit_fragment t))
    done;
    ignore
      (Mmt_sim.Engine.schedule_after t.engine ~delay:window (fun () ->
           trigger_loop t ~window ~duty ~burst_interval))
  end

let rec poisson_loop t ~mean_rate_hz ~fragments_per_event =
  if t.running && Units.Time.(Mmt_sim.Engine.now t.engine <= t.until) then begin
    let gap_s = Rng.exponential t.rng ~rate:mean_rate_hz in
    ignore
      (Mmt_sim.Engine.schedule_after t.engine ~delay:(Units.Time.seconds gap_s)
         (fun () ->
           if t.running && Units.Time.(Mmt_sim.Engine.now t.engine <= t.until)
           then begin
             t.events <- t.events + 1;
             for _ = 1 to fragments_per_event do
               emit_fragment t
             done;
             poisson_loop t ~mean_rate_hz ~fragments_per_event
           end))
  end

let rec supernova_loop t ~onset ~duration ~multiplier ~base_interval =
  if t.running && Units.Time.(Mmt_sim.Engine.now t.engine <= t.until) then begin
    let now = Mmt_sim.Engine.now t.engine in
    let elapsed = Units.Time.diff now t.started_at in
    let in_burst =
      Units.Time.(elapsed >= onset)
      && Units.Time.(Units.Time.diff elapsed onset < duration)
    in
    if in_burst && t.events = 0 then t.events <- 1;
    emit_fragment t;
    let interval =
      if in_burst then Units.Time.scale base_interval (1. /. multiplier)
      else base_interval
    in
    ignore
      (Mmt_sim.Engine.schedule_after t.engine ~delay:interval (fun () ->
           supernova_loop t ~onset ~duration ~multiplier ~base_interval))
  end

let replay_schedule t records =
  List.iter
    (fun (at, bytes) ->
      if Units.Time.(at <= t.until) then
        ignore
          (Mmt_sim.Engine.schedule t.engine ~at (fun () ->
               if t.running then emit_fragment ~payload_bytes:bytes t)))
    records

let start ~engine ~rng config ~emit ~until =
  if config.scale <= 0. then invalid_arg "Workload.start: scale must be positive";
  (match config.profile with
  | Periodic_trigger { duty; _ } when duty <= 0. || duty > 1. ->
      invalid_arg "Workload.start: duty must be in (0, 1]"
  | _ -> ());
  let t =
    {
      engine;
      rng;
      config;
      emit;
      until;
      running = true;
      trigger = 0;
      fragments_emitted = 0;
      bytes_emitted = 0;
      events = 0;
      started_at = Mmt_sim.Engine.now engine;
    }
  in
  let interval = expected_interval config in
  (match config.profile with
  | Steady -> steady_loop t interval
  | Periodic_trigger { window; duty } ->
      let burst_interval = Units.Time.scale interval duty in
      trigger_loop t ~window ~duty ~burst_interval
  | Poisson_events { mean_rate_hz; fragments_per_event } ->
      poisson_loop t ~mean_rate_hz ~fragments_per_event
  | Supernova { onset; duration; multiplier } ->
      supernova_loop t ~onset ~duration ~multiplier ~base_interval:interval
  | Replay records -> replay_schedule t records);
  t

let stop t = t.running <- false

let stats t =
  {
    fragments_emitted = t.fragments_emitted;
    bytes_emitted = t.bytes_emitted;
    events = t.events;
  }

let synthesize_capture ~rng ~experiment ~scale ~duration =
  let base_size = Units.Size.to_bytes experiment.Experiment.message_size in
  let config =
    {
      experiment;
      scale;
      profile = Steady;
      payload = Synthetic experiment.Experiment.message_size;
      run = 0;
      slice = 0;
    }
  in
  let interval = Units.Time.to_float_s (expected_interval config) in
  let rec build at acc =
    if at > Units.Time.to_float_s duration then List.rev acc
    else begin
      (* 10% inter-arrival jitter, 5% size jitter: a recorded capture's
         texture without its bulk. *)
      let gap = interval *. Rng.float_in_range rng ~lo:0.9 ~hi:1.1 in
      let size =
        int_of_float (float_of_int base_size *. Rng.float_in_range rng ~lo:0.95 ~hi:1.05)
      in
      build (at +. gap) ((Units.Time.seconds at, max 64 size) :: acc)
    end
  in
  build 0. []

let offered_rate t ~over =
  Units.Rate.of_size_per_time (Units.Size.bytes t.bytes_emitted) over
