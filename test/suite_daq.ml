(* Experiment catalog, LArTPC synthesis, fragments, workloads, event builder. *)
open Mmt_util

(* Catalog (Table 1) ------------------------------------------------------- *)

let test_catalog_matches_table1 () =
  let check kind gbps =
    let e = Mmt_daq.Experiment.find kind in
    Alcotest.(check bool)
      (e.Mmt_daq.Experiment.name ^ " rate")
      true
      (Float.abs (Units.Rate.to_gbps e.Mmt_daq.Experiment.daq_rate -. gbps) < 1e-6)
  in
  check Mmt_daq.Experiment.Cms_l1_trigger 63_000.;
  check Mmt_daq.Experiment.Dune 120_000.;
  check Mmt_daq.Experiment.Ecce_detector 100_000.;
  check Mmt_daq.Experiment.Mu2e 160.;
  check Mmt_daq.Experiment.Vera_rubin 400.

let test_catalog_ids_distinct () =
  let ids =
    List.map
      (fun e -> Mmt.Experiment_id.experiment e.Mmt_daq.Experiment.id)
      Mmt_daq.Experiment.all
  in
  Alcotest.(check int) "distinct" (List.length Mmt_daq.Experiment.all)
    (List.length (List.sort_uniq compare ids))

let test_find_by_name () =
  Alcotest.(check bool) "case-insensitive" true
    (Option.is_some (Mmt_daq.Experiment.find_by_name "dune"));
  Alcotest.(check bool) "unknown" true
    (Mmt_daq.Experiment.find_by_name "LIGO" = None)

let test_scaled_rate_and_message_rate () =
  let dune = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune in
  let scaled = Mmt_daq.Experiment.scaled_rate dune ~scale:1e-6 in
  Alcotest.(check bool) "120 Mbps at 1e-6" true
    (Float.abs (Units.Rate.to_bps scaled -. 120e6) < 1.);
  let mps = Mmt_daq.Experiment.messages_per_second dune ~scale:1e-6 in
  (* 120e6 bps / (7200*8) bits. *)
  Alcotest.(check bool) "messages per second" true (Float.abs (mps -. 2083.33) < 1.)

let test_vera_rubin_alert_stream () =
  let vr = Mmt_daq.Experiment.find Mmt_daq.Experiment.Vera_rubin in
  match vr.Mmt_daq.Experiment.alert_stream with
  | Some rate ->
      Alcotest.(check bool) "5.4 Gbps" true
        (Float.abs (Units.Rate.to_gbps rate -. 5.4) < 1e-9)
  | None -> Alcotest.fail "Vera Rubin must have an alert stream"

(* LArTPC -------------------------------------------------------------------- *)

let config = Mmt_daq.Lartpc.iceberg

let test_waveform_shape () =
  let rng = Rng.create ~seed:1L in
  let w = Mmt_daq.Lartpc.generate_waveform config rng ~activity:Mmt_daq.Lartpc.Quiet in
  Alcotest.(check int) "length" config.Mmt_daq.Lartpc.samples_per_channel (Array.length w);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "within ADC range" true
        (s >= 0 && s <= config.Mmt_daq.Lartpc.adc_max))
    w

let test_quiet_waveform_near_pedestal () =
  let rng = Rng.create ~seed:2L in
  let w = Mmt_daq.Lartpc.generate_waveform config rng ~activity:Mmt_daq.Lartpc.Quiet in
  let acc = Stats.Welford.create () in
  Array.iter (fun s -> Stats.Welford.add acc (float_of_int s)) w;
  Alcotest.(check bool) "mean near pedestal" true
    (Float.abs (Stats.Welford.mean acc -. float_of_int config.Mmt_daq.Lartpc.pedestal) < 5.)

let test_activity_scales_hits () =
  let count_hits activity seed =
    let rng = Rng.create ~seed in
    let window = Mmt_daq.Lartpc.generate_window config rng ~activity in
    Array.to_list window
    |> List.mapi (fun channel w ->
           List.length (Mmt_daq.Lartpc.trigger_primitives config ~threshold:15 ~channel w))
    |> List.fold_left ( + ) 0
  in
  let quiet = count_hits Mmt_daq.Lartpc.Quiet 3L in
  let burst = count_hits Mmt_daq.Lartpc.Supernova_burst 3L in
  Alcotest.(check bool) "supernova much busier than quiet" true (burst > 4 * max 1 quiet)

let test_zero_suppress_keeps_pulses () =
  let rng = Rng.create ~seed:4L in
  let w = Mmt_daq.Lartpc.generate_waveform config rng ~activity:Mmt_daq.Lartpc.Beam_event in
  let regions = Mmt_daq.Lartpc.zero_suppress config ~threshold:15 w in
  List.iter
    (fun (start, samples) ->
      Alcotest.(check bool) "region in range" true
        (start >= 0 && start + Array.length samples <= Array.length w);
      (* every kept region contains at least one above-threshold sample *)
      Alcotest.(check bool) "region has signal" true
        (Array.exists
           (fun s -> s > config.Mmt_daq.Lartpc.pedestal + 15)
           samples))
    regions

let test_zero_suppress_quiet_is_small () =
  let rng = Rng.create ~seed:5L in
  let w = Mmt_daq.Lartpc.generate_waveform config rng ~activity:Mmt_daq.Lartpc.Quiet in
  let regions = Mmt_daq.Lartpc.zero_suppress config ~threshold:20 w in
  let kept = List.fold_left (fun acc (_s, a) -> acc + Array.length a) 0 regions in
  Alcotest.(check bool) "keeps <10% of quiet window" true
    (kept < Array.length w / 10)

let test_trigger_primitives_fields () =
  let rng = Rng.create ~seed:6L in
  let w =
    Mmt_daq.Lartpc.generate_waveform config rng ~activity:Mmt_daq.Lartpc.Supernova_burst
  in
  let hits = Mmt_daq.Lartpc.trigger_primitives config ~threshold:15 ~channel:7 w in
  List.iter
    (fun (h : Mmt_daq.Lartpc.hit) ->
      Alcotest.(check int) "channel" 7 h.Mmt_daq.Lartpc.channel;
      Alcotest.(check bool) "tot positive" true (h.Mmt_daq.Lartpc.time_over_threshold > 0);
      Alcotest.(check bool) "peak above threshold" true (h.Mmt_daq.Lartpc.peak_adc > 15);
      Alcotest.(check bool) "sum >= peak" true
        (h.Mmt_daq.Lartpc.sum_adc >= h.Mmt_daq.Lartpc.peak_adc))
    hits

let test_window_serialization_roundtrip () =
  let rng = Rng.create ~seed:7L in
  let small = { config with Mmt_daq.Lartpc.channels = 4; samples_per_channel = 16 } in
  let window = Mmt_daq.Lartpc.generate_window small rng ~activity:Mmt_daq.Lartpc.Cosmic in
  let buf = Mmt_daq.Lartpc.serialize_window window in
  Alcotest.(check int) "size" (2 * 4 * 16) (Bytes.length buf);
  match Mmt_daq.Lartpc.deserialize_window ~channels:4 ~samples_per_channel:16 buf with
  | Some decoded -> Alcotest.(check bool) "roundtrip" true (decoded = window)
  | None -> Alcotest.fail "expected decode"

let test_hits_serialization_roundtrip () =
  let hits =
    [
      { Mmt_daq.Lartpc.channel = 1; start_tick = 10; time_over_threshold = 3; peak_adc = 50; sum_adc = 120 };
      { Mmt_daq.Lartpc.channel = 63; start_tick = 500; time_over_threshold = 12; peak_adc = 250; sum_adc = 2000 };
    ]
  in
  match Mmt_daq.Lartpc.deserialize_hits (Mmt_daq.Lartpc.serialize_hits hits) with
  | Some decoded -> Alcotest.(check bool) "roundtrip" true (decoded = hits)
  | None -> Alcotest.fail "expected decode"

let test_compression_ratio_sane () =
  let rng = Rng.create ~seed:8L in
  let window = Mmt_daq.Lartpc.generate_window config rng ~activity:Mmt_daq.Lartpc.Cosmic in
  let ratio = Mmt_daq.Lartpc.compression_ratio config ~threshold:15 window in
  Alcotest.(check bool) "zero suppression compresses" true (ratio > 2.)

(* Photon detection system ------------------------------------------------- *)

let pds = Mmt_daq.Photon.dune_pds

let test_photon_dark_window_quiet () =
  let rng = Rng.create ~seed:21L in
  let w = Mmt_daq.Photon.generate pds rng ~photons:0 in
  Alcotest.(check int) "length" pds.Mmt_daq.Photon.samples (Array.length w);
  (* A dark window's estimate is a handful of dark counts at most. *)
  Alcotest.(check bool) "few photons" true
    (Mmt_daq.Photon.estimate_photons pds w < 5)

let test_photon_estimate_tracks_flash () =
  let rng = Rng.create ~seed:22L in
  let estimate photons =
    let acc = Stats.Welford.create () in
    for _ = 1 to 20 do
      Stats.Welford.add acc
        (float_of_int
           (Mmt_daq.Photon.estimate_photons pds
              (Mmt_daq.Photon.generate pds rng ~photons)))
    done;
    Stats.Welford.mean acc
  in
  let small = estimate 20 in
  let large = estimate 200 in
  (* The above-cut integral truncates pulse tails, so the estimator
     reads low but stays roughly linear in the collected light. *)
  Alcotest.(check bool) "small flash visible" true (small > 5. && small < 30.);
  Alcotest.(check bool) "large flash visible" true (large > 80. && large < 260.);
  Alcotest.(check bool) "roughly linear (x10 light in [5x, 20x])" true
    (large > 5. *. small && large < 20. *. small)

let test_photon_serialization_roundtrip () =
  let rng = Rng.create ~seed:23L in
  let w = Mmt_daq.Photon.generate pds rng ~photons:30 in
  match Mmt_daq.Photon.deserialize ~samples:pds.Mmt_daq.Photon.samples
          (Mmt_daq.Photon.serialize w)
  with
  | Some decoded -> Alcotest.(check bool) "roundtrip" true (decoded = w)
  | None -> Alcotest.fail "expected decode"

let test_photon_workload_payload () =
  let engine = Mmt_sim.Engine.create () in
  let rng = Rng.create ~seed:24L in
  let small_pds = { pds with Mmt_daq.Photon.samples = 64; sipms = 8 } in
  let config =
    {
      Mmt_daq.Workload.experiment = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune;
      scale = 1e-6;
      profile = Mmt_daq.Workload.Steady;
      payload = Mmt_daq.Workload.Photon_flash (small_pds, 40);
      run = 1;
      slice = 3;
    }
  in
  let fragments = ref [] in
  let _w =
    Mmt_daq.Workload.start ~engine ~rng config
      ~emit:(fun ~padding:_ f -> fragments := f :: !fragments)
      ~until:(Units.Time.ms 20.)
  in
  Mmt_sim.Engine.run engine;
  Alcotest.(check bool) "emitted" true (!fragments <> []);
  List.iter
    (fun f ->
      (match f.Mmt_daq.Fragment.detector with
      | Mmt_daq.Fragment.Photon_detector { sipm_count; _ } ->
          Alcotest.(check int) "sipm count" 8 sipm_count
      | _ -> Alcotest.fail "expected photon subheader");
      Alcotest.(check int) "payload size" (2 * 64)
        (Bytes.length f.Mmt_daq.Fragment.payload))
    !fragments

(* Fragments -------------------------------------------------------------------- *)

let experiment_id = Mmt.Experiment_id.make ~experiment:2 ~slice:3

let fragment detector payload =
  {
    Mmt_daq.Fragment.run = 42;
    trigger = 1337;
    timestamp = Units.Time.us 123.;
    experiment = experiment_id;
    detector;
    payload;
  }

let detectors =
  [
    Mmt_daq.Fragment.Wib_ethernet
      { crate = 1; slot = 2; fiber = 3; first_channel = 0; channel_count = 64 };
    Mmt_daq.Fragment.Photon_detector { module_id = 9; sipm_count = 48; gain = 1_000_000 };
    Mmt_daq.Fragment.Beam_instrument { device = 7; sample_rate_khz = 2000; adc_bits = 14 };
    Mmt_daq.Fragment.Telescope_alert
      { alert_id = 555; ra_udeg = 0x123456; dec_udeg = 0x0ABCDE; severity = 9 };
  ]

let test_fragment_roundtrip_all_detectors () =
  List.iter
    (fun detector ->
      let f = fragment detector (Bytes.of_string "DATA") in
      match Mmt_daq.Fragment.decode (Mmt_daq.Fragment.encode f) with
      | Ok decoded ->
          Alcotest.(check bool) "roundtrip" true (Mmt_daq.Fragment.equal f decoded)
      | Error e -> Alcotest.fail e)
    detectors

let test_fragment_sizes () =
  let f = fragment (List.hd detectors) (Bytes.make 100 'x') in
  Alcotest.(check int) "total size" (28 + 12 + 100) (Mmt_daq.Fragment.total_size f);
  Alcotest.(check int) "encoded size" (Mmt_daq.Fragment.total_size f)
    (Bytes.length (Mmt_daq.Fragment.encode f))

let test_fragment_bad_magic () =
  let raw = Mmt_daq.Fragment.encode (fragment (List.hd detectors) Bytes.empty) in
  Bytes.set raw 0 '\x00';
  Alcotest.(check bool) "bad magic" true
    (match Mmt_daq.Fragment.decode raw with Error _ -> true | Ok _ -> false)

let test_fragment_truncated_payload () =
  let raw = Mmt_daq.Fragment.encode (fragment (List.hd detectors) (Bytes.make 50 'x')) in
  let cut = Bytes.sub raw 0 (Bytes.length raw - 10) in
  Alcotest.(check bool) "truncated" true
    (match Mmt_daq.Fragment.decode cut with Error _ -> true | Ok _ -> false)

let test_fragment_read_window () =
  let f = fragment (List.hd detectors) (Bytes.make 50 'x') in
  let raw = Mmt_daq.Fragment.encode f in
  let len = Bytes.length raw in
  let buf = Bytes.make (len + 20) '\xFF' in
  Bytes.blit raw 0 buf 7 len;
  let read len =
    Mmt_daq.Fragment.read (Mmt_wire.Cursor.Reader.of_bytes ~off:7 ~len buf)
  in
  (match (read len, Mmt_daq.Fragment.decode raw) with
  | Ok windowed, Ok exact ->
      Alcotest.(check bool) "window = decode" true
        (Mmt_daq.Fragment.equal windowed exact)
  | Error e, _ | _, Error e -> Alcotest.fail e);
  Alcotest.(check bool) "one byte short" true
    (match read (len - 1) with Error _ -> true | Ok _ -> false)

let test_fragment_slice_in_experiment_id () =
  let f = fragment (List.hd detectors) Bytes.empty in
  match Mmt_daq.Fragment.decode (Mmt_daq.Fragment.encode f) with
  | Ok decoded ->
      Alcotest.(check int) "slice preserved" 3
        (Mmt.Experiment_id.slice decoded.Mmt_daq.Fragment.experiment)
  | Error e -> Alcotest.fail e

(* Workload ----------------------------------------------------------------------- *)

let workload_config ?(profile = Mmt_daq.Workload.Steady) ?(scale = 1e-6) () =
  {
    Mmt_daq.Workload.experiment = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune;
    scale;
    profile;
    payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 7200);
    run = 1;
    slice = 2;
  }

let run_workload ?profile ?scale ~until () =
  let engine = Mmt_sim.Engine.create () in
  let rng = Rng.create ~seed:11L in
  let fragments = ref [] in
  let w =
    Mmt_daq.Workload.start ~engine ~rng
      (workload_config ?profile ?scale ())
      ~emit:(fun ~padding:_ f -> fragments := f :: !fragments)
      ~until
  in
  Mmt_sim.Engine.run engine;
  (w, List.rev !fragments)

let test_steady_rate_matches_catalog () =
  let until = Units.Time.seconds 1. in
  let w, fragments = run_workload ~until () in
  let stats = Mmt_daq.Workload.stats w in
  Alcotest.(check int) "emitted = list" (List.length fragments)
    stats.Mmt_daq.Workload.fragments_emitted;
  let rate = Mmt_daq.Workload.offered_rate w ~over:until in
  (* DUNE at 1e-6 = 120 Mbps. *)
  Alcotest.(check bool) "offered rate within 2% of scaled catalog" true
    (Float.abs ((Units.Rate.to_bps rate /. 120e6) -. 1.) < 0.02)

let test_fragments_well_formed () =
  let _w, fragments = run_workload ~until:(Units.Time.ms 50.) () in
  Alcotest.(check bool) "non-empty" true (fragments <> []);
  List.iteri
    (fun i f ->
      Alcotest.(check int) "monotone trigger" i f.Mmt_daq.Fragment.trigger;
      Alcotest.(check int) "slice" 2 (Mmt.Experiment_id.slice f.Mmt_daq.Fragment.experiment))
    fragments

let test_supernova_burst_raises_rate () =
  let profile =
    Mmt_daq.Workload.Supernova
      { onset = Units.Time.ms 100.; duration = Units.Time.ms 100.; multiplier = 5. }
  in
  let _w, fragments = run_workload ~profile ~until:(Units.Time.ms 300.) () in
  let count_in lo hi =
    List.length
      (List.filter
         (fun f ->
           Units.Time.(f.Mmt_daq.Fragment.timestamp >= Units.Time.ms lo)
           && Units.Time.(f.Mmt_daq.Fragment.timestamp < Units.Time.ms hi))
         fragments)
  in
  let before = count_in 0. 100. in
  let during = count_in 100. 200. in
  Alcotest.(check bool) "burst is ~5x baseline" true
    (during > 3 * before && during < 8 * max 1 before)

let test_poisson_events_bursts () =
  let profile =
    Mmt_daq.Workload.Poisson_events { mean_rate_hz = 50.; fragments_per_event = 4 }
  in
  let w, fragments = run_workload ~profile ~until:(Units.Time.seconds 1.) () in
  let stats = Mmt_daq.Workload.stats w in
  Alcotest.(check int) "fragments = 4 x events"
    (4 * stats.Mmt_daq.Workload.events)
    (List.length fragments);
  Alcotest.(check bool) "roughly 50 events" true
    (stats.Mmt_daq.Workload.events > 25 && stats.Mmt_daq.Workload.events < 90)

let test_periodic_trigger_duty_cycle () =
  let profile =
    Mmt_daq.Workload.Periodic_trigger { window = Units.Time.ms 10.; duty = 0.2 }
  in
  let _w, fragments = run_workload ~profile ~until:(Units.Time.ms 100.) () in
  (* All fragments must sit inside the first 20% of their window. *)
  List.iter
    (fun f ->
      let ns = Units.Time.to_ns f.Mmt_daq.Fragment.timestamp in
      let in_window = ns mod 10_000_000 in
      Alcotest.(check bool) "inside duty window" true (in_window <= 2_100_000))
    fragments

let test_replay_profile_exact () =
  let engine = Mmt_sim.Engine.create () in
  let rng = Rng.create ~seed:31L in
  let records =
    [ (Units.Time.ms 1., 100); (Units.Time.ms 3., 200); (Units.Time.ms 7., 300) ]
  in
  let config =
    { (workload_config ()) with Mmt_daq.Workload.profile = Mmt_daq.Workload.Replay records }
  in
  let got = ref [] in
  let _w =
    Mmt_daq.Workload.start ~engine ~rng config
      ~emit:(fun ~padding f ->
        got :=
          (f.Mmt_daq.Fragment.timestamp, Bytes.length f.Mmt_daq.Fragment.payload + padding)
          :: !got)
      ~until:(Units.Time.ms 5.)
  in
  Mmt_sim.Engine.run engine;
  (* The 7 ms record is beyond [until]. *)
  Alcotest.(check (list (pair string int))) "replayed exactly"
    [ ("1ms", 100); ("3ms", 200) ]
    (List.rev_map (fun (t, n) -> (Units.Time.to_string t, n)) !got)

let test_synthesize_capture_shape () =
  let rng = Rng.create ~seed:32L in
  let dune = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune in
  let capture =
    Mmt_daq.Workload.synthesize_capture ~rng ~experiment:dune ~scale:1e-6
      ~duration:(Units.Time.ms 100.)
  in
  Alcotest.(check bool) "plausible count" true
    (let n = List.length capture in
     n > 150 && n < 260);
  let sorted = List.sort (fun (a, _) (b, _) -> Units.Time.compare a b) capture in
  Alcotest.(check bool) "time-ordered" true (sorted = capture);
  List.iter
    (fun (_, size) ->
      Alcotest.(check bool) "size near catalog" true (size > 6800 && size < 7600))
    capture;
  (* Replaying the capture reproduces its offered load. *)
  let engine = Mmt_sim.Engine.create () in
  let bytes = ref 0 in
  let config =
    { (workload_config ()) with Mmt_daq.Workload.profile = Mmt_daq.Workload.Replay capture }
  in
  let _w =
    Mmt_daq.Workload.start ~engine ~rng config
      ~emit:(fun ~padding f ->
        bytes := !bytes + Bytes.length f.Mmt_daq.Fragment.payload + padding)
      ~until:(Units.Time.ms 100.)
  in
  Mmt_sim.Engine.run engine;
  let rate = float_of_int (!bytes * 8) /. 0.1 in
  Alcotest.(check bool) "offered load within 10% of scaled DUNE" true
    (Float.abs ((rate /. 120e6) -. 1.) < 0.1)

let test_workload_stop () =
  let engine = Mmt_sim.Engine.create () in
  let rng = Rng.create ~seed:12L in
  let count = ref 0 in
  let w =
    Mmt_daq.Workload.start ~engine ~rng (workload_config ())
      ~emit:(fun ~padding:_ _ -> incr count)
      ~until:(Units.Time.seconds 10.)
  in
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () ->
         Mmt_daq.Workload.stop w));
  Mmt_sim.Engine.run engine;
  let after_stop = !count in
  Alcotest.(check bool) "stopped early" true
    (after_stop < 5000 && Units.Time.(Mmt_sim.Engine.now engine < Units.Time.seconds 10.))

let test_workload_validation () =
  let engine = Mmt_sim.Engine.create () in
  let rng = Rng.create ~seed:1L in
  Alcotest.(check bool) "bad scale" true
    (match
       Mmt_daq.Workload.start ~engine ~rng (workload_config ~scale:0. ())
         ~emit:(fun ~padding:_ _ -> ()) ~until:Units.Time.zero
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Event builder -------------------------------------------------------------------- *)

let eb_add eb ~now ~trigger ~slice =
  Mmt_daq.Event_builder.add eb ~now ~run:1 ~trigger ~slice

let test_event_builder_completes () =
  let eb = Mmt_daq.Event_builder.create ~slices:[ 0; 1; 2 ] ~timeout:(Units.Time.ms 10.) in
  let now = Units.Time.zero in
  Alcotest.(check bool) "pending" true
    (eb_add eb ~now ~trigger:5 ~slice:0 = None);
  Alcotest.(check bool) "pending" true
    (eb_add eb ~now ~trigger:5 ~slice:2 = None);
  (match eb_add eb ~now ~trigger:5 ~slice:1 with
  | Some event ->
      Alcotest.(check int) "trigger" 5 event.Mmt_daq.Event_builder.trigger;
      Alcotest.(check int) "all slices" 3 (List.length event.Mmt_daq.Event_builder.slices);
      (* slices come back in slice order *)
      Alcotest.(check (list int)) "slice order" [ 0; 1; 2 ]
        event.Mmt_daq.Event_builder.slices
  | None -> Alcotest.fail "expected completion");
  let stats = Mmt_daq.Event_builder.stats eb in
  Alcotest.(check int) "complete" 1 stats.Mmt_daq.Event_builder.complete;
  Alcotest.(check int) "pending drained" 0 stats.Mmt_daq.Event_builder.pending

let test_event_builder_duplicates () =
  let eb = Mmt_daq.Event_builder.create ~slices:[ 0; 1 ] ~timeout:(Units.Time.ms 10.) in
  let now = Units.Time.zero in
  ignore (eb_add eb ~now ~trigger:1 ~slice:0);
  ignore (eb_add eb ~now ~trigger:1 ~slice:0);
  Alcotest.(check int) "duplicate counted" 1
    (Mmt_daq.Event_builder.stats eb).Mmt_daq.Event_builder.duplicates

let test_event_builder_timeout () =
  let eb = Mmt_daq.Event_builder.create ~slices:[ 0; 1 ] ~timeout:(Units.Time.ms 10.) in
  ignore (eb_add eb ~now:Units.Time.zero ~trigger:1 ~slice:0);
  Alcotest.(check int) "nothing stale yet" 0
    (Mmt_daq.Event_builder.sweep eb ~now:(Units.Time.ms 5.));
  Alcotest.(check int) "timed out" 1 (Mmt_daq.Event_builder.sweep eb ~now:(Units.Time.ms 20.));
  let stats = Mmt_daq.Event_builder.stats eb in
  Alcotest.(check int) "counted" 1 stats.Mmt_daq.Event_builder.timed_out;
  (* A late fragment for the swept trigger reopens a fresh event. *)
  Alcotest.(check bool) "reopens" true
    (eb_add eb ~now:(Units.Time.ms 21.) ~trigger:1 ~slice:1 = None)

let test_event_builder_rejects_empty_slices () =
  Alcotest.(check bool) "empty rejected" true
    (match Mmt_daq.Event_builder.create ~slices:[] ~timeout:Units.Time.zero with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "catalog matches Table 1" `Quick test_catalog_matches_table1;
    Alcotest.test_case "catalog ids distinct" `Quick test_catalog_ids_distinct;
    Alcotest.test_case "find by name" `Quick test_find_by_name;
    Alcotest.test_case "scaled rate" `Quick test_scaled_rate_and_message_rate;
    Alcotest.test_case "vera rubin alert stream" `Quick test_vera_rubin_alert_stream;
    Alcotest.test_case "waveform shape" `Quick test_waveform_shape;
    Alcotest.test_case "quiet near pedestal" `Quick test_quiet_waveform_near_pedestal;
    Alcotest.test_case "activity scales hits" `Quick test_activity_scales_hits;
    Alcotest.test_case "zero suppress keeps pulses" `Quick test_zero_suppress_keeps_pulses;
    Alcotest.test_case "zero suppress quiet small" `Quick test_zero_suppress_quiet_is_small;
    Alcotest.test_case "trigger primitive fields" `Quick test_trigger_primitives_fields;
    Alcotest.test_case "window serialization" `Quick test_window_serialization_roundtrip;
    Alcotest.test_case "hits serialization" `Quick test_hits_serialization_roundtrip;
    Alcotest.test_case "compression ratio" `Quick test_compression_ratio_sane;
    Alcotest.test_case "photon dark window" `Quick test_photon_dark_window_quiet;
    Alcotest.test_case "photon estimate tracks flash" `Quick test_photon_estimate_tracks_flash;
    Alcotest.test_case "photon serialization" `Quick test_photon_serialization_roundtrip;
    Alcotest.test_case "photon workload payload" `Quick test_photon_workload_payload;
    Alcotest.test_case "fragment roundtrip (4 detectors)" `Quick
      test_fragment_roundtrip_all_detectors;
    Alcotest.test_case "fragment sizes" `Quick test_fragment_sizes;
    Alcotest.test_case "fragment bad magic" `Quick test_fragment_bad_magic;
    Alcotest.test_case "fragment truncated" `Quick test_fragment_truncated_payload;
    Alcotest.test_case "fragment slice" `Quick test_fragment_slice_in_experiment_id;
    Alcotest.test_case "fragment read window" `Quick test_fragment_read_window;
    Alcotest.test_case "steady rate" `Quick test_steady_rate_matches_catalog;
    Alcotest.test_case "fragments well-formed" `Quick test_fragments_well_formed;
    Alcotest.test_case "supernova burst" `Quick test_supernova_burst_raises_rate;
    Alcotest.test_case "poisson events" `Quick test_poisson_events_bursts;
    Alcotest.test_case "periodic trigger duty" `Quick test_periodic_trigger_duty_cycle;
    Alcotest.test_case "replay profile" `Quick test_replay_profile_exact;
    Alcotest.test_case "synthesize capture" `Quick test_synthesize_capture_shape;
    Alcotest.test_case "workload stop" `Quick test_workload_stop;
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
    Alcotest.test_case "event builder completes" `Quick test_event_builder_completes;
    Alcotest.test_case "event builder duplicates" `Quick test_event_builder_duplicates;
    Alcotest.test_case "event builder timeout" `Quick test_event_builder_timeout;
    Alcotest.test_case "event builder empty slices" `Quick test_event_builder_rejects_empty_slices;
  ]
