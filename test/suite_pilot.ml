(* Integration: the Fig. 4 pilot topology, experiment runners and
   telemetry reporting. *)
open Mmt_util

let quick_pilot ?(fragment_count = 300) ?(wan_loss = 0.005) ?(wan_corrupt = 0.001)
    ?(researchers = 0) ?(backpressure = false) ?deadline_budget ?profile ?seed () =
  {
    Mmt_pilot.Pilot.default_config with
    Mmt_pilot.Pilot.fragment_count;
    wan_loss;
    wan_corrupt;
    researchers;
    backpressure;
    deadline_budget;
    profile =
      Option.value ~default:Mmt_pilot.Pilot.default_config.Mmt_pilot.Pilot.profile profile;
    seed = Option.value ~default:42L seed;
    payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 1024);
  }

let run config =
  let pilot = Mmt_pilot.Pilot.build config in
  Mmt_pilot.Pilot.run pilot;
  (pilot, Mmt_pilot.Pilot.results pilot)

let test_pilot_reliable_delivery_under_loss () =
  let _pilot, r = run (quick_pilot ()) in
  Alcotest.(check int) "all fragments emitted" 300 r.Mmt_pilot.Pilot.emitted;
  Alcotest.(check int) "all delivered" 300 r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.delivered;
  Alcotest.(check int) "nothing abandoned" 0 r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.lost;
  Alcotest.(check bool) "losses actually happened" true
    (r.Mmt_pilot.Pilot.wan_a.Mmt_sim.Link.loss_drops
     + r.Mmt_pilot.Pilot.wan_b.Mmt_sim.Link.loss_drops
     + r.Mmt_pilot.Pilot.wan_b.Mmt_sim.Link.corrupted
     + r.Mmt_pilot.Pilot.wan_a.Mmt_sim.Link.corrupted > 0);
  Alcotest.(check bool) "recovered from the DTN1 buffer" true
    (r.Mmt_pilot.Pilot.buffer.Mmt.Buffer_host.frames_resent > 0);
  Alcotest.(check bool) "completion recorded" true
    (r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion <> None)

let test_pilot_mode_changes_in_network () =
  let _pilot, r = run (quick_pilot ()) in
  Alcotest.(check int) "every data frame rewritten at DTN1" 300
    r.Mmt_pilot.Pilot.rewriter.Mmt_innet.Mode_rewriter.rewritten;
  Alcotest.(check int) "sequence numbers assigned in-network" 300
    r.Mmt_pilot.Pilot.rewriter.Mmt_innet.Mode_rewriter.sequenced;
  Alcotest.(check bool) "age tracked at the switch" true
    (r.Mmt_pilot.Pilot.age.Mmt_innet.Age_tracker.touched >= 300)

let test_pilot_lossless_is_clean () =
  let _pilot, r = run (quick_pilot ~wan_loss:0. ~wan_corrupt:0. ()) in
  Alcotest.(check int) "no gaps" 0
    r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.gaps_detected;
  Alcotest.(check int) "no naks" 0 r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.naks_sent;
  Alcotest.(check int) "no resends" 0
    r.Mmt_pilot.Pilot.buffer.Mmt.Buffer_host.frames_resent

let test_pilot_determinism () =
  let _p1, r1 = run (quick_pilot ~seed:7L ()) in
  let _p2, r2 = run (quick_pilot ~seed:7L ()) in
  Alcotest.(check int) "same gaps"
    r1.Mmt_pilot.Pilot.receiver.Mmt.Receiver.gaps_detected
    r2.Mmt_pilot.Pilot.receiver.Mmt.Receiver.gaps_detected;
  Alcotest.(check bool) "same completion" true
    (r1.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion
    = r2.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion);
  let _p3, r3 = run (quick_pilot ~seed:8L ()) in
  Alcotest.(check bool) "different seed differs somewhere" true
    (r1.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion
     <> r3.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion
    || r1.Mmt_pilot.Pilot.receiver.Mmt.Receiver.gaps_detected
       <> r3.Mmt_pilot.Pilot.receiver.Mmt.Receiver.gaps_detected)

let test_pilot_duplication_to_researchers () =
  let _pilot, r = run (quick_pilot ~researchers:2 ~wan_loss:0. ~wan_corrupt:0. ()) in
  Alcotest.(check int) "two researcher stats" 2
    (List.length r.Mmt_pilot.Pilot.researcher_stats);
  List.iter
    (fun (stats : Mmt.Receiver.stats) ->
      Alcotest.(check int) "researcher got full stream" 300 stats.Mmt.Receiver.delivered)
    r.Mmt_pilot.Pilot.researcher_stats;
  (* DTN2 still gets its stream. *)
  Alcotest.(check int) "dtn2 unaffected" 300
    r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.delivered

let test_pilot_deadline_budget () =
  (* Absurdly tight budget: everything arrives late and the checker
     sees expired deadlines. *)
  let _pilot, r =
    run
      (quick_pilot ~wan_loss:0. ~wan_corrupt:0.
         ~deadline_budget:(Units.Time.us 100.) ())
  in
  Alcotest.(check int) "all late" 300 r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.late;
  Alcotest.(check bool) "in-network checker saw expiry" true
    (r.Mmt_pilot.Pilot.timeliness.Mmt_innet.Timeliness_checker.expired > 0);
  (* Generous budget: nothing late. *)
  let _pilot2, r2 =
    run
      (quick_pilot ~wan_loss:0. ~wan_corrupt:0.
         ~deadline_budget:(Units.Time.seconds 10.) ())
  in
  Alcotest.(check int) "none late" 0 r2.Mmt_pilot.Pilot.receiver.Mmt.Receiver.late

let test_pilot_fabric_profile_slower () =
  let _p1, fast = run (quick_pilot ~wan_loss:0. ~wan_corrupt:0. ()) in
  let _p2, slow =
    run
      (quick_pilot ~wan_loss:0. ~wan_corrupt:0.
         ~profile:Mmt_pilot.Profile.fabric_virtual ())
  in
  match
    ( fast.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion,
      slow.Mmt_pilot.Pilot.receiver.Mmt.Receiver.completion )
  with
  | Some f, Some s ->
      Alcotest.(check bool) "physical profile completes sooner" true Units.Time.(f < s)
  | _ -> Alcotest.fail "both variants must complete"

let test_pilot_aged_fraction_tracks_budget () =
  let with_budget age_budget_us =
    let config = { (quick_pilot ~wan_loss:0.01 ()) with Mmt_pilot.Pilot.age_budget_us } in
    let _pilot, r = run config in
    r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.aged
  in
  let tight = with_budget 1 in
  let loose = with_budget 10_000_000 in
  Alcotest.(check bool) "tight budget ages everything" true (tight = 300);
  Alcotest.(check int) "loose budget ages nothing" 0 loose

let test_pilot_slices_build_events () =
  let config =
    {
      (quick_pilot ~fragment_count:150 ~wan_loss:0.004 ~wan_corrupt:0.001 ()) with
      Mmt_pilot.Pilot.slices = 4;
    }
  in
  let _pilot, r = run config in
  Alcotest.(check int) "all slices emitted" (4 * 150) r.Mmt_pilot.Pilot.emitted;
  Alcotest.(check int) "all delivered despite loss" (4 * 150)
    r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.delivered;
  let events = r.Mmt_pilot.Pilot.events in
  Alcotest.(check int) "every trigger became a complete 4-slice event" 150
    events.Mmt_daq.Event_builder.complete;
  Alcotest.(check int) "no event timed out" 0 events.Mmt_daq.Event_builder.timed_out

(* Runners ------------------------------------------------------------------ *)

let test_tcp_runner_tuned_vs_untuned () =
  let base = Mmt_pilot.Runners.Tcp_run.params ~transfer:(Units.Size.mib 8) () in
  let tuned = Mmt_pilot.Runners.Tcp_run.run base in
  let untuned =
    Mmt_pilot.Runners.Tcp_run.run
      { base with Mmt_pilot.Runners.Tcp_run.config = Mmt_tcp.Connection.default_config }
  in
  Alcotest.(check bool) "both complete" true
    (tuned.Mmt_pilot.Runners.Tcp_run.fct <> None
    && untuned.Mmt_pilot.Runners.Tcp_run.fct <> None);
  Alcotest.(check bool) "tuned at least 10x faster" true
    (Units.Rate.to_bps tuned.Mmt_pilot.Runners.Tcp_run.throughput
    > 10. *. Units.Rate.to_bps untuned.Mmt_pilot.Runners.Tcp_run.throughput)

let test_tcp_runner_loss_inflates_message_latency () =
  let base =
    Mmt_pilot.Runners.Tcp_run.params ~transfer:(Units.Size.mib 16)
      ~message_size:(Units.Size.kib 64) ()
  in
  let clean = Mmt_pilot.Runners.Tcp_run.run base in
  let lossy =
    Mmt_pilot.Runners.Tcp_run.run { base with Mmt_pilot.Runners.Tcp_run.loss = 0.002 }
  in
  Alcotest.(check bool) "lossy max message latency much worse" true
    (lossy.Mmt_pilot.Runners.Tcp_run.message_latency_max
    > 3. *. clean.Mmt_pilot.Runners.Tcp_run.message_latency_max)

let test_udp_runner_loses_data () =
  let o = Mmt_pilot.Runners.Udp_run.run ~loss:0.01 ~datagrams:5_000 () in
  Alcotest.(check int) "sent" 5_000 o.Mmt_pilot.Runners.Udp_run.sent;
  Alcotest.(check bool) "roughly 1% gone forever" true
    (o.Mmt_pilot.Runners.Udp_run.lost > 20 && o.Mmt_pilot.Runners.Udp_run.lost < 100)

let test_placement_runner_recovery_latency_shrinks () =
  let run_at position =
    Mmt_pilot.Runners.Placement_run.run
      (Mmt_pilot.Runners.Placement_run.params ~buffer_position:position
         ~fragment_count:1500 ~loss:0.01 ())
  in
  let near_source = run_at 0. in
  let near_sink = run_at 0.9 in
  Alcotest.(check int) "near-source complete" 1500
    near_source.Mmt_pilot.Runners.Placement_run.delivered;
  Alcotest.(check int) "near-sink complete" 1500
    near_sink.Mmt_pilot.Runners.Placement_run.delivered;
  Alcotest.(check bool) "theoretical recovery RTT shrinks" true
    Units.Time.(
      near_sink.Mmt_pilot.Runners.Placement_run.recovery_rtt
      < near_source.Mmt_pilot.Runners.Placement_run.recovery_rtt)

(* Telemetry ------------------------------------------------------------------- *)

let test_report_rendering () =
  let report =
    {
      Mmt_telemetry.Report.id = "E-T";
      title = "test";
      note = Some "scale 1e-4";
      rows =
        [
          Mmt_telemetry.Report.info ~metric:"emitted" ~measured:"300";
          Mmt_telemetry.Report.check ~metric:"delivered" ~expected:"all" ~measured:"300"
            true;
          Mmt_telemetry.Report.check ~metric:"broken" ~expected:"x" ~measured:"y" false;
        ];
    }
  in
  let rendered = Mmt_telemetry.Report.render report in
  Alcotest.(check bool) "has mismatch marker" true
    (String.length rendered > 0
    && Astring_replacement.contains rendered "MISMATCH"
    && Astring_replacement.contains rendered "OK"
    && Astring_replacement.contains rendered "scale 1e-4");
  Alcotest.(check bool) "not all ok" false (Mmt_telemetry.Report.all_ok report)

let test_flow_meter () =
  let meter = Mmt_telemetry.Flow_meter.create ~bin:(Units.Time.ms 1.) in
  Mmt_telemetry.Flow_meter.record meter ~now:(Units.Time.us 100.) ~bytes:1000;
  Mmt_telemetry.Flow_meter.record meter ~now:(Units.Time.us 200.) ~bytes:1000;
  Mmt_telemetry.Flow_meter.record meter ~now:(Units.Time.ms 2.5) ~bytes:500;
  Alcotest.(check int) "total" 2500 (Mmt_telemetry.Flow_meter.total_bytes meter);
  let series = Mmt_telemetry.Flow_meter.series meter in
  Alcotest.(check int) "three bins incl empty middle" 3 (List.length series);
  (match series with
  | (_, first) :: (_, middle) :: _ ->
      Alcotest.(check bool) "first bin 16 Mbps" true
        (Float.abs (Units.Rate.to_bps first -. 16e6) < 1.);
      Alcotest.(check bool) "gap bin zero" true (Units.Rate.is_zero middle)
  | _ -> Alcotest.fail "expected series");
  Alcotest.(check bool) "peak is first bin" true
    (Float.abs (Units.Rate.to_bps (Mmt_telemetry.Flow_meter.peak meter) -. 16e6) < 1.)

let suite =
  [
    Alcotest.test_case "pilot reliable under loss" `Slow test_pilot_reliable_delivery_under_loss;
    Alcotest.test_case "pilot in-network mode changes" `Slow test_pilot_mode_changes_in_network;
    Alcotest.test_case "pilot lossless clean" `Slow test_pilot_lossless_is_clean;
    Alcotest.test_case "pilot determinism" `Slow test_pilot_determinism;
    Alcotest.test_case "pilot duplication" `Slow test_pilot_duplication_to_researchers;
    Alcotest.test_case "pilot deadline budget" `Slow test_pilot_deadline_budget;
    Alcotest.test_case "pilot fabric vs physical" `Slow test_pilot_fabric_profile_slower;
    Alcotest.test_case "pilot aged fraction" `Slow test_pilot_aged_fraction_tracks_budget;
    Alcotest.test_case "pilot slices + event builder" `Slow test_pilot_slices_build_events;
    Alcotest.test_case "tcp tuned vs untuned" `Slow test_tcp_runner_tuned_vs_untuned;
    Alcotest.test_case "tcp loss inflates HoL" `Slow test_tcp_runner_loss_inflates_message_latency;
    Alcotest.test_case "udp loses data" `Slow test_udp_runner_loses_data;
    Alcotest.test_case "placement shrinks recovery" `Slow
      test_placement_runner_recovery_latency_shrinks;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "flow meter" `Quick test_flow_meter;
  ]
