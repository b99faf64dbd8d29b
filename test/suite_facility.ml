(* The facility generator: the fairness math, the addressing plan, and
   the determinism contract the E-F5 sweep rests on. *)
open Mmt_util
module Scenario = Mmt_facility.Scenario
module Metrics = Mmt_facility.Metrics
module Address = Mmt_facility.Address

let feq = Alcotest.(check (float 1e-9))

let test_jain_known_values () =
  feq "equal shares" 1.0 (Metrics.jain [| 1.; 1.; 1.; 1. |]);
  feq "one hog of four" 0.25 (Metrics.jain [| 1.; 0.; 0.; 0. |]);
  (* (4+2)^2 / (2 * (16+4)) = 36/40 *)
  feq "4:2 split" 0.9 (Metrics.jain [| 4.; 2. |]);
  feq "single flow" 1.0 (Metrics.jain [| 0.7 |]);
  feq "empty vector" 1.0 (Metrics.jain [||]);
  feq "all zero" 1.0 (Metrics.jain [| 0.; 0.; 0. |])

let sample ?(kind = "bulk") ?(emitted = 0) ?(emitted_bytes = 0)
    ?(delivered = 0) ?(delivered_bytes = 0) ?(late = 0) ?(lost = 0)
    ?(recovered = 0) ?(retx_occupancy_hw = 0) ?(retx_entries_hw = 0)
    ?(nak_state_hw = 0) () =
  {
    Metrics.kind;
    emitted;
    emitted_bytes;
    delivered;
    delivered_bytes;
    late;
    lost;
    recovered;
    retx_occupancy_hw;
    retx_entries_hw;
    nak_state_hw;
  }

let test_summarize_zero_goodput () =
  let s =
    Metrics.summarize ~window:(Units.Time.ms 1.)
      [| sample ~emitted:10 ~emitted_bytes:10_000 () |]
  in
  Alcotest.(check (float 0.)) "no bytes, no goodput" 0.
    (Units.Rate.to_bps s.Metrics.goodput);
  feq "all-zero ratios are fair" 1.0 s.Metrics.fairness;
  feq "nothing delivered, nothing late" 1.0 s.Metrics.deadline_hit_rate

let test_summarize_single_flow () =
  let s =
    Metrics.summarize ~window:(Units.Time.ms 1.)
      [| sample ~emitted:10 ~delivered:10 ~delivered_bytes:10_000 () |]
  in
  feq "single flow is perfectly fair" 1.0 s.Metrics.fairness;
  (* 10 kB over 1 ms = 80 Mbps *)
  feq "goodput over the window" 80e6 (Units.Rate.to_bps s.Metrics.goodput)

let test_summarize_excludes_idle_flows () =
  let s =
    Metrics.summarize ~window:(Units.Time.ms 1.)
      [|
        sample ~emitted:10 ~delivered:10 ();
        sample ~emitted:10 ~delivered:5 ();
        sample () (* never emitted: must not drag fairness down *);
      |]
  in
  (* ratios 1.0 and 0.5: (1.5)^2 / (2 * 1.25) = 0.9 *)
  feq "idle flow excluded" 0.9 s.Metrics.fairness

let test_levels () =
  Alcotest.(check (list int)) "64/8" [ 8; 1 ] (Scenario.levels ~flows:64 ~degree:8);
  Alcotest.(check (list int)) "9/8" [ 2; 1 ] (Scenario.levels ~flows:9 ~degree:8);
  Alcotest.(check (list int)) "10/4" [ 3; 1 ] (Scenario.levels ~flows:10 ~degree:4);
  Alcotest.(check (list int)) "8/8" [ 1 ] (Scenario.levels ~flows:8 ~degree:8);
  Alcotest.(check (list int)) "single flow, no tree" []
    (Scenario.levels ~flows:1 ~degree:8)

let test_address_round_trip () =
  List.iter
    (fun id ->
      let check name role ip =
        Alcotest.(check bool)
          (Printf.sprintf "%s %d" name id)
          true
          (Address.classify ip = role)
      in
      check "source" (Address.Source id) (Address.source_ip id);
      check "flow" (Address.Flow id) (Address.flow_ip id);
      check "buffer" (Address.Buffer id) (Address.buffer_ip id);
      check "sink" (Address.Sink id) (Address.sink_ip id))
    [ 0; 1; 255; 256; 999; 65535 ];
  Alcotest.(check bool) "foreign prefix" true
    (Address.classify (Mmt_frame.Addr.Ip.of_octets 192 168 1 1) = Address.Other);
  Alcotest.(check bool) "wrong block" true
    (Address.classify (Mmt_frame.Addr.Ip.of_octets 10 0 0 1) = Address.Other)

let test_describe_deterministic () =
  let config = { Scenario.default with Scenario.flows = 100 } in
  Alcotest.(check string) "same config, same plan" (Scenario.describe config)
    (Scenario.describe config)

let small =
  { Scenario.default with Scenario.flows = 10; duration = Units.Time.ms 1. }

let test_run_repeatable () =
  let a = Scenario.run small and b = Scenario.run small in
  Alcotest.(check bool) "summaries equal" true
    (a.Scenario.summary = b.Scenario.summary);
  Alcotest.(check bool) "per-flow samples equal" true
    (a.Scenario.samples = b.Scenario.samples);
  Alcotest.(check int) "event counts equal" a.Scenario.events b.Scenario.events

let test_run_seed_matters () =
  let a = Scenario.run small
  and b = Scenario.run { small with Scenario.seed = 43L } in
  (* Different seeds shift loss and burst arrivals; the runs should not
     be event-for-event identical. *)
  Alcotest.(check bool) "different seed, different run" false
    (a.Scenario.events = b.Scenario.events
    && a.Scenario.samples = b.Scenario.samples)

let test_report_single_point () =
  (* One point has nothing to scale against: the fan-in row is info,
     not a self-comparison that can only fail. *)
  let base = { Scenario.default with Scenario.duration = Units.Time.ms 1. } in
  let output, ok = Mmt_experiments.Facility.report ~base ~points:[ 10 ] () in
  Alcotest.(check bool) "one-point report is all_ok" true ok;
  Alcotest.(check bool) "scaling row says why it is not assessed" true
    (Astring_replacement.contains output "single point: scaling not assessed")

(* `shapeshift facility --plan 0` reaches [site_spans] through
   [describe]. *)
let test_site_spans_reject_no_flows () =
  Alcotest.check_raises "zero flows"
    (Invalid_argument "Scenario: flows must be positive") (fun () ->
      ignore (Scenario.site_spans { Scenario.default with Scenario.flows = 0 }))

(* `shapeshift facility --min 40 --max 90` asks for a range that holds
   no 1-3-10 point. *)
let test_report_rejects_no_points () =
  Alcotest.(check (list int)) "no point in [40, 90]" []
    (Mmt_experiments.Facility.log_points ~lo:40 ~hi:90);
  Alcotest.check_raises "empty point list"
    (Invalid_argument "Facility.report: no sweep points") (fun () ->
      ignore (Mmt_experiments.Facility.report ~points:[] ()))

let test_sweep_parallel_identical () =
  let base = { Scenario.default with Scenario.duration = Units.Time.ms 1. } in
  let points = [ 10; 30 ] in
  let seq, seq_ok = Mmt_experiments.Facility.report ~jobs:1 ~base ~points () in
  let par, par_ok = Mmt_experiments.Facility.report ~jobs:2 ~base ~points () in
  Alcotest.(check string) "sequential vs --jobs byte-identical" seq par;
  Alcotest.(check bool) "verdicts agree" seq_ok par_ok

let suite =
  [
    Alcotest.test_case "Jain index known values" `Quick test_jain_known_values;
    Alcotest.test_case "summary: zero goodput" `Quick test_summarize_zero_goodput;
    Alcotest.test_case "summary: single flow" `Quick test_summarize_single_flow;
    Alcotest.test_case "summary: idle flows excluded" `Quick
      test_summarize_excludes_idle_flows;
    Alcotest.test_case "fan-in tree levels" `Quick test_levels;
    Alcotest.test_case "addressing plan round-trips" `Quick
      test_address_round_trip;
    Alcotest.test_case "describe is deterministic" `Quick
      test_describe_deterministic;
    Alcotest.test_case "same seed, same run" `Quick test_run_repeatable;
    Alcotest.test_case "different seed, different run" `Quick
      test_run_seed_matters;
    Alcotest.test_case "sweep: sequential vs parallel identical" `Quick
      test_sweep_parallel_identical;
    Alcotest.test_case "report: single point is all_ok" `Quick
      test_report_single_point;
    Alcotest.test_case "site spans reject zero flows" `Quick
      test_site_spans_reject_no_flows;
    Alcotest.test_case "report rejects no points" `Quick
      test_report_rejects_no_points;
  ]
