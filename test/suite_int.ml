(* The in-band telemetry subsystem: stack codec, in-place stamping,
   element realizability, and the pilot integration where the per-hop
   decomposition must telescope to the end-to-end latency. *)
open Mmt_util

let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0

let record i =
  {
    Mmt.Header.node_id = i + 1;
    mode_id = 1;
    hop_index = i;
    queue_depth = 512 * (i + 1);
    ingress_ns = Units.Time.us (float_of_int (10 * (i + 1)));
    egress_ns = Units.Time.us (float_of_int (10 * (i + 1) + 2));
  }

(* Codec ------------------------------------------------------------- *)

let test_int_stack_roundtrip () =
  let stack =
    { Mmt.Header.records = List.init 3 record; overflowed = false }
  in
  let header = Mmt.Header.create ~sequence:7 ~experiment ~int_stack:stack () in
  let decoded =
    match Mmt.Header.decode_bytes (Mmt.Header.encode header) with
    | Ok h -> h
    | Error e -> Alcotest.failf "decode: %s" e
  in
  Alcotest.(check bool) "round-trip" true (Mmt.Header.equal header decoded);
  match decoded.Mmt.Header.int_stack with
  | None -> Alcotest.fail "stack lost"
  | Some s ->
      Alcotest.(check int) "records" 3 (List.length s.Mmt.Header.records);
      Alcotest.(check bool) "not overflowed" false s.Mmt.Header.overflowed

let test_int_stack_overflow_flag_roundtrip () =
  let stack =
    {
      Mmt.Header.records = List.init Mmt.Header.max_int_hops record;
      overflowed = true;
    }
  in
  let header = Mmt.Header.create ~experiment ~int_stack:stack () in
  match Mmt.Header.decode_bytes (Mmt.Header.encode header) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok h -> (
      match h.Mmt.Header.int_stack with
      | Some s -> Alcotest.(check bool) "E bit survives" true s.Mmt.Header.overflowed
      | None -> Alcotest.fail "stack lost")

let test_int_stack_bad_count_rejected () =
  let header =
    Mmt.Header.create ~experiment ~int_stack:Mmt.Header.empty_int_stack ()
  in
  let frame = Mmt.Header.encode header in
  let off = Option.get (Mmt.Header.offset_of_int header) in
  Bytes.set frame off (Char.chr (Mmt.Header.max_int_hops + 3));
  Alcotest.(check bool) "oversized count rejected" true
    (match Mmt.Header.decode_bytes frame with Error _ -> true | Ok _ -> false)

let test_int_ext_is_fixed_size () =
  let empty =
    Mmt.Header.create ~experiment ~int_stack:Mmt.Header.empty_int_stack ()
  in
  let full =
    Mmt.Header.create ~experiment
      ~int_stack:
        {
          Mmt.Header.records = List.init Mmt.Header.max_int_hops record;
          overflowed = false;
        }
      ()
  in
  Alcotest.(check int) "size independent of fill level" (Mmt.Header.size empty)
    (Mmt.Header.size full);
  Alcotest.(check int) "size = core + ext"
    (Mmt.Header.size (Mmt.Header.create ~experiment ()) + Mmt.Header.int_ext_size)
    (Mmt.Header.size empty)

(* In-place stamping -------------------------------------------------- *)

let push frame ~off i =
  Mmt.Header.push_int_record_in_place frame ~ext_off:off ~node_id:(i + 1)
    ~mode_id:1 ~queue_depth:(64 * i)
    ~ingress:(Units.Time.us (float_of_int (5 * i)))
    ~egress:(Units.Time.us (float_of_int ((5 * i) + 1)))

let test_push_in_place_appends () =
  let header =
    Mmt.Header.create ~experiment ~int_stack:Mmt.Header.empty_int_stack ()
  in
  let frame = Mmt.Header.encode header in
  let off = Option.get (Mmt.Header.offset_of_int header) in
  Alcotest.(check (option int)) "first slot" (Some 0) (push frame ~off 0);
  Alcotest.(check (option int)) "second slot" (Some 1) (push frame ~off 1);
  match Mmt.Header.decode_bytes frame with
  | Error e -> Alcotest.failf "decode after push: %s" e
  | Ok h -> (
      match h.Mmt.Header.int_stack with
      | None -> Alcotest.fail "stack lost"
      | Some s ->
          Alcotest.(check int) "two records" 2 (List.length s.Mmt.Header.records);
          let second = List.nth s.Mmt.Header.records 1 in
          Alcotest.(check int) "node id" 2 second.Mmt.Header.node_id;
          Alcotest.(check int) "hop index" 1 second.Mmt.Header.hop_index;
          Alcotest.(check bool) "no overflow" false s.Mmt.Header.overflowed)

let test_push_in_place_overflow_sets_e_bit () =
  let header =
    Mmt.Header.create ~experiment ~int_stack:Mmt.Header.empty_int_stack ()
  in
  let frame = Mmt.Header.encode header in
  let off = Option.get (Mmt.Header.offset_of_int header) in
  for i = 0 to Mmt.Header.max_int_hops - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "slot %d" i)
      (Some i) (push frame ~off i)
  done;
  Alcotest.(check (option int)) "full stack refuses" None
    (push frame ~off Mmt.Header.max_int_hops);
  match Mmt.Header.decode_bytes frame with
  | Error e -> Alcotest.failf "decode after overflow: %s" e
  | Ok h -> (
      match h.Mmt.Header.int_stack with
      | None -> Alcotest.fail "stack lost"
      | Some s ->
          Alcotest.(check int) "stack still full" Mmt.Header.max_int_hops
            (List.length s.Mmt.Header.records);
          Alcotest.(check bool) "E bit set" true s.Mmt.Header.overflowed)

(* Realizability (alongside the shipped-element checks) --------------- *)

let test_int_elements_realizable () =
  List.iter
    (fun (name, program) ->
      match Mmt_innet.Op.realizable program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s not realizable: %s" name e)
    [
      ("int-stamper", Mmt_int.Stamper.program);
      ("int-sink", Mmt_int.Sink.program);
    ]

let test_int_elements_attachable () =
  (* Switch.attach re-checks realizability; attaching must not raise. *)
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let node = Mmt_sim.Topology.add_node topo ~name:"sw" in
  let stamper = Mmt_int.Stamper.create ~node_id:1 ~mode_id:1 () in
  let sink =
    Mmt_int.Sink.create ~node_id:2 ~emit:ignore ~pool:(Mmt_sim.Pool.create ()) ()
  in
  let _sw =
    Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
      ~router:
        (Mmt_innet.Router.create ~ring:(Option.get (Mmt_sim.Topology.ring topo)) 0)
      ~elements:[ Mmt_int.Stamper.element stamper; Mmt_int.Sink.element sink ]
      ()
  in
  ()

(* Digest arithmetic -------------------------------------------------- *)

let test_digest_telescopes () =
  let digest =
    {
      Mmt_int.Digest.experiment;
      sequence = Some 9;
      records = List.init 3 record;
      overflowed = false;
      sink_node = 7;
      sink_at = Units.Time.us 40.;
    }
  in
  let covered = Option.get (Mmt_int.Digest.covered_span digest) in
  let pieces = Option.get (Mmt_int.Digest.segment_sum digest) in
  Alcotest.(check int) "telescoping sum is exact"
    (Units.Time.to_ns covered) (Units.Time.to_ns pieces);
  Alcotest.(check int) "covered = sink - first ingress"
    (Units.Time.to_ns (Units.Time.us 40.) - Units.Time.to_ns (Units.Time.us 10.))
    (Units.Time.to_ns covered)

(* Pilot integration -------------------------------------------------- *)

let lossless_int_config ?profile () =
  {
    Mmt_pilot.Pilot.default_config with
    Mmt_pilot.Pilot.fragment_count = 200;
    wan_loss = 0.;
    wan_corrupt = 0.;
    int_telemetry = true;
    profile =
      Option.value ~default:Mmt_pilot.Pilot.default_config.Mmt_pilot.Pilot.profile
        profile;
    payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 1024);
  }

let test_pilot_int_consistency () =
  let pilot = Mmt_pilot.Pilot.build (lossless_int_config ()) in
  Mmt_pilot.Pilot.run pilot;
  let r = Mmt_pilot.Pilot.results pilot in
  let receiver = r.Mmt_pilot.Pilot.receiver in
  Alcotest.(check int) "all delivered" 200 receiver.Mmt.Receiver.delivered;
  let collector =
    match Mmt_pilot.Pilot.int_collector pilot with
    | Some c -> c
    | None -> Alcotest.fail "collector missing with int_telemetry on"
  in
  let stats = Mmt_int.Collector.stats collector in
  Alcotest.(check int) "one digest per delivered fragment" 200
    stats.Mmt_int.Collector.digests;
  Alcotest.(check int) "no overflow on the 2-stamper path" 0
    stats.Mmt_int.Collector.overflowed;
  Alcotest.(check int) "no empty stacks" 0 stats.Mmt_int.Collector.empty;
  (* Every data packet was stamped at both programmable devices. *)
  Alcotest.(check int) "dtn1 stamps" 200 (Mmt_int.Collector.hop_stamps collector 1);
  Alcotest.(check int) "tofino stamps" 200 (Mmt_int.Collector.hop_stamps collector 2);
  (* The acceptance invariant: per-segment sums equal the end-to-end
     covered span, exactly, for every packet. *)
  Alcotest.(check int) "zero telescoping drift" 0
    (Mmt_int.Collector.max_inconsistency_ns collector);
  (* Residency medians are the device pipeline latencies. *)
  let p = Mmt_pilot.Pilot.default_config.Mmt_pilot.Pilot.profile in
  let median id =
    int_of_float
      (Stats.Summary.median (Option.get (Mmt_int.Collector.hop_residency collector id)))
  in
  Alcotest.(check int) "dtn1 residency = NIC pipeline"
    (Units.Time.to_ns p.Mmt_pilot.Profile.nic.Mmt_innet.Switch.pipeline_latency)
    (median 1);
  Alcotest.(check int) "tofino residency = switch pipeline"
    (Units.Time.to_ns p.Mmt_pilot.Profile.switch.Mmt_innet.Switch.pipeline_latency)
    (median 2);
  (* The collector's covered end-to-end agrees with the receiver's
     independently measured transport latency: the uncovered pieces
     (sensor -> DTN1 leg, final host overhead) are well under 1 ms. *)
  let receiver_mean =
    (* the receiver's summary is in seconds; the collector's in ns *)
    Stats.Summary.mean (Mmt.Receiver.latency_summary (Mmt_pilot.Pilot.receiver pilot))
    *. 1e9
  in
  let covered_mean = Stats.Summary.mean (Mmt_int.Collector.e2e collector) in
  Alcotest.(check bool) "covered span below transport latency" true
    (covered_mean < receiver_mean);
  Alcotest.(check bool) "uncovered remainder under 1 ms" true
    (receiver_mean -. covered_mean < 1e6);
  (* Sink accounting and report health. *)
  (match Mmt_pilot.Pilot.int_sink_stats pilot with
  | None -> Alcotest.fail "sink stats missing"
  | Some s -> Alcotest.(check int) "sink stripped every stack" 200 s.Mmt_int.Sink.stripped);
  Alcotest.(check bool) "report all ok" true
    (Mmt_telemetry.Report.all_ok (Mmt_int.Collector.report collector))

let test_pilot_int_strips_before_endpoint () =
  (* The receiver sees no Int_telemetry feature: the sink stripped it. *)
  let pilot = Mmt_pilot.Pilot.build (lossless_int_config ()) in
  Mmt_pilot.Pilot.run pilot;
  let stampers = Mmt_pilot.Pilot.int_stamper_stats pilot in
  Alcotest.(check int) "two stampers" 2 (List.length stampers);
  List.iter
    (fun (name, (s : Mmt_int.Stamper.stats)) ->
      Alcotest.(check int) (name ^ " stamped every data packet") 200
        s.Mmt_int.Stamper.stamped;
      Alcotest.(check int) (name ^ " no overflow") 0 s.Mmt_int.Stamper.overflowed)
    stampers

let test_pilot_int_off_is_inert () =
  let config = { (lossless_int_config ()) with Mmt_pilot.Pilot.int_telemetry = false } in
  let pilot = Mmt_pilot.Pilot.build config in
  Mmt_pilot.Pilot.run pilot;
  let r = Mmt_pilot.Pilot.results pilot in
  Alcotest.(check int) "all delivered" 200
    r.Mmt_pilot.Pilot.receiver.Mmt.Receiver.delivered;
  Alcotest.(check bool) "no collector" true
    (Mmt_pilot.Pilot.int_collector pilot = None);
  Alcotest.(check bool) "no stamper stats" true
    (Mmt_pilot.Pilot.int_stamper_stats pilot = [])

let test_pilot_int_fabric_profile () =
  let pilot =
    Mmt_pilot.Pilot.build
      (lossless_int_config ~profile:Mmt_pilot.Profile.fabric_virtual ())
  in
  Mmt_pilot.Pilot.run pilot;
  let collector = Option.get (Mmt_pilot.Pilot.int_collector pilot) in
  Alcotest.(check int) "zero drift on fabric too" 0
    (Mmt_int.Collector.max_inconsistency_ns collector);
  let median id =
    int_of_float
      (Stats.Summary.median (Option.get (Mmt_int.Collector.hop_residency collector id)))
  in
  Alcotest.(check int) "software-switch residency"
    (Units.Time.to_ns Mmt_innet.Switch.software_switch.Mmt_innet.Switch.pipeline_latency)
    (median 2)

let suite =
  [
    Alcotest.test_case "stack round-trip" `Quick test_int_stack_roundtrip;
    Alcotest.test_case "overflow flag round-trip" `Quick
      test_int_stack_overflow_flag_roundtrip;
    Alcotest.test_case "bad count rejected" `Quick test_int_stack_bad_count_rejected;
    Alcotest.test_case "fixed-size extension" `Quick test_int_ext_is_fixed_size;
    Alcotest.test_case "push in place appends" `Quick test_push_in_place_appends;
    Alcotest.test_case "push overflow sets E bit" `Quick
      test_push_in_place_overflow_sets_e_bit;
    Alcotest.test_case "stamper/sink realizable" `Quick test_int_elements_realizable;
    Alcotest.test_case "stamper/sink attachable" `Quick test_int_elements_attachable;
    Alcotest.test_case "digest telescopes" `Quick test_digest_telescopes;
    Alcotest.test_case "pilot INT consistency" `Quick test_pilot_int_consistency;
    Alcotest.test_case "pilot INT stamper accounting" `Quick
      test_pilot_int_strips_before_endpoint;
    Alcotest.test_case "pilot INT off is inert" `Quick test_pilot_int_off_is_inert;
    Alcotest.test_case "pilot INT fabric profile" `Quick test_pilot_int_fabric_profile;
  ]
