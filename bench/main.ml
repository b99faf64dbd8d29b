(* Benchmark harness: regenerates every table and figure of the paper
   (sections E-T1, E-F1..E-F4, E-A1/A2/A4 via Mmt_experiments.Registry)
   and then runs the E-A3 micro-benchmarks: per-packet header and
   pipeline costs, the P4-realizability proxy.

   `--json FILE` additionally writes the per-op estimates and sweep
   wall-clocks as machine-readable JSON (the committed BENCH_pr3.json
   baseline).  `--jobs N` times the experiment sweep on N domains and
   checks the parallel reports against the sequential ones. *)

open Mmt_util
open Bechamel
open Toolkit

let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:1
let buffer_ip = Mmt_frame.Addr.Ip.of_octets 10 0 1 1
let notify_ip = Mmt_frame.Addr.Ip.of_octets 10 0 0 1

let full_header =
  Mmt.Header.create ~sequence:123456
    ~retransmit_from:buffer_ip
    ~timely:{ Mmt.Header.deadline = Units.Time.ms 20.; notify = notify_ip }
    ~age:
      {
        Mmt.Header.age_us = 10;
        budget_us = 20_000;
        aged = false;
        hop_count = 1;
        last_touch_ns = Units.Time.us 3.;
      }
    ~experiment ()

let encoded_full = Mmt.Header.encode full_header
let mode0_header = Mmt.Header.mode0 ~experiment
let encoded_mode0 = Mmt.Header.encode mode0_header

let age_frame = Bytes.copy encoded_full
let age_offset = Option.get (Mmt.Header.offset_of_age full_header)

let wan_mode =
  Mmt.Mode.make ~name:"bench-wan" ~reliable:buffer_ip
    ~deadline_budget:(Units.Time.ms 20., notify_ip)
    ~age_budget_us:20_000 ()

let rewriter =
  Mmt_innet.Mode_rewriter.create ~mode:wan_mode ~pool:(Mmt_sim.Pool.create ()) ()
let rewriter_element = Mmt_innet.Mode_rewriter.element rewriter

let mode0_frame = Bytes.cat encoded_mode0 (Bytes.make 1024 'p')

(* A frame already in the rewriter's target shape: the fast path. *)
let wan_header =
  Mmt.Header.create ~sequence:123456
    ~retransmit_from:buffer_ip
    ~timely:{ Mmt.Header.deadline = Units.Time.ms 20.; notify = notify_ip }
    ~age:
      {
        Mmt.Header.age_us = 10;
        budget_us = 20_000;
        aged = false;
        hop_count = 1;
        last_touch_ns = Units.Time.us 3.;
      }
    ~experiment ()

let wan_frame = Bytes.cat (Mmt.Header.encode wan_header) (Bytes.make 1024 'p')

let fragment =
  {
    Mmt_daq.Fragment.run = 1;
    trigger = 42;
    timestamp = Units.Time.us 17.;
    experiment;
    detector =
      Mmt_daq.Fragment.Wib_ethernet
        { crate = 1; slot = 2; fiber = 3; first_channel = 0; channel_count = 64 };
    payload = Bytes.make 7200 'x';
  }

let encoded_fragment = Mmt_daq.Fragment.encode fragment

let lartpc_config =
  { Mmt_daq.Lartpc.iceberg with Mmt_daq.Lartpc.channels = 8; samples_per_channel = 64 }

let int_header =
  Mmt.Header.create ~sequence:123456 ~experiment
    ~int_stack:
      {
        Mmt.Header.records =
          List.init Mmt.Header.max_int_hops (fun i ->
              {
                Mmt.Header.node_id = i + 1;
                mode_id = 1;
                hop_index = i;
                queue_depth = 4096;
                ingress_ns = Units.Time.us 10.;
                egress_ns = Units.Time.us 12.;
              });
        overflowed = false;
      }
    ()

let encoded_int = Mmt.Header.encode int_header
let int_strip_frame = Bytes.cat encoded_int (Bytes.make 1024 'p')

let int_stamp_frame =
  Mmt.Header.encode
    (Mmt.Header.create ~experiment ~int_stack:Mmt.Header.empty_int_stack ())

let int_offset =
  Option.get
    (Mmt.Header.offset_of_int
       (Mmt.Header.create ~experiment ~int_stack:Mmt.Header.empty_int_stack ()))

let stamper = Mmt_int.Stamper.create ~node_id:2 ~mode_id:1 ()
let stamper_element = Mmt_int.Stamper.element stamper
let int_packet_frame = Bytes.cat int_stamp_frame (Bytes.make 1024 'p')

(* E-F5 facility demux: the facility edge resolves a destination
   address to a per-flow handler on every packet.  The legacy shape — a
   per-flow association list probed with [Addr.Ip.equal] — is O(flows)
   per packet (super-linear work across the facility); the shipped
   shape decodes the flow id from the address bits and indexes a dense
   [Flow_table].  Both are measured on the worst case, the last flow. *)
let facility_flows = 1000

let facility_demux_assoc =
  List.init facility_flows (fun f -> (Mmt_facility.Address.flow_ip f, f))

let facility_last_ip = Mmt_facility.Address.flow_ip (facility_flows - 1)

let facility_table =
  Mmt_facility.Flow_table.init ~flows:facility_flows (fun f -> f)

let facility_demux_legacy = "facility edge demux, list scan (1000 flows, legacy)"
let facility_demux_current = "facility edge demux, classify + flow table"

let view_of_frame frame =
  match Mmt.Header.View.of_frame frame with
  | Ok view -> view
  | Error reason -> failwith ("bench: view failed: " ^ reason)

let bench_tests =
  Test.make_grouped ~name:"E-A3"
    [
      Test.make ~name:"header encode (mode 0, 8 B)" (Staged.stage (fun () ->
           ignore (Mmt.Header.encode mode0_header)));
      Test.make ~name:"header encode (full, 48 B)" (Staged.stage (fun () ->
           ignore (Mmt.Header.encode full_header)));
      Test.make ~name:"header decode (mode 0)" (Staged.stage (fun () ->
           ignore (Mmt.Header.decode_bytes encoded_mode0)));
      Test.make ~name:"header decode (full)" (Staged.stage (fun () ->
           ignore (Mmt.Header.decode_bytes encoded_full)));
      Test.make ~name:"header view (mode 0)" (Staged.stage (fun () ->
           ignore (Mmt.Header.View.of_frame encoded_mode0)));
      Test.make ~name:"header view (full)" (Staged.stage (fun () ->
           ignore (Mmt.Header.View.of_frame encoded_full)));
      Test.make ~name:"deadline read via decode (legacy)" (Staged.stage (fun () ->
           match Mmt.Header.decode_bytes encoded_full with
           | Ok { Mmt.Header.timely = Some { Mmt.Header.deadline; _ }; _ } ->
               ignore deadline
           | Ok _ | Error _ -> ()));
      Test.make ~name:"deadline read via view" (Staged.stage (fun () ->
           match Mmt.Header.View.of_frame encoded_full with
           | Ok view when Mmt.Header.View.has view Mmt.Feature.Timely ->
               ignore (Mmt.Header.View.deadline_ns view)
           | Ok _ | Error _ -> ()));
      Test.make ~name:"age touch in place (ALU path)" (Staged.stage (fun () ->
           ignore
             (Mmt.Header.touch_age_in_place age_frame ~ext_off:age_offset
                ~now:(Units.Time.us 100.))));
      Test.make ~name:"age touch via view" (Staged.stage (fun () ->
           let view = view_of_frame age_frame in
           ignore (Mmt.Header.View.touch_age view ~now:(Units.Time.us 100.))));
      Test.make ~name:"age touch via decode/re-encode (legacy)"
        (Staged.stage (fun () ->
             match Mmt.Header.decode_bytes age_frame with
             | Ok ({ Mmt.Header.age = Some age; _ } as header) ->
                 let header =
                   Mmt.Header.with_age header
                     {
                       age with
                       Mmt.Header.age_us = age.Mmt.Header.age_us + 97;
                       last_touch_ns = Units.Time.us 100.;
                       hop_count = age.Mmt.Header.hop_count + 1;
                     }
                 in
                 ignore (Mmt.Header.encode header)
             | Ok _ | Error _ -> ()));
      Test.make ~name:"mode rewrite slow path (mode 0 -> 1, 1 KiB frame)"
        (Staged.stage (fun () ->
             let packet =
               Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
                 (Bytes.copy mode0_frame)
             in
             ignore
               (rewriter_element.Mmt_innet.Element.process ~now:Units.Time.zero
                  packet)));
      Test.make ~name:"mode rewrite fast path (already in mode, 1 KiB frame)"
        (Staged.stage (fun () ->
             let packet =
               Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero wan_frame
             in
             ignore
               (rewriter_element.Mmt_innet.Element.process ~now:Units.Time.zero
                  packet)));
      Test.make ~name:"INT header encode (4-hop stack)" (Staged.stage (fun () ->
           ignore (Mmt.Header.encode int_header)));
      Test.make ~name:"INT header decode (4-hop stack)" (Staged.stage (fun () ->
           ignore (Mmt.Header.decode_bytes encoded_int)));
      Test.make ~name:"INT strip via decode/re-encode (legacy)"
        (Staged.stage (fun () ->
             match Mmt.Header.decode_bytes int_strip_frame with
             | Ok header ->
                 let stripped =
                   Mmt.Header.strip header Mmt.Feature.Int_telemetry
                 in
                 let payload_offset = Mmt.Header.size header in
                 let payload =
                   Bytes.sub int_strip_frame payload_offset
                     (Bytes.length int_strip_frame - payload_offset)
                 in
                 ignore (Bytes.cat (Mmt.Header.encode stripped) payload)
             | Error _ -> ()));
      Test.make ~name:"INT strip via view" (Staged.stage (fun () ->
           let view = view_of_frame int_strip_frame in
           ignore (Mmt.Header.View.strip_int view)));
      Test.make ~name:"INT stamp append (in-place ALU path)" (Staged.stage (fun () ->
           (* reset the hop count so every iteration measures a real append *)
           Bytes.set int_stamp_frame int_offset '\000';
           ignore
             (Mmt.Header.push_int_record_in_place int_stamp_frame
                ~ext_off:int_offset ~node_id:2 ~mode_id:1 ~queue_depth:4096
                ~ingress:(Units.Time.us 10.) ~egress:(Units.Time.us 12.))));
      Test.make ~name:"INT stamp via decode + offset (legacy)"
        (Staged.stage (fun () ->
             Bytes.set int_stamp_frame int_offset '\000';
             match Mmt.Header.decode_bytes int_stamp_frame with
             | Ok header -> (
                 match Mmt.Header.offset_of_int header with
                 | Some off ->
                     ignore
                       (Mmt.Header.push_int_record_in_place int_stamp_frame
                          ~ext_off:off ~node_id:2 ~mode_id:1 ~queue_depth:4096
                          ~ingress:(Units.Time.us 10.)
                          ~egress:(Units.Time.us 12.))
                 | None -> ())
             | Error _ -> ()));
      Test.make ~name:"INT stamp via view" (Staged.stage (fun () ->
           Bytes.set int_stamp_frame int_offset '\000';
           let view = view_of_frame int_stamp_frame in
           ignore
             (Mmt.Header.View.push_int_record view ~node_id:2 ~mode_id:1
                ~queue_depth:4096 ~ingress:(Units.Time.us 10.)
                ~egress:(Units.Time.us 12.))));
      Test.make ~name:"INT stamper element (per packet, 1 KiB frame)"
        (Staged.stage (fun () ->
             Bytes.set int_packet_frame int_offset '\000';
             let packet =
               Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero int_packet_frame
             in
             ignore
               (stamper_element.Mmt_innet.Element.process ~now:(Units.Time.us 100.)
                  packet)));
      Test.make ~name:"fragment encode (7200 B payload)" (Staged.stage (fun () ->
           ignore (Mmt_daq.Fragment.encode fragment)));
      Test.make ~name:"fragment decode" (Staged.stage (fun () ->
           ignore (Mmt_daq.Fragment.decode encoded_fragment)));
      Test.make ~name:"LArTPC window synthesis (8ch x 64)"
        (let rng = Rng.create ~seed:5L in
         Staged.stage (fun () ->
             ignore
               (Mmt_daq.Lartpc.generate_window lartpc_config rng
                  ~activity:Mmt_daq.Lartpc.Cosmic)));
      (* Dispatched by [Engine.run], the loop the forward path below
         uses, so the gate's ceiling prices both sides the same way. *)
      Test.make ~name:"engine schedule+run event"
        (let engine = Mmt_sim.Engine.create () in
         Staged.stage (fun () ->
             ignore
               (Mmt_sim.Engine.schedule engine
                  ~at:(Mmt_sim.Engine.now engine)
                  ignore);
             Mmt_sim.Engine.run engine));
      Test.make ~name:"engine create+schedule+run (cold)"
        (Staged.stage (fun () ->
             let engine = Mmt_sim.Engine.create () in
             ignore (Mmt_sim.Engine.schedule engine ~at:Units.Time.zero ignore);
             Mmt_sim.Engine.run engine));
      Test.make ~name:facility_demux_legacy (Staged.stage (fun () ->
           ignore
             (List.find_opt
                (fun (ip, _) -> Mmt_frame.Addr.Ip.equal ip facility_last_ip)
                facility_demux_assoc)));
      Test.make ~name:facility_demux_current (Staged.stage (fun () ->
           match Mmt_facility.Address.classify facility_last_ip with
           | Mmt_facility.Address.Flow f ->
               ignore (Mmt_facility.Flow_table.get facility_table f)
           | _ -> ()));
    ]

(* E-F5 per-packet cost: one small facility point, wall clock divided
   by engine events.  Measured outside bechamel — a whole scenario per
   iteration would blow the quota. *)
let facility_per_event () =
  let config =
    {
      Mmt_facility.Scenario.default with
      Mmt_facility.Scenario.flows = 100;
      duration = Units.Time.ms 1.;
    }
  in
  (* Warm once so allocator/page-cache effects land outside the timing. *)
  ignore (Mmt_facility.Scenario.run config);
  let started = Unix.gettimeofday () in
  let result = Mmt_facility.Scenario.run config in
  let wall = Unix.gettimeofday () -. started in
  let events = result.Mmt_facility.Scenario.events in
  let ns = wall *. 1e9 /. float_of_int events in
  Printf.printf "facility per-event cost: %.0f ns over %d events (100 flows)\n"
    ns events;
  ("facility scenario per-event (100 flows, 1 ms)", ns)

let print_demux_note micro =
  (* bechamel prefixes every test with its group name *)
  match
    (List.assoc_opt ("E-A3/" ^ facility_demux_legacy) micro,
     List.assoc_opt ("E-A3/" ^ facility_demux_current) micro)
  with
  | Some old_ns, Some new_ns when new_ns > 0. ->
      Printf.printf
        "facility demux before/after: list scan %.0f ns -> classify + \
         flow table %.0f ns per packet at %d flows (%.0fx)\n"
        old_ns new_ns facility_flows (old_ns /. new_ns)
  | _ -> ()

(* Forward-path cost: the ring-buffer packet path end to end.  A
   steady-state send -> link -> deliver loop over ring-slot packets:
   each iteration acquires a slot (recycled frame), pushes it down a
   link on the same ring, and the delivery retires it back into the
   ring.  Each hop is two engine events (serialize, propagate); the gate
   bounds the per-packet wall-clock in raw engine events, and the loop
   must not touch the minor heap. *)
let check_forward_path () =
  let engine = Mmt_sim.Engine.create () in
  let ring = Mmt_sim.Ring.create () in
  let pool = Mmt_sim.Ring.pool ring in
  let link =
    Mmt_sim.Link.create ~engine ~name:"fwd" ~rate:(Units.Rate.gbps 100.)
      ~propagation:(Units.Time.us 1.) ~ring
      ~deliver:(fun p -> Mmt_sim.Ring.in_packet_done ring p)
      ()
  in
  let forward i =
    let p =
      Mmt_sim.Ring.in_packet ring ~id:i ~born:(Mmt_sim.Engine.now engine) 1024
    in
    Mmt_sim.Link.send link p;
    Mmt_sim.Engine.run engine
  in
  (* Warm: ring arena, pool fill, engine heap growth. *)
  for i = 0 to 9_999 do
    forward i
  done;
  (* Best-of-reps: the micro side of the forward/event ratio comes
     from bechamel's statistically robust estimate, so the forward
     side must not be a single timing window that a descheduling blip
     can inflate past the gate's ceiling.  The allocation audit spans
     every rep — it must be exactly zero regardless. *)
  let reps = 5 and n = 40_000 in
  let before_words = Gc.minor_words () in
  let best = ref infinity in
  for _rep = 1 to reps do
    let started = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      forward i
    done;
    let wall = Unix.gettimeofday () -. started in
    let ns = wall *. 1e9 /. float_of_int n in
    if ns < !best then best := ns
  done;
  let after_words = Gc.minor_words () in
  let ns = !best in
  let words = (after_words -. before_words) /. float_of_int (reps * n) in
  let rstats = Mmt_sim.Ring.stats ring in
  let pstats = Mmt_sim.Pool.stats pool in
  let recycle_ratio =
    if pstats.Mmt_sim.Pool.acquired = 0 then 0.
    else
      float_of_int pstats.Mmt_sim.Pool.recycled
      /. float_of_int pstats.Mmt_sim.Pool.acquired
  in
  Printf.printf
    "forward path (ring slot -> link -> deliver -> retire): %.0f ns, %.3f \
     minor words/packet %s\n"
    ns words
    (if words < 0.5 then "(allocation-free)" else "(ALLOCATES)");
  Printf.printf
    "forward-path ring: %d slots, %d acquires, %d retired, %d overflow; pool \
     recycle ratio %.3f\n"
    rstats.Mmt_sim.Ring.capacity rstats.Mmt_sim.Ring.acquired
    rstats.Mmt_sim.Ring.retired rstats.Mmt_sim.Ring.overflow recycle_ratio;
  (ns, words, rstats, recycle_ratio)

(* Burst cost: the forward path with the wire full.  1 000 packets of
   1 KiB are queued at t = 0 on a 100 Gbps link whose propagation is
   1 000 serialization times, so every packet is on the wire before the
   first arrives.  When each packet in flight held its own heap entry,
   every event paid for a heap 1 000 deep.  The reference is the same
   packets forwarded one at a time on the same link, timed in windows
   alternating with the bursts' so that both see the same machine; the
   gate bounds the ratio. *)
let burst_packets = 1_000

let check_burst () =
  let engine = Mmt_sim.Engine.create () in
  let ring = Mmt_sim.Ring.create () in
  let rate = Units.Rate.gbps 100. in
  let serialization = Units.Rate.transmission_time rate (Units.Size.kib 1) in
  let link =
    Mmt_sim.Link.create ~engine ~name:"burst" ~rate
      ~propagation:(Units.Time.scale serialization (float_of_int burst_packets))
      ~ring
      ~deliver:(fun p -> Mmt_sim.Ring.in_packet_done ring p)
      ()
  in
  let send i =
    Mmt_sim.Link.send link
      (Mmt_sim.Ring.in_packet ring ~id:i ~born:(Mmt_sim.Engine.now engine) 1024)
  in
  let burst () =
    for i = 0 to burst_packets - 1 do
      send i
    done;
    Mmt_sim.Engine.run engine
  in
  let one_at_a_time () =
    for i = 0 to burst_packets - 1 do
      send i;
      Mmt_sim.Engine.run engine
    done
  in
  (* Best of [reps] windows of [per_window] rounds of each. *)
  let reps = 20 and per_window = 8 in
  let window run =
    let started = Unix.gettimeofday () in
    for _ = 1 to per_window do
      run ()
    done;
    (Unix.gettimeofday () -. started)
    *. 1e9
    /. float_of_int (per_window * burst_packets)
  in
  (* Warm: ring arena, pool fill, engine and queue growth. *)
  ignore (window burst);
  ignore (window one_at_a_time);
  let best_burst = ref infinity and best_single = ref infinity in
  for _ = 1 to reps do
    best_burst := Float.min !best_burst (window burst);
    best_single := Float.min !best_single (window one_at_a_time)
  done;
  Printf.printf
    "burst (%d x 1 KiB on the wire at once): %.0f ns/packet, %.0f ns/packet \
     one at a time (%.2fx)\n"
    burst_packets !best_burst !best_single (!best_burst /. !best_single);
  (!best_burst, !best_single)

(* Payload copy audit: E-A1's placement run sends one caller-owned
   4 KiB buffer per fragment with [Sender.send] through a rewriter, a
   retransmission buffer and a receiver, so every payload byte is
   materialized.  The major heap counts the full-payload copies each
   delivered fragment costs; the buffer's retransmission copy is the one
   kept on purpose. *)
let copy_audit_payload = Units.Size.bytes 4096

(* One copy of a [size] payload, in words. *)
let payload_words size = float_of_int (Units.Size.to_bytes size / 8)

type copy_audit = { copy_major_words : float; copy_delivered : int }

let check_copy_audit () =
  let params =
    Mmt_pilot.Runners.Placement_run.params ~fragment_size:copy_audit_payload
      ~loss:0.003 ~fragment_count:1500 ()
  in
  let measure () =
    Gc.full_major ();
    let major_before = (Gc.quick_stat ()).Gc.major_words in
    let outcome = Mmt_pilot.Runners.Placement_run.run params in
    ( (Gc.quick_stat ()).Gc.major_words -. major_before,
      outcome.Mmt_pilot.Runners.Placement_run.delivered )
  in
  ignore (measure ()) (* warm *);
  let major_words, delivered = measure () in
  Printf.printf
    "E-A1 placement major words: %.2e, %.0f words/delivered fragment (%.2f \
     payload copies)\n"
    major_words
    (major_words /. float_of_int delivered)
    (major_words /. float_of_int delivered /. payload_words copy_audit_payload);
  { copy_major_words = major_words; copy_delivered = delivered }

(* E-F4 pilot allocation audit: the whole pilot (senders, links,
   rewriter, INT path, receiver, event builder) on its packet ring.  The
   ring must account for (and retire) the packets it handed out.  The
   pilot's Synthetic payloads are virtual (wire padding), so the major
   heap should hold well under one payload copy per fragment. *)
let pilot_audit_payload = Units.Size.bytes 4096

let pilot_audit_config =
  {
    Mmt_pilot.Pilot.default_config with
    Mmt_pilot.Pilot.fragment_count = 1500;
    payload = Mmt_daq.Workload.Synthetic pilot_audit_payload;
    wan_loss = 0.003;
    wan_corrupt = 0.001;
    int_telemetry = true;
  }

type pilot_audit = {
  minor_words : float;
  major_words : float;
  events : int;
  delivered : int;
  ring : Mmt_sim.Ring.stats;
  recycle_ratio : float;
}

let check_pilot_allocation () =
  let measure () =
    let pilot = Mmt_pilot.Pilot.build pilot_audit_config in
    Gc.full_major ();
    let minor_before = Gc.minor_words () in
    let major_before = (Gc.quick_stat ()).Gc.major_words in
    Mmt_pilot.Pilot.run pilot;
    let major = (Gc.quick_stat ()).Gc.major_words -. major_before in
    (Gc.minor_words () -. minor_before, major, pilot)
  in
  ignore (measure ()) (* warm *);
  let words, major_words, pilot = measure () in
  let events = Mmt_sim.Engine.processed (Mmt_pilot.Pilot.engine pilot) in
  let delivered =
    (Mmt_pilot.Pilot.results pilot).Mmt_pilot.Pilot.receiver
      .Mmt.Receiver.delivered
  in
  let ring = List.hd (Mmt_pilot.Pilot.ring_stats pilot) in
  let recycle_ratio =
    if ring.Mmt_sim.Ring.acquired = 0 then 0.
    else
      float_of_int ring.Mmt_sim.Ring.retired
      /. float_of_int ring.Mmt_sim.Ring.acquired
  in
  Printf.printf
    "E-F4 pilot minor words: %.2e, %.1f words/event over %d events, %d \
     delivered (%.0f words/delivered fragment)\n"
    words (words /. float_of_int events) events delivered
    (words /. float_of_int delivered);
  Printf.printf
    "E-F4 pilot major words: %.2e, %.0f words/delivered fragment (%.1f \
     payload copies)\n"
    major_words
    (major_words /. float_of_int delivered)
    (major_words /. float_of_int delivered /. payload_words pilot_audit_payload);
  Printf.printf
    "E-F4 pilot ring: %d acquires, %d retired (recycle ratio %.3f), %d in \
     use at quiescence, %d overflow\n"
    ring.Mmt_sim.Ring.acquired ring.Mmt_sim.Ring.retired recycle_ratio
    ring.Mmt_sim.Ring.in_use ring.Mmt_sim.Ring.overflow;
  { minor_words = words; major_words; events; delivered; ring; recycle_ratio }

(* Allocation audit: `Engine.schedule` must not allocate beyond the
   caller's callback.  Measured outside bechamel so the measurement
   itself cannot allocate between the two counter reads. *)
let check_schedule_allocation () =
  let engine = Mmt_sim.Engine.create () in
  (* Warm up past all array growth: 4096 in-flight events. *)
  for i = 0 to 4_095 do
    ignore (Mmt_sim.Engine.schedule engine ~at:(Units.Time.of_int_ns i) ignore)
  done;
  Mmt_sim.Engine.run engine;
  for i = 0 to 99 do
    ignore (Mmt_sim.Engine.schedule engine ~at:(Units.Time.of_int_ns i) ignore)
  done;
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    ignore (Mmt_sim.Engine.schedule engine ~at:(Units.Time.of_int_ns i) ignore)
  done;
  let after = Gc.minor_words () in
  Mmt_sim.Engine.run engine;
  let words_per_schedule = (after -. before) /. 1000. in
  Printf.printf "engine schedule allocation: %.3f minor words/event %s\n\n"
    words_per_schedule
    (if words_per_schedule < 0.5 then "(allocation-free)" else "(ALLOCATES)");
  words_per_schedule

let run_micro_benchmarks ~quota ~limit () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~stabilize:true () in
  let raw = Benchmark.all cfg instances bench_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.create
      ~title:
        "E-A3 micro-benchmarks: per-packet header/pipeline costs (host CPU; a \
         Tofino pipeline does the same field ops at line rate)"
      ~columns:[ ("operation", Table.Left); ("time per op", Table.Right) ]
      ()
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (value :: _) -> Some value
        | Some [] | None -> None
      in
      rows := (name, estimate) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, estimate) ->
      let per_run =
        match estimate with
        | Some value -> Printf.sprintf "%.0f ns" value
        | None -> "n/a"
      in
      Table.add_row table [ name; per_run ])
    rows;
  Table.print table;
  List.filter_map
    (fun (name, estimate) -> Option.map (fun ns -> (name, ns)) estimate)
    rows

(* --- sweep ------------------------------------------------------------- *)

let render_sweep results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ((entry : Mmt_experiments.Registry.entry), (output, ok), _wall_s) ->
      Buffer.add_string buf
        (Printf.sprintf "### %s — %s\n\n" entry.Mmt_experiments.Registry.id
           entry.Mmt_experiments.Registry.title);
      Buffer.add_string buf output;
      if not ok then
        Buffer.add_string buf
          (Printf.sprintf "!! %s: some shape checks FAILED\n"
             entry.Mmt_experiments.Registry.id);
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let run_sweep ~jobs () =
  let started = Unix.gettimeofday () in
  let sequential = Mmt_experiments.Registry.run_collect ~jobs:1 () in
  let sequential_wall = Unix.gettimeofday () -. started in
  print_string (render_sweep sequential);
  let parallel =
    if jobs = 1 then None
    else begin
      let cores = Domain.recommended_domain_count () in
      let started = Unix.gettimeofday () in
      let results = Mmt_experiments.Registry.run_collect ~jobs () in
      let wall = Unix.gettimeofday () -. started in
      let identical =
        String.equal (render_sweep sequential) (render_sweep results)
      in
      Printf.printf
        "sweep: sequential %.2f s, --jobs %d on %d cores %.2f s, \
         reports %s\n\n"
        sequential_wall jobs cores wall
        (if identical then "byte-identical" else "DIFFER");
      Some (cores, wall, identical)
    end
  in
  let all_ok =
    List.for_all (fun (_, (_, ok), _) -> ok) sequential
    && match parallel with Some (_, _, identical) -> identical | None -> true
  in
  (sequential, sequential_wall, parallel, all_ok)

(* --- JSON -------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~path ~quota ~limit ~jobs ~micro ~alloc_words ~forward
    ~burst ~copy_audit ~pilot_audit ~sweep =
  let results, sequential_wall, parallel, _ = sweep in
  let fwd_ns, fwd_words, (fwd_ring : Mmt_sim.Ring.stats), fwd_recycle =
    forward
  in
  let burst_ns, single_ns = burst in
  let gc = Gc.get () in
  let ring_json (r : Mmt_sim.Ring.stats) =
    Printf.sprintf
      "{ \"capacity\": %d, \"acquired\": %d, \"retired\": %d, \
       \"double_done\": %d, \"overflow\": %d, \"in_use\": %d }"
      r.Mmt_sim.Ring.capacity r.Mmt_sim.Ring.acquired
      r.Mmt_sim.Ring.retired r.Mmt_sim.Ring.double_done
      r.Mmt_sim.Ring.overflow r.Mmt_sim.Ring.in_use
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"config\": { \"quota_s\": %g, \"limit\": %d, \"jobs\": %d },\n"
       quota limit jobs);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"gc\": { \"minor_heap_kb\": %d, \"space_overhead\": %d },\n"
       (gc.Gc.minor_heap_size * Sys.word_size / 8 / 1024)
       gc.Gc.space_overhead);
  Buffer.add_string buf "  \"forward\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"ns_per_packet\": %.1f,\n" fwd_ns);
  Buffer.add_string buf
    (Printf.sprintf "    \"alloc_minor_words_per_packet\": %.3f,\n" fwd_words);
  Buffer.add_string buf
    (Printf.sprintf "    \"burst_ns_per_packet\": %.1f,\n" burst_ns);
  Buffer.add_string buf
    (Printf.sprintf "    \"burst_single_ns_per_packet\": %.1f,\n" single_ns);
  Buffer.add_string buf
    (Printf.sprintf "    \"pool_recycle_ratio\": %.4f,\n" fwd_recycle);
  Buffer.add_string buf
    (Printf.sprintf "    \"ring\": %s\n" (ring_json fwd_ring));
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"copy_audit\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"major_words_per_delivered\": %.1f,\n"
       (copy_audit.copy_major_words /. float_of_int copy_audit.copy_delivered));
  Buffer.add_string buf
    (Printf.sprintf "    \"frame_words\": %.0f,\n"
       (payload_words copy_audit_payload));
  Buffer.add_string buf
    (Printf.sprintf "    \"delivered\": %d\n" copy_audit.copy_delivered);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"pilot_audit\": {\n";
  let pa = pilot_audit in
  Buffer.add_string buf
    (Printf.sprintf "    \"minor_words\": %.0f,\n" pa.minor_words);
  Buffer.add_string buf
    (Printf.sprintf "    \"minor_words_per_event\": %.2f,\n"
       (pa.minor_words /. float_of_int pa.events));
  Buffer.add_string buf
    (Printf.sprintf "    \"minor_words_per_delivered\": %.1f,\n"
       (pa.minor_words /. float_of_int pa.delivered));
  Buffer.add_string buf
    (Printf.sprintf "    \"major_words_per_delivered\": %.1f,\n"
       (pa.major_words /. float_of_int pa.delivered));
  Buffer.add_string buf
    (Printf.sprintf "    \"frame_words\": %.0f,\n"
       (payload_words pilot_audit_payload));
  Buffer.add_string buf (Printf.sprintf "    \"events\": %d,\n" pa.events);
  Buffer.add_string buf
    (Printf.sprintf "    \"delivered\": %d,\n" pa.delivered);
  Buffer.add_string buf
    (Printf.sprintf "    \"ring_recycle_ratio\": %.4f,\n" pa.recycle_ratio);
  Buffer.add_string buf
    (Printf.sprintf "    \"ring\": %s\n" (ring_json pa.ring));
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schedule_alloc_minor_words\": %.3f,\n" alloc_words);
  Buffer.add_string buf "  \"micro_ns\": {\n";
  let n = List.length micro in
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %.1f%s\n" (json_escape name) ns
           (if i = n - 1 then "" else ",")))
    micro;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"sweep\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"sequential_wall_s\": %.3f,\n" sequential_wall);
  (match parallel with
  | Some (cores, wall, identical) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"parallel_jobs\": %d,\n" jobs);
      Buffer.add_string buf (Printf.sprintf "    \"cores\": %d,\n" cores);
      Buffer.add_string buf
        (Printf.sprintf "    \"parallel_wall_s\": %.3f,\n" wall);
      Buffer.add_string buf
        (Printf.sprintf "    \"reports_identical\": %b,\n" identical)
  | None -> ());
  Buffer.add_string buf "    \"experiments\": [\n";
  let n = List.length results in
  List.iteri
    (fun i ((entry : Mmt_experiments.Registry.entry), (_, ok), wall_s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      { \"id\": \"%s\", \"title\": \"%s\", \"ok\": %b, \"wall_s\": %.3f }%s\n"
           (json_escape entry.Mmt_experiments.Registry.id)
           (json_escape entry.Mmt_experiments.Registry.title)
           ok wall_s
           (if i = n - 1 then "" else ",")))
    results;
  Buffer.add_string buf "    ]\n";
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* --- CLI --------------------------------------------------------------- *)

let run json jobs quota limit =
  print_endline "=== Shape-shifting Elephants: experiment reproductions ===";
  print_newline ();
  let sweep = run_sweep ~jobs () in
  print_endline "### E-A3 — micro-benchmarks";
  print_newline ();
  let micro = run_micro_benchmarks ~quota ~limit () in
  print_newline ();
  print_demux_note micro;
  let micro = micro @ [ facility_per_event () ] in
  print_newline ();
  let forward = check_forward_path () in
  let burst = check_burst () in
  print_newline ();
  let copy_audit = check_copy_audit () in
  let pilot_audit = check_pilot_allocation () in
  print_newline ();
  let alloc_words = check_schedule_allocation () in
  Option.iter
    (fun path ->
      write_json ~path ~quota ~limit ~jobs ~micro ~alloc_words ~forward
        ~burst ~copy_audit ~pilot_audit ~sweep)
    json;
  let _, _, _, all_ok = sweep in
  if all_ok then begin
    print_endline "ALL SHAPE CHECKS PASSED";
    0
  end
  else begin
    print_endline "SOME SHAPE CHECKS FAILED";
    1
  end

let () =
  let open Cmdliner in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write per-op estimates and sweep wall-clocks as JSON.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Also time the experiment sweep on $(docv) domains and check \
             the reports against the sequential sweep.")
  in
  let quota =
    Arg.(
      value & opt float 0.25
      & info [ "quota" ] ~docv:"SECONDS"
          ~doc:"Bechamel time budget per micro-benchmark.")
  in
  let limit =
    Arg.(
      value & opt int 2000
      & info [ "limit" ] ~docv:"N"
          ~doc:"Bechamel iteration limit per micro-benchmark.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench"
         ~doc:"Reproduce the paper's tables/figures and micro-benchmarks.")
      Term.(const run $ json $ jobs $ quota $ limit)
  in
  exit (Cmd.eval' cmd)
