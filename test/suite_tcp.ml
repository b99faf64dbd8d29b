(* Baseline TCP: segment codec, congestion control, connection dynamics,
   message framing, UDP transport. *)
open Mmt_util

(* Segment --------------------------------------------------------------- *)

let test_segment_roundtrip () =
  let seg =
    Mmt_tcp.Segment.data ~src_port:42 ~dst_port:17 ~seq:123456789012
      ~ack:987654321098 ~window:1_000_000 (Bytes.of_string "abc")
  in
  match Mmt_tcp.Segment.decode (Mmt_tcp.Segment.encode seg) with
  | Ok decoded -> Alcotest.(check bool) "equal" true (Mmt_tcp.Segment.equal seg decoded)
  | Error e -> Alcotest.fail e

let test_pure_ack_roundtrip () =
  let seg = Mmt_tcp.Segment.pure_ack ~src_port:1 ~dst_port:1 ~ack:55 ~window:4096 in
  match Mmt_tcp.Segment.decode (Mmt_tcp.Segment.encode seg) with
  | Ok decoded ->
      Alcotest.(check bool) "flags" true decoded.Mmt_tcp.Segment.flags.Mmt_tcp.Segment.ack;
      Alcotest.(check int) "no payload" 0 (Bytes.length decoded.Mmt_tcp.Segment.payload)
  | Error e -> Alcotest.fail e

let test_segment_rejects_foreign () =
  Alcotest.(check bool) "mmt frame is not tcp" true
    (match
       Mmt_tcp.Segment.decode
         (Mmt.Header.encode
            (Mmt.Header.mode0 ~experiment:(Mmt.Experiment_id.make ~experiment:1 ~slice:0)))
     with
    | Error _ -> true
    | Ok _ -> false)

(* Congestion control ------------------------------------------------------ *)

let mss = 1000

let make_cc algorithm =
  Mmt_tcp.Congestion.create algorithm ~mss ~initial_window:(4 * mss)
    ~max_window:(1000 * mss)

let test_reno_slow_start () =
  let cc = make_cc Mmt_tcp.Congestion.Reno in
  Alcotest.(check bool) "starts in slow start" true (Mmt_tcp.Congestion.in_slow_start cc);
  let start = Mmt_tcp.Congestion.window cc in
  Mmt_tcp.Congestion.on_ack cc ~acked:start ~now:Units.Time.zero;
  Alcotest.(check int) "doubles per RTT of acks" (2 * start)
    (Mmt_tcp.Congestion.window cc)

let test_reno_fast_retransmit_halves () =
  let cc = make_cc Mmt_tcp.Congestion.Reno in
  for _ = 1 to 6 do
    Mmt_tcp.Congestion.on_ack cc ~acked:(Mmt_tcp.Congestion.window cc) ~now:Units.Time.zero
  done;
  let before = Mmt_tcp.Congestion.window cc in
  Mmt_tcp.Congestion.on_fast_retransmit cc ~now:Units.Time.zero;
  Alcotest.(check int) "halved" (before / 2) (Mmt_tcp.Congestion.window cc);
  Alcotest.(check int) "ssthresh" (before / 2) (Mmt_tcp.Congestion.ssthresh cc)

let test_reno_timeout_collapses () =
  let cc = make_cc Mmt_tcp.Congestion.Reno in
  for _ = 1 to 6 do
    Mmt_tcp.Congestion.on_ack cc ~acked:(Mmt_tcp.Congestion.window cc) ~now:Units.Time.zero
  done;
  Mmt_tcp.Congestion.on_timeout cc ~now:Units.Time.zero;
  Alcotest.(check int) "back to initial" (4 * mss) (Mmt_tcp.Congestion.window cc)

let test_reno_congestion_avoidance_linear () =
  let cc = make_cc Mmt_tcp.Congestion.Reno in
  (* Leave slow start. *)
  Mmt_tcp.Congestion.on_fast_retransmit cc ~now:Units.Time.zero;
  Alcotest.(check bool) "out of slow start" false (Mmt_tcp.Congestion.in_slow_start cc);
  let before = Mmt_tcp.Congestion.window cc in
  (* One RTT of ACKs (cwnd bytes, mss at a time) adds about one mss. *)
  let acks = before / mss in
  for _ = 1 to acks do
    Mmt_tcp.Congestion.on_ack cc ~acked:mss ~now:Units.Time.zero
  done;
  let growth = Mmt_tcp.Congestion.window cc - before in
  Alcotest.(check bool) "additive increase" true (growth >= mss / 2 && growth <= 2 * mss)

let test_cubic_recovers_toward_wmax () =
  let cc = make_cc Mmt_tcp.Congestion.Cubic in
  (* Grow, crash, then watch the cubic curve climb back toward w_max. *)
  for _ = 1 to 8 do
    Mmt_tcp.Congestion.on_ack cc ~acked:(Mmt_tcp.Congestion.window cc) ~now:Units.Time.zero
  done;
  let w_max = Mmt_tcp.Congestion.window cc in
  Mmt_tcp.Congestion.on_fast_retransmit cc ~now:Units.Time.zero;
  let after_crash = Mmt_tcp.Congestion.window cc in
  Alcotest.(check bool) "multiplicative decrease" true (after_crash < w_max);
  let now = ref Units.Time.zero in
  for _ = 1 to 2000 do
    now := Units.Time.add !now (Units.Time.ms 10.);
    Mmt_tcp.Congestion.on_ack cc ~acked:mss ~now:!now
  done;
  let recovered = Mmt_tcp.Congestion.window cc in
  Alcotest.(check bool) "climbed back" true (recovered > after_crash);
  Alcotest.(check bool) "beyond w_max eventually" true (recovered >= w_max)

let test_bbr_ignores_fast_retransmit () =
  let cc = make_cc Mmt_tcp.Congestion.Bbr in
  (* Feed the model so there is an estimate to hold on to. *)
  let now = ref Units.Time.zero in
  for _ = 1 to 50 do
    now := Units.Time.add !now (Units.Time.ms 1.);
    Mmt_tcp.Congestion.on_ack ~rtt_sample:0.01 cc ~acked:(5 * mss) ~now:!now
  done;
  let before = Mmt_tcp.Congestion.window cc in
  Mmt_tcp.Congestion.on_fast_retransmit cc ~now:!now;
  Alcotest.(check int) "no multiplicative decrease" before
    (Mmt_tcp.Congestion.window cc)

let test_bbr_window_tracks_bdp () =
  let cc = make_cc Mmt_tcp.Congestion.Bbr in
  (* Steady 5 MB/s with 10 ms RTT -> BDP = 50 KB; the probe-bw window
     should settle in the small-multiple-of-BDP region. *)
  let now = ref Units.Time.zero in
  for _ = 1 to 400 do
    now := Units.Time.add !now (Units.Time.ms 1.);
    Mmt_tcp.Congestion.on_ack ~rtt_sample:0.01 cc ~acked:5_000 ~now:!now
  done;
  Alcotest.(check bool) "left startup" false (Mmt_tcp.Congestion.in_slow_start cc);
  let w = Mmt_tcp.Congestion.window cc in
  Alcotest.(check bool) "window near 2x BDP" true (w > 50_000 && w < 250_000)

let test_window_never_below_mss () =
  List.iter
    (fun algorithm ->
      let cc =
        Mmt_tcp.Congestion.create algorithm ~mss ~initial_window:mss ~max_window:(10 * mss)
      in
      for _ = 1 to 20 do
        Mmt_tcp.Congestion.on_timeout cc ~now:Units.Time.zero;
        Mmt_tcp.Congestion.on_fast_retransmit cc ~now:Units.Time.zero
      done;
      Alcotest.(check bool) "floor at mss" true (Mmt_tcp.Congestion.window cc >= mss))
    [ Mmt_tcp.Congestion.Reno; Mmt_tcp.Congestion.Cubic ]

let test_window_capped_at_max () =
  let cc = make_cc Mmt_tcp.Congestion.Reno in
  for _ = 1 to 100 do
    Mmt_tcp.Congestion.on_ack cc ~acked:(Mmt_tcp.Congestion.window cc) ~now:Units.Time.zero
  done;
  Alcotest.(check bool) "capped" true (Mmt_tcp.Congestion.window cc <= 1000 * mss)

(* Connection over a simulated path ------------------------------------------ *)

type path = {
  engine : Mmt_sim.Engine.t;
  ring : Mmt_sim.Ring.t;
  sender : Mmt_tcp.Connection.t;
  receiver : Mmt_tcp.Connection.t;
}

let make_path ?(rate = Units.Rate.gbps 10.) ?(rtt = Units.Time.ms 10.) ?(loss = 0.)
    ?(config = Mmt_tcp.Connection.default_config) ?(seed = 21L) ?deliver () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let rng = Rng.create ~seed in
  let a = Mmt_sim.Topology.add_node topo ~name:"a" in
  let b = Mmt_sim.Topology.add_node topo ~name:"b" in
  let half = Units.Time.scale rtt 0.5 in
  let forward =
    Mmt_sim.Topology.connect topo ~src:a ~dst:b ~rate ~propagation:half
      ~loss:
        (if loss > 0. then Mmt_sim.Loss.bernoulli ~drop:loss ~corrupt:0. ~rng
         else Mmt_sim.Loss.perfect)
      ~queue:(Mmt_sim.Queue_model.droptail ~capacity:(Units.Size.mib 64) ())
      ()
  in
  let reverse = Mmt_sim.Topology.connect topo ~src:b ~dst:a ~rate ~propagation:half () in
  let sender =
    Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config
      ~tx:(Mmt_sim.Link.send forward) ()
  in
  let receiver =
    Mmt_tcp.Connection.create ~engine ~ring ~fresh_id ~config
      ~tx:(Mmt_sim.Link.send reverse) ?deliver ()
  in
  Mmt_sim.Node.set_handler a (Mmt_tcp.Connection.on_packet sender);
  Mmt_sim.Node.set_handler b (Mmt_tcp.Connection.on_packet receiver);
  { engine; ring; sender; receiver }

let test_lossless_transfer_completes () =
  let p = make_path () in
  Mmt_tcp.Connection.write p.sender 1_000_000;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 60.) p.engine;
  let s = Mmt_tcp.Connection.stats p.sender in
  let r = Mmt_tcp.Connection.stats p.receiver in
  Alcotest.(check bool) "completed" true (s.Mmt_tcp.Connection.completed_at <> None);
  Alcotest.(check int) "all delivered in order" 1_000_000
    r.Mmt_tcp.Connection.bytes_delivered;
  Alcotest.(check int) "no retransmits" 0 s.Mmt_tcp.Connection.retransmits

let test_lossy_transfer_still_completes () =
  let p = make_path ~loss:0.01 () in
  Mmt_tcp.Connection.write p.sender 500_000;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 120.) p.engine;
  let s = Mmt_tcp.Connection.stats p.sender in
  let r = Mmt_tcp.Connection.stats p.receiver in
  Alcotest.(check bool) "completed despite loss" true
    (s.Mmt_tcp.Connection.completed_at <> None);
  Alcotest.(check int) "all delivered" 500_000 r.Mmt_tcp.Connection.bytes_delivered;
  Alcotest.(check bool) "recovered via retransmission" true
    (s.Mmt_tcp.Connection.retransmits > 0)

(* Every segment is a ring frame, retired where it dies: by the link
   that loses it or by the endpoint that consumes it. *)
let test_lossy_transfer_retires_every_segment () =
  let p = make_path ~loss:0.01 () in
  Mmt_tcp.Connection.write p.sender 500_000;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 120.) p.engine;
  let s = Mmt_tcp.Connection.stats p.sender in
  Alcotest.(check bool) "lossy" true (s.Mmt_tcp.Connection.retransmits > 0);
  let ring = Mmt_sim.Ring.stats p.ring in
  Alcotest.(check bool) "segments came from the ring" true
    (ring.Mmt_sim.Ring.acquired > s.Mmt_tcp.Connection.segments_sent);
  Alcotest.(check int) "no slot in use" 0 ring.Mmt_sim.Ring.in_use;
  Alcotest.(check int) "acquired = retired" ring.Mmt_sim.Ring.acquired
    ring.Mmt_sim.Ring.retired;
  Alcotest.(check int) "no double done" 0 ring.Mmt_sim.Ring.double_done

(* A segment in flight owns no heap block on the sender: what it keeps
   until its ACK lives in preallocated arrays.  A block per segment
   would survive the RTT into the major heap (a record and a queue cell
   promote about nine words a segment), and a DTN-tuned window of such
   blocks overflows the major GC's mark stack. *)
let test_sender_keeps_no_block_per_segment () =
  let rate = Units.Rate.gbps 10. in
  let rtt = Units.Time.ms 10. in
  let bdp = Units.Rate.bytes_in rate rtt in
  let p = make_path ~rate ~rtt ~config:(Mmt_tcp.Connection.tuned_config ~bdp) () in
  let transfer bytes =
    Mmt_tcp.Connection.write p.sender bytes;
    Mmt_sim.Engine.run p.engine
  in
  let segments () =
    (Mmt_tcp.Connection.stats p.sender).Mmt_tcp.Connection.segments_sent
  in
  (* Warm up until every buffer on the path has grown to the window. *)
  transfer 100_000_000;
  let sent = segments () in
  (* [Gc.minor] first, so the counter covers exactly the transfer. *)
  let promoted () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.promoted_words
  in
  let before = promoted () in
  transfer 200_000_000;
  let after = promoted () in
  let per_segment = (after -. before) /. float_of_int (segments () - sent) in
  Alcotest.(check int) "all delivered" 300_000_000
    (Mmt_tcp.Connection.stats p.receiver).Mmt_tcp.Connection.bytes_delivered;
  if per_segment >= 2. then
    Alcotest.failf "%.2f promoted words per segment" per_segment

(* Several connections on one node: each segment reaches only the
   connection its port names, and whatever no connection takes goes
   back to the ring. *)
let test_dispatch_by_port () =
  let engine = Mmt_sim.Engine.create () in
  let ring = Mmt_sim.Ring.create () in
  let sent = ref [] in
  let connection port =
    Mmt_tcp.Connection.create ~engine ~ring ~fresh_id:(fun () -> 0)
      ~config:Mmt_tcp.Connection.default_config ~port
      ~tx:(fun packet ->
        sent := port :: !sent;
        Mmt_sim.Ring.in_packet_done ring packet)
      ()
  in
  let c1 = connection 1 and c2 = connection 2 in
  let handler = Mmt_tcp.Connection.dispatch ~ring [ c1; c2 ] in
  let data ~port =
    let frame =
      Mmt_tcp.Segment.encode
        (Mmt_tcp.Segment.data ~src_port:port ~dst_port:port ~seq:0 ~ack:0
           ~window:65536 Bytes.empty)
    in
    Mmt_sim.Ring.alloc ring ~padding:1000 ~id:0 ~born:Units.Time.zero frame
  in
  handler (data ~port:2);
  handler (data ~port:3);
  handler
    (Mmt_sim.Ring.alloc ring ~id:0 ~born:Units.Time.zero (Bytes.make 40 'x'));
  Alcotest.(check (list int)) "only port 2 acknowledged" [ 2 ] !sent;
  Alcotest.(check int) "port 2 delivered" 1000
    (Mmt_tcp.Connection.stats c2).Mmt_tcp.Connection.bytes_delivered;
  Alcotest.(check int) "port 1 untouched" 0
    (Mmt_tcp.Connection.stats c1).Mmt_tcp.Connection.bytes_delivered;
  let stats = Mmt_sim.Ring.stats ring in
  Alcotest.(check int) "everything retired" 0 stats.Mmt_sim.Ring.in_use;
  Alcotest.(check int) "no double done" 0 stats.Mmt_sim.Ring.double_done

let test_untuned_window_limits_throughput () =
  (* 64 KiB window over 10 ms RTT is ~52 Mbps no matter the link rate. *)
  let p = make_path ~rate:(Units.Rate.gbps 100.) () in
  Mmt_tcp.Connection.write p.sender 5_000_000;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 60.) p.engine;
  match (Mmt_tcp.Connection.stats p.sender).Mmt_tcp.Connection.completed_at with
  | None -> Alcotest.fail "did not complete"
  | Some fct ->
      let throughput = 5_000_000. *. 8. /. Units.Time.to_float_s fct in
      Alcotest.(check bool) "window-bound (< 80 Mbps)" true (throughput < 80e6)

let test_tuned_fills_the_pipe () =
  let rate = Units.Rate.gbps 10. in
  let rtt = Units.Time.ms 10. in
  let bdp = Units.Rate.bytes_in rate rtt in
  let p = make_path ~rate ~rtt ~config:(Mmt_tcp.Connection.tuned_config ~bdp) () in
  Mmt_tcp.Connection.write p.sender 50_000_000;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 60.) p.engine;
  match (Mmt_tcp.Connection.stats p.sender).Mmt_tcp.Connection.completed_at with
  | None -> Alcotest.fail "did not complete"
  | Some fct ->
      let throughput = 50_000_000. *. 8. /. Units.Time.to_float_s fct in
      Alcotest.(check bool) "above 2 Gbps (ramp included)" true (throughput > 2e9)

let test_rtt_estimation () =
  let p = make_path ~rtt:(Units.Time.ms 10.) () in
  Mmt_tcp.Connection.write p.sender 100_000;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 10.) p.engine;
  match (Mmt_tcp.Connection.stats p.sender).Mmt_tcp.Connection.srtt with
  | Some srtt ->
      let s = Units.Time.to_float_s srtt in
      Alcotest.(check bool) "srtt near 10ms" true (s > 0.009 && s < 0.02)
  | None -> Alcotest.fail "expected an RTT estimate"

let test_bbr_completes_lossy_transfer_fast () =
  (* The [73] shape: at 0.1% corruption loss BBR's FCT stays within a
     small multiple of clean, while Cubic collapses. *)
  let bdp = Units.Rate.bytes_in (Units.Rate.gbps 10.) (Units.Time.ms 10.) in
  let bbr_config =
    { (Mmt_tcp.Connection.tuned_config ~bdp) with
      Mmt_tcp.Connection.algorithm = Mmt_tcp.Congestion.Bbr }
  in
  let fct config =
    let p = make_path ~rate:(Units.Rate.gbps 10.) ~rtt:(Units.Time.ms 10.) ~loss:0.001
        ~config () in
    Mmt_tcp.Connection.write p.sender 20_000_000;
    Mmt_tcp.Connection.finish p.sender;
    Mmt_sim.Engine.run ~until:(Units.Time.seconds 200.) p.engine;
    (Mmt_tcp.Connection.stats p.sender).Mmt_tcp.Connection.completed_at
  in
  match (fct bbr_config, fct (Mmt_tcp.Connection.tuned_config ~bdp)) with
  | Some bbr, Some cubic ->
      Alcotest.(check bool) "bbr at least 3x faster under loss" true
        Units.Time.(Units.Time.scale bbr 3. < cubic)
  | Some _, None -> () (* cubic never finished: even stronger *)
  | None, _ -> Alcotest.fail "bbr did not complete"

let test_head_of_line_blocking_visible () =
  (* Under loss, some messages complete far later than the per-message
     pace even though their own bytes arrived — the § 4.1 HoL argument. *)
  let framing = Mmt_tcp.Framing.create () in
  let engine_box = ref None in
  let deliver n =
    match !engine_box with
    | Some engine ->
        ignore (Mmt_tcp.Framing.on_delivered framing ~now:(Mmt_sim.Engine.now engine) n)
    | None -> ()
  in
  let p = make_path ~loss:0.02 ~deliver () in
  engine_box := Some p.engine;
  let message = 10_000 in
  for _ = 1 to 50 do
    Mmt_tcp.Framing.mark_message framing ~size:message;
    Mmt_tcp.Connection.write p.sender message
  done;
  Mmt_tcp.Connection.finish p.sender;
  Mmt_sim.Engine.run ~until:(Units.Time.seconds 60.) p.engine;
  Alcotest.(check int) "all messages eventually complete" 50
    (Mmt_tcp.Framing.messages_completed framing);
  let times = Mmt_tcp.Framing.completion_times framing in
  (* Monotone completion order is the bytestream property. *)
  let monotone = ref true in
  Array.iteri
    (fun i t -> if i > 0 then if Units.Time.(t < times.(i - 1)) then monotone := false)
    times;
  Alcotest.(check bool) "in-order completion (HoL)" true !monotone

(* Framing ---------------------------------------------------------------- *)

let test_framing_counts () =
  let f = Mmt_tcp.Framing.create () in
  Mmt_tcp.Framing.mark_message f ~size:100;
  Mmt_tcp.Framing.mark_message f ~size:50;
  Alcotest.(check int) "marked" 2 (Mmt_tcp.Framing.messages_marked f);
  Alcotest.(check int) "none done" 0
    (Mmt_tcp.Framing.on_delivered f ~now:Units.Time.zero 99);
  Alcotest.(check int) "first done at 100" 1
    (Mmt_tcp.Framing.on_delivered f ~now:(Units.Time.ms 1.) 1);
  Alcotest.(check int) "second done" 1
    (Mmt_tcp.Framing.on_delivered f ~now:(Units.Time.ms 2.) 50);
  Alcotest.(check int) "completed" 2 (Mmt_tcp.Framing.messages_completed f);
  let times = Mmt_tcp.Framing.completion_times f in
  Alcotest.(check int) "two times" 2 (Array.length times);
  Alcotest.(check string) "first" "1ms" (Units.Time.to_string times.(0))

let test_framing_batch_completion () =
  let f = Mmt_tcp.Framing.create () in
  for _ = 1 to 5 do
    Mmt_tcp.Framing.mark_message f ~size:10
  done;
  Alcotest.(check int) "all five at once" 5
    (Mmt_tcp.Framing.on_delivered f ~now:Units.Time.zero 50)

let test_framing_rejects_empty () =
  let f = Mmt_tcp.Framing.create () in
  Alcotest.(check bool) "empty message rejected" true
    (match Mmt_tcp.Framing.mark_message f ~size:0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* UDP transport -------------------------------------------------------------- *)

type udp_path = {
  u_engine : Mmt_sim.Engine.t;
  u_ring : Mmt_sim.Ring.t;
  u_sender : Mmt_tcp.Udp_transport.sender;
  u_receiver : Mmt_tcp.Udp_transport.receiver;
}

let make_udp_path ?(loss = 0.) ?(rate = Units.Rate.gbps 1.) deliver =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let a = Mmt_sim.Topology.add_node topo ~name:"a" in
  let b = Mmt_sim.Topology.add_node topo ~name:"b" in
  let link =
    Mmt_sim.Topology.connect topo ~src:a ~dst:b ~rate
      ~propagation:(Units.Time.us 10.)
      ~loss:
        (if loss > 0. then
           Mmt_sim.Loss.bernoulli ~drop:loss ~corrupt:0. ~rng:(Rng.create ~seed:9L)
         else Mmt_sim.Loss.perfect)
      ()
  in
  let receiver = Mmt_tcp.Udp_transport.create_receiver ~ring ~deliver () in
  Mmt_sim.Node.set_handler b (Mmt_tcp.Udp_transport.on_packet receiver);
  let sender =
    Mmt_tcp.Udp_transport.create_sender ~engine ~ring ~fresh_id
      ~src:(Mmt_frame.Addr.Ip.of_octets 10 0 0 1)
      ~dst:(Mmt_frame.Addr.Ip.of_octets 10 0 0 2)
      ~src_port:7777 ~dst_port:8888 ~tx:(Mmt_sim.Link.send link) ()
  in
  { u_engine = engine; u_ring = ring; u_sender = sender; u_receiver = receiver }

let test_udp_end_to_end () =
  let got = ref [] in
  let p =
    make_udp_path (fun ~src:_ ~src_port payload ->
        got := (src_port, Mmt_wire.Cursor.Reader.rest payload) :: !got)
  in
  Mmt_tcp.Udp_transport.send p.u_sender (Bytes.of_string "hello daq");
  Mmt_sim.Engine.run p.u_engine;
  (match !got with
  | [ (port, payload) ] ->
      Alcotest.(check int) "src port" 7777 port;
      Alcotest.(check string) "payload" "hello daq" (Bytes.to_string payload)
  | _ -> Alcotest.fail "expected one datagram");
  let r = Mmt_tcp.Udp_transport.receiver_stats p.u_receiver in
  Alcotest.(check int) "received" 1 r.Mmt_tcp.Udp_transport.datagrams_received

let test_udp_corrupted_dropped () =
  let ring = Mmt_sim.Ring.create () in
  let receiver =
    Mmt_tcp.Udp_transport.create_receiver ~ring
      ~deliver:(fun ~src:_ ~src_port:_ _ -> ())
      ()
  in
  let packet = Mmt_sim.Ring.in_packet ring ~id:0 ~born:Units.Time.zero 40 in
  packet.Mmt_sim.Packet.corrupted <- true;
  Mmt_tcp.Udp_transport.on_packet receiver packet;
  let r = Mmt_tcp.Udp_transport.receiver_stats receiver in
  Alcotest.(check int) "corrupted" 1 r.Mmt_tcp.Udp_transport.corrupted;
  Alcotest.(check int) "not delivered" 0 r.Mmt_tcp.Udp_transport.datagrams_received;
  Alcotest.(check int) "retired" 0 (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use

let test_udp_retires_every_datagram () =
  let p = make_udp_path ~loss:0.05 (fun ~src:_ ~src_port:_ _ -> ()) in
  let payload = Bytes.make 1000 'u' in
  for _ = 1 to 2_000 do
    Mmt_tcp.Udp_transport.send p.u_sender payload
  done;
  Mmt_sim.Engine.run p.u_engine;
  let r = Mmt_tcp.Udp_transport.receiver_stats p.u_receiver in
  Alcotest.(check bool) "some lost" true
    (r.Mmt_tcp.Udp_transport.datagrams_received < 2_000);
  let ring = Mmt_sim.Ring.stats p.u_ring in
  Alcotest.(check int) "acquired one frame per datagram" 2_000
    ring.Mmt_sim.Ring.acquired;
  Alcotest.(check int) "no slot in use" 0 ring.Mmt_sim.Ring.in_use;
  Alcotest.(check int) "acquired = retired" ring.Mmt_sim.Ring.acquired
    ring.Mmt_sim.Ring.retired

(* A DAQ-sized datagram lives on the major heap, so its copies are what
   it costs: once the pool holds recycled frames, sending and receiving
   one must not allocate even half a payload there (the datagram used
   to be built in a scratch buffer, copied out, and copied again on
   receipt). *)
let test_udp_major_words_per_datagram () =
  let size = 7200 in
  let p = make_udp_path ~rate:(Units.Rate.gbps 100.) (fun ~src:_ ~src_port:_ _ -> ()) in
  let payload = Bytes.make size 'd' in
  let burst n =
    for _ = 1 to n do
      Mmt_tcp.Udp_transport.send p.u_sender payload;
      Mmt_sim.Engine.run p.u_engine
    done
  in
  burst 500;
  let n = 2_000 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  burst n;
  let after = (Gc.quick_stat ()).Gc.major_words in
  let per_datagram = (after -. before) /. float_of_int n in
  let payload_words = float_of_int (size / (Sys.word_size / 8)) in
  Alcotest.(check int) "all received" (500 + n)
    (Mmt_tcp.Udp_transport.receiver_stats p.u_receiver)
      .Mmt_tcp.Udp_transport.datagrams_received;
  if per_datagram >= payload_words /. 2. then
    Alcotest.failf "%.0f major words per datagram (payload is %.0f words)"
      per_datagram payload_words

let suite =
  [
    Alcotest.test_case "segment roundtrip" `Quick test_segment_roundtrip;
    Alcotest.test_case "pure ack roundtrip" `Quick test_pure_ack_roundtrip;
    Alcotest.test_case "segment rejects foreign" `Quick test_segment_rejects_foreign;
    Alcotest.test_case "reno slow start" `Quick test_reno_slow_start;
    Alcotest.test_case "reno fast retransmit" `Quick test_reno_fast_retransmit_halves;
    Alcotest.test_case "reno timeout" `Quick test_reno_timeout_collapses;
    Alcotest.test_case "reno congestion avoidance" `Quick test_reno_congestion_avoidance_linear;
    Alcotest.test_case "cubic recovery curve" `Quick test_cubic_recovers_toward_wmax;
    Alcotest.test_case "bbr ignores fast retransmit" `Quick test_bbr_ignores_fast_retransmit;
    Alcotest.test_case "bbr window tracks bdp" `Quick test_bbr_window_tracks_bdp;
    Alcotest.test_case "bbr lossy transfer" `Slow test_bbr_completes_lossy_transfer_fast;
    Alcotest.test_case "window floor" `Quick test_window_never_below_mss;
    Alcotest.test_case "window cap" `Quick test_window_capped_at_max;
    Alcotest.test_case "lossless transfer" `Quick test_lossless_transfer_completes;
    Alcotest.test_case "lossy transfer completes" `Quick test_lossy_transfer_still_completes;
    Alcotest.test_case "lossy transfer retires every segment" `Quick
      test_lossy_transfer_retires_every_segment;
    Alcotest.test_case "sender keeps no block per segment" `Quick
      test_sender_keeps_no_block_per_segment;
    Alcotest.test_case "dispatch by port" `Quick test_dispatch_by_port;
    Alcotest.test_case "untuned window-bound" `Quick test_untuned_window_limits_throughput;
    Alcotest.test_case "tuned fills pipe" `Quick test_tuned_fills_the_pipe;
    Alcotest.test_case "rtt estimation" `Quick test_rtt_estimation;
    Alcotest.test_case "HoL blocking visible" `Quick test_head_of_line_blocking_visible;
    Alcotest.test_case "framing counts" `Quick test_framing_counts;
    Alcotest.test_case "framing batch" `Quick test_framing_batch_completion;
    Alcotest.test_case "framing rejects empty" `Quick test_framing_rejects_empty;
    Alcotest.test_case "udp end to end" `Quick test_udp_end_to_end;
    Alcotest.test_case "udp corrupted" `Quick test_udp_corrupted_dropped;
    Alcotest.test_case "udp retires every datagram" `Quick test_udp_retires_every_datagram;
    Alcotest.test_case "udp major words per datagram" `Quick
      test_udp_major_words_per_datagram;
  ]
