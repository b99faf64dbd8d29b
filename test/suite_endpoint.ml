(* Sender, receiver and buffer-host protocol endpoints, driven with
   hand-crafted packets over a loopback environment. *)
open Mmt_util
open Mmt_frame

let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0
let buffer_ip = Addr.Ip.of_octets 10 0 1 1
let notify_ip = Addr.Ip.of_octets 10 0 0 9

let receiver_config ?expected_total () =
  {
    Mmt.Receiver.experiment;
    nak_delay = Units.Time.ms 1.;
    nak_retry_timeout = Units.Time.ms 10.;
    max_nak_retries = 3;
    expected_total;
  }

(* Build a data packet the way DTN 1's rewriter would emit it. *)
let data_packet ?(seq : int option) ?timely ?age ~engine ~id payload_size =
  let header = Mmt.Header.mode0 ~experiment in
  let header =
    match seq with
    | Some s -> Mmt.Header.with_retransmit_from (Mmt.Header.with_sequence header s) buffer_ip
    | None -> header
  in
  let header = match timely with Some t -> Mmt.Header.with_timely header t | None -> header in
  let header = match age with Some a -> Mmt.Header.with_age header a | None -> header in
  let payload = Bytes.make payload_size 'd' in
  let frame = Bytes.cat (Mmt.Header.encode header) payload in
  Mmt_sim.Packet.create ~id ~born:(Mmt_sim.Engine.now engine) frame

let drain_queue queue =
  let out = ref [] in
  Queue.iter (fun p -> out := p :: !out) queue;
  Queue.clear queue;
  List.rev !out

let decode_control packet =
  match Mmt.Encap.parse (Mmt_sim.Packet.frame packet) with
  | Error e -> Alcotest.fail e
  | Ok (header, payload) -> (header, Mmt_wire.Cursor.Reader.rest payload)

(* Receiver --------------------------------------------------------------- *)

let test_in_order_delivery () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let delivered = ref [] in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ())
      ~deliver:(fun meta _payload -> delivered := meta :: !delivered)
  in
  for seq = 0 to 4 do
    Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64)
  done;
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "delivered" 5 stats.Mmt.Receiver.delivered;
  Alcotest.(check int) "no gaps" 0 stats.Mmt.Receiver.gaps_detected;
  Alcotest.(check int) "no naks" 0 stats.Mmt.Receiver.naks_sent;
  Alcotest.(check bool) "none recovered" true
    (List.for_all (fun (m : Mmt.Receiver.meta) -> not m.Mmt.Receiver.recovered) !delivered)

let test_gap_detection_and_nak () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  (* 0, 1, then 4: sequences 2 and 3 are missing. *)
  List.iter
    (fun seq -> Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64))
    [ 0; 1; 4 ];
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "gaps" 2 stats.Mmt.Receiver.gaps_detected;
  Alcotest.(check bool) "naks sent" true (stats.Mmt.Receiver.naks_sent >= 1);
  match drain_queue queue with
  | nak_packet :: _ ->
      let header, payload = decode_control nak_packet in
      Alcotest.(check bool) "kind nak" true
        (header.Mmt.Header.kind = Mmt.Feature.Kind.Nak);
      (match Mmt.Control.Nak.decode payload with
      | Ok nak ->
          Alcotest.(check (list (pair int int))) "range 2-3" [ (2, 3) ]
            nak.Mmt.Control.Nak.ranges
      | Error e -> Alcotest.fail e)
  | [] -> Alcotest.fail "expected a NAK on the wire"

let test_recovery_clears_missing () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let recovered_metas = ref [] in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ())
      ~deliver:(fun (meta : Mmt.Receiver.meta) _ -> if meta.Mmt.Receiver.recovered then recovered_metas := meta :: !recovered_metas)
  in
  List.iter
    (fun seq -> Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64))
    [ 0; 2 ];
  (* Recovery of 1 arrives before any give-up. *)
  Mmt.Receiver.on_packet receiver (data_packet ~seq:1 ~engine ~id:99 64);
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "recovered" 1 stats.Mmt.Receiver.recovered;
  Alcotest.(check int) "still missing" 0 stats.Mmt.Receiver.still_missing;
  Alcotest.(check int) "out of order" 1 stats.Mmt.Receiver.out_of_order;
  Alcotest.(check int) "recovered delivery flagged" 1 (List.length !recovered_metas)

let test_duplicate_suppression () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  Mmt.Receiver.on_packet receiver (data_packet ~seq:0 ~engine ~id:0 64);
  Mmt.Receiver.on_packet receiver (data_packet ~seq:0 ~engine ~id:1 64);
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "one delivery" 1 stats.Mmt.Receiver.delivered;
  Alcotest.(check int) "duplicate counted" 1 stats.Mmt.Receiver.duplicates

let test_gives_up_after_max_retries () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  List.iter
    (fun seq -> Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64))
    [ 0; 2 ];
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "lost after retries" 1 stats.Mmt.Receiver.lost;
  Alcotest.(check int) "still missing drained" 0 stats.Mmt.Receiver.still_missing;
  (* max_nak_retries NAKs went out. *)
  Alcotest.(check int) "nak retries" 3 (List.length (drain_queue queue))

let test_unsequenced_passthrough () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  Mmt.Receiver.on_packet receiver (data_packet ~engine ~id:0 64);
  Mmt.Receiver.on_packet receiver (data_packet ~engine ~id:1 64);
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "unsequenced" 2 stats.Mmt.Receiver.unsequenced;
  Alcotest.(check int) "delivered" 2 stats.Mmt.Receiver.delivered;
  Alcotest.(check int) "no naks" 0 stats.Mmt.Receiver.naks_sent

let test_corrupted_dropped () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  let packet = data_packet ~seq:0 ~engine ~id:0 64 in
  packet.Mmt_sim.Packet.corrupted <- true;
  Mmt.Receiver.on_packet receiver packet;
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "dropped" 0 stats.Mmt.Receiver.delivered;
  Alcotest.(check int) "counted" 1 stats.Mmt.Receiver.corrupted

let test_deadline_notice_emitted () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let late_seen = ref false in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ())
      ~deliver:(fun (meta : Mmt.Receiver.meta) _ -> late_seen := meta.Mmt.Receiver.late)
  in
  (* Deadline in the past relative to processing time. *)
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.ms 5.) (fun () ->
         Mmt.Receiver.on_packet receiver
           (data_packet
              ~timely:{ Mmt.Header.deadline = Units.Time.ms 2.; notify = notify_ip }
              ~engine ~id:0 64)));
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "late" 1 stats.Mmt.Receiver.late;
  Alcotest.(check bool) "meta flagged" true !late_seen;
  Alcotest.(check int) "notice sent" 1 stats.Mmt.Receiver.deadline_notices_sent;
  match drain_queue queue with
  | [ notice ] ->
      let header, payload = decode_control notice in
      Alcotest.(check bool) "kind" true
        (header.Mmt.Header.kind = Mmt.Feature.Kind.Deadline_exceeded);
      (match Mmt.Control.Deadline_exceeded.decode payload with
      | Ok n ->
          Alcotest.(check string) "late by 3ms" "3ms"
            (Units.Time.to_string (Mmt.Control.Deadline_exceeded.lateness n))
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected exactly one notice"

let test_on_time_no_notice () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  Mmt.Receiver.on_packet receiver
    (data_packet
       ~timely:{ Mmt.Header.deadline = Units.Time.ms 100.; notify = notify_ip }
       ~engine ~id:0 64);
  Mmt_sim.Engine.run engine;
  Alcotest.(check int) "no late" 0 (Mmt.Receiver.stats receiver).Mmt.Receiver.late;
  Alcotest.(check int) "no notices" 0 (List.length (drain_queue queue))

let test_final_age_accumulation () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let observed_age = ref None in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ())
      ~deliver:(fun (meta : Mmt.Receiver.meta) _ -> observed_age := meta.Mmt.Receiver.age_us)
  in
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.us 700.) (fun () ->
         Mmt.Receiver.on_packet receiver
           (data_packet
              ~age:
                {
                  Mmt.Header.age_us = 100;
                  budget_us = 500;
                  aged = false;
                  hop_count = 1;
                  last_touch_ns = Units.Time.us 200.;
                }
              ~engine ~id:0 64)));
  Mmt_sim.Engine.run engine;
  (* 100 us accumulated + (700 - 200) us since last touch = 600 us > 500 budget. *)
  Alcotest.(check (option int)) "final age" (Some 600) !observed_age;
  Alcotest.(check int) "aged" 1 (Mmt.Receiver.stats receiver).Mmt.Receiver.aged

let test_completion_and_goodput () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ~expected_total:3 ())
      ~deliver:(fun _ _ -> ())
  in
  for seq = 0 to 2 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.ms (float_of_int seq))
         (fun () -> Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 1000)))
  done;
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  (match stats.Mmt.Receiver.completion with
  | Some t -> Alcotest.(check string) "completion at last arrival" "2ms" (Units.Time.to_string t)
  | None -> Alcotest.fail "expected completion");
  Alcotest.(check bool) "goodput positive" true
    (Units.Rate.to_bps (Mmt.Receiver.goodput receiver) > 0.)

let test_tail_loss_detected () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ~expected_total:5 ())
      ~deliver:(fun _ _ -> ())
  in
  (* Only 0..2 arrive; 3 and 4 are tail losses that no later packet
     can reveal. *)
  for seq = 0 to 2 do
    Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64)
  done;
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "tail gaps detected" 2 stats.Mmt.Receiver.gaps_detected;
  Alcotest.(check bool) "tail NAKed" true (stats.Mmt.Receiver.naks_sent >= 1);
  match drain_queue queue with
  | first_nak :: _ -> (
      let _header, payload = decode_control first_nak in
      match Mmt.Control.Nak.decode payload with
      | Ok nak ->
          Alcotest.(check (list (pair int int))) "tail range" [ (3, 4) ]
            nak.Mmt.Control.Nak.ranges
      | Error e -> Alcotest.fail e)
  | [] -> Alcotest.fail "expected tail NAK"

let test_reordering_debounced_no_spurious_nak () =
  (* Mild reordering resolved within the NAK debounce must not reach
     the wire as a retransmission request. *)
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ~expected_total:4 ()) ~deliver:(fun _ _ -> ()) in
  (* 1 before 0, 3 before 2, all within well under nak_delay (1 ms). *)
  List.iteri
    (fun i seq ->
      ignore
        (Mmt_sim.Engine.schedule engine
           ~at:(Units.Time.scale (Units.Time.us 50.) (float_of_int i))
           (fun () -> Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64))))
    [ 1; 0; 3; 2 ];
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "all delivered" 4 stats.Mmt.Receiver.delivered;
  Alcotest.(check int) "reordering observed" 2 stats.Mmt.Receiver.out_of_order;
  Alcotest.(check int) "no NAK reached the wire" 0 (List.length (drain_queue queue));
  Alcotest.(check bool) "completion" true (stats.Mmt.Receiver.completion <> None)

let test_head_loss_recovered () =
  (* The first packets of the stream are lost: the receiver must NAK
     sequences below its first arrival (streams are sequenced from 0). *)
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  Mmt.Receiver.on_packet receiver (data_packet ~seq:3 ~engine ~id:3 64);
  Mmt_sim.Engine.run ~until:(Units.Time.ms 2.) engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "head gaps detected" 3 stats.Mmt.Receiver.gaps_detected;
  (match drain_queue queue with
  | nak :: _ -> (
      let _header, payload = decode_control nak in
      match Mmt.Control.Nak.decode payload with
      | Ok nak ->
          Alcotest.(check (list (pair int int))) "head range" [ (0, 2) ]
            nak.Mmt.Control.Nak.ranges
      | Error e -> Alcotest.fail e)
  | [] -> Alcotest.fail "expected a head NAK");
  (* Recovery arrives. *)
  for seq = 0 to 2 do
    Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:(100 + seq) 64)
  done;
  Mmt_sim.Engine.run engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "recovered" 3 stats.Mmt.Receiver.recovered;
  Alcotest.(check int) "delivered all" 4 stats.Mmt.Receiver.delivered

let test_buffer_advert_retargets_recovery () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let receiver = Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ()) in
  (* Create a gap whose NAKs point at [buffer_ip]. *)
  List.iter
    (fun seq -> Mmt.Receiver.on_packet receiver (data_packet ~seq ~engine ~id:seq 64))
    [ 0; 2 ];
  (* Run just far enough for the first NAK (nak_delay = 1 ms). *)
  Mmt_sim.Engine.run ~until:(Units.Time.ms 2.) engine;
  ignore (drain_queue queue);
  (* A buffer advertisement announces a replacement buffer. *)
  let new_buffer = Addr.Ip.of_octets 10 0 1 99 in
  let advert_header =
    Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Buffer_advert
  in
  let advert_payload =
    Mmt.Control.Buffer_advert.encode
      {
        Mmt.Control.Buffer_advert.buffer = new_buffer;
        capacity = Units.Size.mib 1;
        rtt_hint = Units.Time.ms 1.;
      }
  in
  let advert_packet =
    Mmt_sim.Packet.create ~id:500 ~born:(Mmt_sim.Engine.now engine)
      (Bytes.cat (Mmt.Header.encode advert_header) advert_payload)
  in
  Mmt.Receiver.on_packet receiver advert_packet;
  (* The pending gap is re-NAKed immediately, now toward the new buffer. *)
  Mmt_sim.Engine.run ~until:(Units.Time.ms 4.) engine;
  let stats = Mmt.Receiver.stats receiver in
  Alcotest.(check int) "source update counted" 1 stats.Mmt.Receiver.source_updates;
  (match drain_queue queue with
  | retargeted_nak :: _ -> (
      match Mmt.Encap.locate (Mmt_sim.Packet.frame retargeted_nak) with
      | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, _) ->
          Alcotest.(check bool) "NAK re-aimed" true (Addr.Ip.equal dst new_buffer)
      | _ -> Alcotest.fail "expected IPv4 NAK")
  | [] -> Alcotest.fail "expected a retargeted NAK");
  Mmt_sim.Engine.run engine

(* Sender ------------------------------------------------------------------- *)

let sender_config ?deadline_budget () =
  {
    Mmt.Sender.experiment;
    destination = Addr.Ip.of_octets 10 0 3 1;
    encap = Mmt.Encap.Raw;
    deadline_budget;
  }

let backpressure_header =
  Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Backpressure

(* A sender paced at 1 Mbps the way the network paces one: by a
   back-pressure notice. *)
let paced_sender ~env =
  let sender = Mmt.Sender.create ~env (sender_config ()) in
  let notice =
    { Mmt.Control.Backpressure.origin = buffer_ip; advised_pace_mbps = 1; severity = 1 }
  in
  Mmt.Sender.on_control sender backpressure_header
    (Mmt.Control.Backpressure.encode notice);
  sender

let test_sender_mode0_frames () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let sender = Mmt.Sender.create ~env (sender_config ()) in
  Mmt.Sender.send sender (Bytes.of_string "payload");
  (match drain_queue queue with
  | [ packet ] ->
      let header, payload = decode_control packet in
      Alcotest.(check bool) "mode 0" true
        (Mmt.Feature.Set.equal header.Mmt.Header.features Mmt.Feature.Set.empty);
      Alcotest.(check bool) "experiment" true
        (Mmt.Experiment_id.equal header.Mmt.Header.experiment experiment);
      Alcotest.(check string) "payload" "payload" (Bytes.to_string payload)
  | _ -> Alcotest.fail "expected one frame");
  Alcotest.(check int) "stats" 1 (Mmt.Sender.stats sender).Mmt.Sender.messages_sent

let test_sender_deadline_budget () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let sender =
    Mmt.Sender.create ~env
      (sender_config ~deadline_budget:(Units.Time.ms 5., notify_ip) ())
  in
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.ms 2.) (fun () ->
         Mmt.Sender.send sender (Bytes.of_string "x")));
  Mmt_sim.Engine.run engine;
  match drain_queue queue with
  | [ packet ] -> (
      let header, _ = decode_control packet in
      match header.Mmt.Header.timely with
      | Some { Mmt.Header.deadline; notify } ->
          Alcotest.(check string) "deadline = send + budget" "7ms"
            (Units.Time.to_string deadline);
          Alcotest.(check bool) "notify" true (Addr.Ip.equal notify notify_ip)
      | None -> Alcotest.fail "expected timely extension")
  | _ -> Alcotest.fail "expected one frame"

let test_sender_pacing_spacing () =
  let engine = Mmt_sim.Engine.create () in
  let queue = Queue.create () in
  let departures = ref [] in
  let counter = ref 0 in
  let env =
    {
      Mmt_runtime.Env.engine;
      local_ip = Addr.Ip.of_octets 127 0 0 1;
      send =
        (fun _dst p ->
          departures := Mmt_sim.Engine.now engine :: !departures;
          Queue.push p queue);
      fresh_id = (fun () -> incr counter; !counter);
      ring = Mmt_sim.Ring.create ();
    }
  in
  (* 1 Mbps pace, ~1000-bit messages -> about 1 ms spacing. *)
  let sender = paced_sender ~env in
  for _ = 1 to 3 do
    Mmt.Sender.send sender (Bytes.make 117 'p')
  done;
  Mmt_sim.Engine.run engine;
  match List.rev !departures with
  | [ a; b; c ] ->
      Alcotest.(check bool) "first immediate" true (Units.Time.is_zero a);
      Alcotest.(check bool) "spaced by about 1ms" true
        Units.Time.(Units.Time.diff b a >= Units.Time.us 900.
                    && Units.Time.diff c b >= Units.Time.us 900.)
  | other ->
      Alcotest.fail (Printf.sprintf "expected 3 departures, saw %d" (List.length other))

let test_sender_backpressure_adjusts_pace () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let sender = Mmt.Sender.create ~env (sender_config ()) in
  let bp =
    { Mmt.Control.Backpressure.origin = buffer_ip; advised_pace_mbps = 250; severity = 150 }
  in
  Mmt.Sender.on_control sender backpressure_header (Mmt.Control.Backpressure.encode bp);
  let stats = Mmt.Sender.stats sender in
  Alcotest.(check int) "bp counted" 1 stats.Mmt.Sender.backpressure_received;
  (match stats.Mmt.Sender.current_pace with
  | Some pace ->
      Alcotest.(check bool) "pace applied" true
        (Float.abs (Units.Rate.to_bps pace -. 250e6) < 1.)
  | None -> Alcotest.fail "expected a pace");
  (* Severity 0 lifts the pace. *)
  let clear = { bp with Mmt.Control.Backpressure.severity = 0 } in
  Mmt.Sender.on_control sender backpressure_header (Mmt.Control.Backpressure.encode clear);
  Alcotest.(check bool) "pace cleared" true
    ((Mmt.Sender.stats sender).Mmt.Sender.current_pace = None)

(* Copy audit: a message crosses the sender and the receiver without a
   full-payload copy on the major heap.  The sender writes into a ring
   frame, the receiver parses it in place and retires it, and the next
   send takes the same frame back from the pool. *)
let test_copy_audit () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let sender = Mmt.Sender.create ~env (sender_config ()) in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ _ -> ())
  in
  let payload = Bytes.make 8192 'p' in
  let message () =
    Mmt.Sender.send sender payload;
    Mmt.Receiver.on_packet receiver (Queue.pop queue)
  in
  for _ = 1 to 10 do
    message ()
  done;
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to 200 do
    message ()
  done;
  let per_message = ((Gc.quick_stat ()).Gc.major_words -. before) /. 200. in
  let half_payload = float_of_int (Bytes.length payload / 8 / 2) in
  Alcotest.(check int) "delivered" 210
    (Mmt.Receiver.stats receiver).Mmt.Receiver.delivered;
  if per_message >= half_payload then
    Alcotest.failf "%.0f major words per message, bound %.0f" per_message
      half_payload

(* The DAQ case of the copy audit: an 8 KiB fragment is written through
   the writer send straight into the ring frame, and the receiver's
   payload view feeds the event builder through [Fragment.read_header],
   so no copy of the payload reaches the major heap. *)
let test_copy_audit_fragment () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let sender = Mmt.Sender.create ~env (sender_config ()) in
  let builder =
    Mmt_daq.Event_builder.create ~slices:[ 0 ] ~timeout:(Units.Time.ms 10.)
  in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ payload ->
        match Mmt_daq.Fragment.read_header payload with
        | Ok h ->
            ignore
              (Mmt_daq.Event_builder.add builder ~now:(Mmt_sim.Engine.now engine)
                 ~run:h.Mmt_daq.Fragment.run ~trigger:h.Mmt_daq.Fragment.trigger
                 ~slice:(Mmt.Experiment_id.slice h.Mmt_daq.Fragment.experiment))
        | Error e -> Alcotest.fail e)
  in
  let fragment =
    {
      Mmt_daq.Fragment.run = 1;
      trigger = 0;
      timestamp = Units.Time.zero;
      experiment;
      detector =
        Mmt_daq.Fragment.Beam_instrument
          { device = 0; sample_rate_khz = 2000; adc_bits = 14 };
      payload = Bytes.make 8192 'p';
    }
  in
  let message trigger =
    let f = { fragment with Mmt_daq.Fragment.trigger } in
    Mmt.Sender.send_with sender ~length:(Mmt_daq.Fragment.total_size f)
      (fun w -> Mmt_daq.Fragment.write w f);
    Mmt.Receiver.on_packet receiver (Queue.pop queue)
  in
  for trigger = 1 to 10 do
    message trigger
  done;
  let before = (Gc.quick_stat ()).Gc.major_words in
  for trigger = 11 to 210 do
    message trigger
  done;
  let per_message = ((Gc.quick_stat ()).Gc.major_words -. before) /. 200. in
  let half_payload = float_of_int (Bytes.length fragment.Mmt_daq.Fragment.payload / 8 / 2) in
  Alcotest.(check int) "events built" 210
    (Mmt_daq.Event_builder.stats builder).Mmt_daq.Event_builder.complete;
  if per_message >= half_payload then
    Alcotest.failf "%.0f major words per message, bound %.0f" per_message
      half_payload

(* Lending safety: [Sender.send] lets the caller reuse its payload as
   soon as [send] returns.  The caller re-stamps one buffer between
   sends while a slow pacer holds the messages back; each must still
   reach the wire with its own stamp, which fails if the sender queues
   the writer or a reference to the caller's buffer instead of the
   written bytes. *)
let test_paced_sender_outlives_lent_payload () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let sender = paced_sender ~env in
  let buffer = Bytes.make 256 '\xA5' in
  let stamps = List.init 20 (fun i -> Int64.of_int ((i * 7919) + 1)) in
  let max_queued = ref 0 in
  List.iter
    (fun stamp ->
      Bytes.set_int64_be buffer 0 stamp;
      Mmt.Sender.send sender buffer;
      max_queued := max !max_queued (Mmt.Sender.stats sender).Mmt.Sender.queued)
    stamps;
  Mmt_sim.Engine.run engine;
  let wire =
    List.map
      (fun packet -> Bytes.get_int64_be (snd (decode_control packet)) 0)
      (drain_queue queue)
  in
  Alcotest.(check bool) "messages waited behind the pacer" true (!max_queued > 10);
  Alcotest.(check (list int64)) "each message carries its own stamp" stamps wire

(* A Synthetic stream's payload is virtual: a message that waits behind
   the pacer keeps its padding, so it leaves with the full fragment's
   wire size and its header's payload length checks out against the
   receiver's tail reader. *)
let test_paced_sender_keeps_virtual_payload () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let sender = paced_sender ~env in
  let config =
    {
      Mmt_daq.Workload.experiment = Mmt_daq.Experiment.find Mmt_daq.Experiment.Dune;
      scale = 1e-6;
      profile = Mmt_daq.Workload.Steady;
      payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 256);
      run = 1;
      slice = 0;
    }
  in
  let max_queued = ref 0 in
  let emit ~padding f =
    Mmt.Sender.send_with sender ~padding ~length:(Mmt_daq.Fragment.total_size f)
      (fun w -> Mmt_daq.Fragment.write ~padding w f);
    max_queued := max !max_queued (Mmt.Sender.stats sender).Mmt.Sender.queued
  in
  let workload =
    Mmt_daq.Workload.start ~engine ~rng:(Rng.create ~seed:3L) config ~emit
      ~until:(Units.Time.ms 1.)
  in
  Mmt_sim.Engine.run engine;
  let headers = ref [] in
  let receiver =
    Mmt.Receiver.create ~env (receiver_config ()) ~deliver:(fun _ payload ->
        match Mmt_daq.Fragment.read_header payload with
        | Ok h ->
            headers :=
              (h.Mmt_daq.Fragment.trigger, h.Mmt_daq.Fragment.payload_length)
              :: !headers
        | Error e -> Alcotest.fail e)
  in
  let fragment_wire =
    Mmt.Header.size (Mmt.Header.mode0 ~experiment)
    + Mmt_daq.Fragment.header_size + Mmt_daq.Fragment.subheader_size + 256
  in
  let packets = drain_queue queue in
  List.iter
    (fun packet ->
      Alcotest.(check int) "padding kept" 256 packet.Mmt_sim.Packet.padding;
      Alcotest.(check int) "full wire size" fragment_wire
        (Units.Size.to_bytes (Mmt_sim.Packet.wire_size packet));
      Mmt.Receiver.on_packet receiver packet)
    packets;
  let sent = (Mmt_daq.Workload.stats workload).Mmt_daq.Workload.fragments_emitted in
  Alcotest.(check bool) "messages waited behind the pacer" true (!max_queued > 10);
  Alcotest.(check (list (pair int int))) "each header states the virtual payload"
    (List.init sent (fun trigger -> (trigger, 256)))
    (List.rev !headers)

(* [Encap.packet] takes a writer that must fill exactly [length] bytes:
   one byte short or one byte long raises before the packet escapes, and
   the ring slot it took is back. *)
let test_encap_packet_exact_length () =
  let engine = Mmt_sim.Engine.create () in
  let ring = Mmt_sim.Ring.create () in
  let env, _queue = Mmt_runtime.Env.loopback ~ring engine in
  let header = Mmt.Header.mode0 ~experiment in
  let build written =
    Mmt.Encap.packet env Mmt.Encap.Raw header ~length:64 (fun w ->
        Mmt_wire.Cursor.Writer.bytes w (Bytes.make written 'w'))
  in
  List.iter
    (fun written ->
      (match build written with
      | _ -> Alcotest.failf "writer of %d bytes accepted for 64" written
      | exception Invalid_argument _ -> ());
      Alcotest.(check int)
        (Printf.sprintf "no slot in use after %d bytes" written)
        0 (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use)
    [ 63; 65 ];
  let packet = build 64 in
  Alcotest.(check int) "exact length takes a slot" 1
    (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use;
  Alcotest.(check string) "payload written" (String.make 64 'w')
    (Bytes.to_string (snd (decode_control packet)))

(* Buffer host ----------------------------------------------------------------- *)

let nak_packet ~engine ~requester ranges =
  let header =
    Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Nak
  in
  let payload = Mmt.Control.Nak.encode { Mmt.Control.Nak.requester; ranges } in
  let frame =
    Mmt.Encap.wrap
      (Mmt.Encap.Over_ipv4 { src = requester; dst = buffer_ip; dscp = 0; ttl = 64 })
      (Bytes.cat (Mmt.Header.encode header) payload)
  in
  Mmt_sim.Packet.create ~id:1000 ~born:(Mmt_sim.Engine.now engine) frame

let test_buffer_host_serves_nak () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 1) () in
  for seq = 0 to 4 do
    Mmt.Buffer_host.store host ~seq ~born:Units.Time.zero (Bytes.make 50 'f')
  done;
  Mmt.Buffer_host.on_packet host
    (nak_packet ~engine ~requester:(Addr.Ip.of_octets 10 0 3 1) [ (1, 2); (4, 4) ]);
  let resent = drain_queue queue in
  Alcotest.(check int) "three frames resent" 3 (List.length resent);
  let stats = Mmt.Buffer_host.stats host in
  Alcotest.(check int) "naks" 1 stats.Mmt.Buffer_host.naks_received;
  Alcotest.(check int) "resent" 3 stats.Mmt.Buffer_host.frames_resent;
  Alcotest.(check int) "no escalation" 0 stats.Mmt.Buffer_host.escalated

(* The host keeps its own copy: overwriting the caller's frame after
   [store] leaves the resend unchanged. *)
let test_buffer_host_store_copies () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 1) () in
  let frame =
    Bytes.cat (Mmt.Header.encode (Mmt.Header.mode0 ~experiment)) (Bytes.make 50 'f')
  in
  let original = Bytes.copy frame in
  Mmt.Buffer_host.store host ~seq:0 ~born:Units.Time.zero frame;
  Bytes.fill frame 0 (Bytes.length frame) '\000';
  Mmt.Buffer_host.on_packet host
    (nak_packet ~engine ~requester:(Addr.Ip.of_octets 10 0 3 1) [ (0, 0) ]);
  match drain_queue queue with
  | [ resend ] ->
      Alcotest.(check string) "resent bytes" (Bytes.to_string original)
        (Bytes.to_string (Mmt_sim.Packet.frame resend))
  | _ -> Alcotest.fail "expected one resend"

let test_buffer_host_escalates_misses () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let upstream = Addr.Ip.of_octets 10 0 0 1 in
  let host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 1) ~upstream () in
  let stored_frame =
    Bytes.cat (Mmt.Header.encode (Mmt.Header.mode0 ~experiment)) (Bytes.make 50 'f')
  in
  Mmt.Buffer_host.store host ~seq:0 ~born:Units.Time.zero stored_frame;
  Mmt.Buffer_host.on_packet host
    (nak_packet ~engine ~requester:(Addr.Ip.of_octets 10 0 3 1) [ (0, 2) ]);
  let out = drain_queue queue in
  (* One resend (seq 0) plus one escalated NAK for 1-2. *)
  Alcotest.(check int) "two packets out" 2 (List.length out);
  let stats = Mmt.Buffer_host.stats host in
  Alcotest.(check int) "escalated" 2 stats.Mmt.Buffer_host.escalated;
  (* The escalated NAK covers exactly the missing range. *)
  let escalated_nak =
    List.filter_map
      (fun p ->
        let header, payload = decode_control p in
        if header.Mmt.Header.kind = Mmt.Feature.Kind.Nak then
          match Mmt.Control.Nak.decode payload with Ok n -> Some n | Error _ -> None
        else None)
      out
  in
  match escalated_nak with
  | [ nak ] ->
      Alcotest.(check (list (pair int int))) "missing range" [ (1, 2) ]
        nak.Mmt.Control.Nak.ranges
  | _ -> Alcotest.fail "expected one escalated NAK"

let test_buffer_host_unserviceable_without_upstream () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 1) () in
  Mmt.Buffer_host.on_packet host
    (nak_packet ~engine ~requester:(Addr.Ip.of_octets 10 0 3 1) [ (5, 6) ]);
  Alcotest.(check int) "nothing sent" 0 (List.length (drain_queue queue));
  Alcotest.(check int) "unserviceable" 2
    (Mmt.Buffer_host.stats host).Mmt.Buffer_host.unserviceable

let test_buffer_host_advert () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 2) () in
  let advert = Mmt.Buffer_host.advert host ~rtt_hint:(Units.Time.ms 3.) in
  Alcotest.(check bool) "capacity advertised" true
    (Units.Size.equal advert.Mmt.Control.Buffer_advert.capacity (Units.Size.mib 2))

(* A padded frame's retransmission has the original wire size: DTN 1's
   rewriter hands the buffer the rewritten packet, the buffer keeps its
   padding and birth time, and the resend's IPv4 header states the wire
   length. *)
let test_buffer_host_resend_keeps_wire_size () =
  let engine = Mmt_sim.Engine.create () in
  let ring = Mmt_sim.Ring.create () in
  let env, queue = Mmt_runtime.Env.loopback ~ring engine in
  let host = Mmt.Buffer_host.create ~env ~capacity:(Units.Size.mib 1) () in
  let rewriter =
    Mmt_innet.Mode_rewriter.create
      ~mode:(Mmt.Mode.make ~name:"wan" ~reliable:buffer_ip ())
      ~re_encap:
        (Mmt.Encap.Over_ipv4
           { src = buffer_ip; dst = Addr.Ip.of_octets 10 0 3 1; dscp = 0; ttl = 64 })
      ~pool:(Mmt_sim.Ring.pool ring)
      ~on_rewrite:(fun ~seq ~born:_ packet ->
        Option.iter (fun seq -> Mmt.Buffer_host.store_packet host ~seq packet) seq)
      ()
  in
  let sender = Mmt.Sender.create ~env (sender_config ()) in
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.us 3.) (fun () ->
         Mmt.Sender.send_with sender ~padding:7000 ~length:100 (fun w ->
             Mmt_wire.Cursor.Writer.bytes w (Bytes.make 100 'v'))));
  Mmt_sim.Engine.run engine;
  let forwarded =
    match
      (Mmt_innet.Mode_rewriter.element rewriter).Mmt_innet.Element.process
        ~now:(Mmt_sim.Engine.now engine) (Queue.pop queue)
    with
    | Mmt_innet.Element.Forward packet -> packet
    | Mmt_innet.Element.Replicate _ | Mmt_innet.Element.Discard _ ->
        Alcotest.fail "rewriter did not forward"
  in
  let wire = Units.Size.to_bytes (Mmt_sim.Packet.wire_size forwarded) in
  let frame = Bytes.copy (Mmt_sim.Packet.frame forwarded) in
  Mmt_sim.Ring.in_packet_done ring forwarded;
  Mmt.Buffer_host.on_packet host
    (nak_packet ~engine ~requester:(Addr.Ip.of_octets 10 0 3 1) [ (0, 0) ]);
  match drain_queue queue with
  | [ resend ] -> (
      Alcotest.(check int) "wire size" wire
        (Units.Size.to_bytes (Mmt_sim.Packet.wire_size resend));
      Alcotest.(check int) "padding" 7000 resend.Mmt_sim.Packet.padding;
      Alcotest.(check string) "born" "3us"
        (Units.Time.to_string resend.Mmt_sim.Packet.born);
      Alcotest.(check bool) "frame bytes" true
        (Bytes.equal frame (Mmt_sim.Packet.frame resend));
      match Mmt.Encap.locate frame with
      | Ok (Mmt.Encap.Over_ipv4 _, mmt_offset) ->
          let in_front = mmt_offset - Ipv4.header_size in
          Alcotest.(check int) "IPv4 total length" (wire - in_front)
            (Bytes.get_uint16_be frame (in_front + 2))
      | _ -> Alcotest.fail "expected an IPv4 frame")
  | _ -> Alcotest.fail "expected one resend"

(* Capacity, eviction and the high water count wire bytes: room for
   three padded frames holds three, whatever their materialized size. *)
let test_retx_buffer_counts_wire_bytes () =
  let frame_bytes = 100 and padding = 1000 in
  let wire = frame_bytes + padding in
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes (3 * wire)) in
  let store seq =
    Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero ~padding
      (Bytes.make frame_bytes 'r')
  in
  for seq = 0 to 2 do
    store seq
  done;
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "three held" 3 stats.Mmt.Retx_buffer.entries;
  Alcotest.(check int) "none evicted" 0 stats.Mmt.Retx_buffer.evicted;
  store 3;
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check (list bool)) "the fourth evicts the oldest"
    [ false; true; true; true ]
    (List.init 4 (fun seq -> Mmt.Retx_buffer.contains buffer ~seq));
  Alcotest.(check int) "one evicted" 1 stats.Mmt.Retx_buffer.evicted;
  Alcotest.(check int) "high water in wire bytes" (3 * wire)
    (Units.Size.to_bytes stats.Mmt.Retx_buffer.occupancy_high_water)

let suite =
  [
    Alcotest.test_case "in-order delivery" `Quick test_in_order_delivery;
    Alcotest.test_case "gap detection + NAK" `Quick test_gap_detection_and_nak;
    Alcotest.test_case "recovery" `Quick test_recovery_clears_missing;
    Alcotest.test_case "duplicate suppression" `Quick test_duplicate_suppression;
    Alcotest.test_case "gives up after retries" `Quick test_gives_up_after_max_retries;
    Alcotest.test_case "unsequenced passthrough" `Quick test_unsequenced_passthrough;
    Alcotest.test_case "corrupted dropped" `Quick test_corrupted_dropped;
    Alcotest.test_case "deadline notice" `Quick test_deadline_notice_emitted;
    Alcotest.test_case "on-time no notice" `Quick test_on_time_no_notice;
    Alcotest.test_case "final age accumulation" `Quick test_final_age_accumulation;
    Alcotest.test_case "completion + goodput" `Quick test_completion_and_goodput;
    Alcotest.test_case "tail loss detected" `Quick test_tail_loss_detected;
    Alcotest.test_case "reordering debounced" `Quick
      test_reordering_debounced_no_spurious_nak;
    Alcotest.test_case "head loss recovered" `Quick test_head_loss_recovered;
    Alcotest.test_case "buffer advert retargets recovery" `Quick
      test_buffer_advert_retargets_recovery;
    Alcotest.test_case "sender mode0 frames" `Quick test_sender_mode0_frames;
    Alcotest.test_case "sender deadline budget" `Quick test_sender_deadline_budget;
    Alcotest.test_case "sender pacing" `Quick test_sender_pacing_spacing;
    Alcotest.test_case "sender backpressure" `Quick test_sender_backpressure_adjusts_pace;
    Alcotest.test_case "copy audit" `Quick test_copy_audit;
    Alcotest.test_case "copy audit: fragment" `Quick test_copy_audit_fragment;
    Alcotest.test_case "paced sender outlives lent payload" `Quick
      test_paced_sender_outlives_lent_payload;
    Alcotest.test_case "paced sender keeps virtual payload" `Quick
      test_paced_sender_keeps_virtual_payload;
    Alcotest.test_case "encap packet writes exactly length" `Quick
      test_encap_packet_exact_length;
    Alcotest.test_case "buffer host serves NAK" `Quick test_buffer_host_serves_nak;
    Alcotest.test_case "buffer host store copies" `Quick test_buffer_host_store_copies;
    Alcotest.test_case "buffer host escalates" `Quick test_buffer_host_escalates_misses;
    Alcotest.test_case "buffer host unserviceable" `Quick
      test_buffer_host_unserviceable_without_upstream;
    Alcotest.test_case "buffer host advert" `Quick test_buffer_host_advert;
    Alcotest.test_case "buffer host resend keeps wire size" `Quick
      test_buffer_host_resend_keeps_wire_size;
    Alcotest.test_case "retx buffer counts wire bytes" `Quick
      test_retx_buffer_counts_wire_bytes;
  ]
