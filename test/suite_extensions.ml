(* Extensions: payload crypto (Req 5), control plane + planner (§ 6.1),
   payload processing discipline (§ 6.2), dynamic mode reconfiguration
   and the failover integration. *)
open Mmt_util
open Mmt_frame

(* Payload crypto ---------------------------------------------------------- *)

let key = Mmt.Payload_crypto.key_of_string "correct horse battery staple"

let test_crypto_roundtrip () =
  let plaintext = Bytes.of_string "neutrino interactions are shy" in
  let ciphertext = Mmt.Payload_crypto.encrypt key ~nonce:42L plaintext in
  Alcotest.(check int) "overhead" (Bytes.length plaintext + Mmt.Payload_crypto.overhead)
    (Bytes.length ciphertext);
  Alcotest.(check bool) "ciphertext differs" false
    (Bytes.equal (Bytes.sub ciphertext 0 (Bytes.length plaintext)) plaintext);
  match Mmt.Payload_crypto.decrypt key ~nonce:42L ciphertext with
  | Ok decrypted -> Alcotest.(check bool) "roundtrip" true (Bytes.equal decrypted plaintext)
  | Error e -> Alcotest.fail e

let test_crypto_wrong_key () =
  let ciphertext = Mmt.Payload_crypto.encrypt key ~nonce:1L (Bytes.of_string "secret") in
  let other = Mmt.Payload_crypto.key_of_string "wrong passphrase" in
  Alcotest.(check bool) "wrong key rejected" true
    (Result.is_error (Mmt.Payload_crypto.decrypt other ~nonce:1L ciphertext))

let test_crypto_wrong_nonce () =
  let ciphertext = Mmt.Payload_crypto.encrypt key ~nonce:1L (Bytes.of_string "secret") in
  Alcotest.(check bool) "nonce binding" true
    (Result.is_error (Mmt.Payload_crypto.decrypt key ~nonce:2L ciphertext))

let test_crypto_detects_corruption () =
  let ciphertext = Mmt.Payload_crypto.encrypt key ~nonce:1L (Bytes.of_string "secret!") in
  Bytes.set ciphertext 3 (Char.chr (Char.code (Bytes.get ciphertext 3) lxor 0x40));
  Alcotest.(check bool) "bit flip detected" true
    (Result.is_error (Mmt.Payload_crypto.decrypt key ~nonce:1L ciphertext));
  Alcotest.(check bool) "truncation detected" true
    (Result.is_error (Mmt.Payload_crypto.decrypt key ~nonce:1L (Bytes.create 3)))

let test_crypto_empty_payload () =
  let ciphertext = Mmt.Payload_crypto.encrypt key ~nonce:9L Bytes.empty in
  match Mmt.Payload_crypto.decrypt key ~nonce:9L ciphertext with
  | Ok decrypted -> Alcotest.(check int) "empty" 0 (Bytes.length decrypted)
  | Error e -> Alcotest.fail e

let qcheck_crypto_roundtrip =
  QCheck.Test.make ~name:"encrypt/decrypt roundtrip" ~count:200
    QCheck.(pair int64 (string_of_size (Gen.int_range 0 300)))
    (fun (nonce, s) ->
      let plaintext = Bytes.of_string s in
      match
        Mmt.Payload_crypto.decrypt key ~nonce
          (Mmt.Payload_crypto.encrypt key ~nonce plaintext)
      with
      | Ok decrypted -> Bytes.equal decrypted plaintext
      | Error _ -> false)

(* Control plane + planner -------------------------------------------------- *)

let buffer_a_ip = Addr.Ip.of_octets 10 0 1 1
let buffer_b_ip = Addr.Ip.of_octets 10 0 1 2

let advert ip rtt_ms =
  {
    Mmt.Control.Buffer_advert.buffer = ip;
    capacity = Units.Size.mib 64;
    rtt_hint = Units.Time.ms rtt_ms;
  }

let test_control_plane_advertises () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let cp =
    Mmt_innet.Control_plane.create ~env ~period:(Units.Time.ms 10.)
      ~peers:[ Addr.Ip.of_octets 10 0 9 9 ] ()
  in
  Mmt_innet.Control_plane.add_local cp (fun () -> Some (advert buffer_a_ip 2.));
  Mmt_innet.Control_plane.start cp;
  Mmt_sim.Engine.run ~until:(Units.Time.ms 35.) engine;
  Mmt_innet.Control_plane.stop cp;
  Mmt_sim.Engine.run engine;
  (* Rounds at 0, 10, 20, 30 ms = 4 adverts to one peer. *)
  Alcotest.(check int) "adverts on the wire" 4 (Queue.length queue);
  Alcotest.(check int) "stats" 4
    (Mmt_innet.Control_plane.stats cp).Mmt_innet.Control_plane.adverts_sent;
  Alcotest.(check bool) "own map knows the buffer" true
    (Mmt_innet.Control_plane.best_buffer cp = Some buffer_a_ip)

let test_control_plane_withdraw_expires () =
  let engine = Mmt_sim.Engine.create () in
  let env, _queue = Mmt_runtime.Env.loopback engine in
  let cp = Mmt_innet.Control_plane.create ~env ~period:(Units.Time.ms 10.) ~peers:[] () in
  let alive = ref true in
  Mmt_innet.Control_plane.add_local cp (fun () ->
      if !alive then Some (advert buffer_a_ip 2.) else None);
  Mmt_innet.Control_plane.start cp;
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.ms 25.) (fun () -> alive := false));
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.ms 30.) (fun () ->
         Alcotest.(check bool) "still live within ttl" true
           (Mmt_innet.Control_plane.best_buffer cp = Some buffer_a_ip)));
  ignore
    (Mmt_sim.Engine.schedule engine ~at:(Units.Time.ms 100.) (fun () ->
         Alcotest.(check bool) "expired after withdrawal" true
           (Mmt_innet.Control_plane.best_buffer cp = None);
         Mmt_innet.Control_plane.stop cp));
  Mmt_sim.Engine.run ~until:(Units.Time.ms 120.) engine

let test_control_plane_ingests_and_gossips () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let cp =
    Mmt_innet.Control_plane.create ~env ~period:(Units.Time.ms 10.)
      ~peers:[ Addr.Ip.of_octets 10 0 9 9 ] ()
  in
  (* Build an advert packet as a peer would send it. *)
  let header =
    Mmt.Header.with_kind
      (Mmt.Header.mode0 ~experiment:(Mmt.Experiment_id.make ~experiment:0 ~slice:0))
      Mmt.Feature.Kind.Buffer_advert
  in
  let frame =
    Mmt.Encap.wrap
      (Mmt.Encap.Over_ipv4
         { src = buffer_b_ip; dst = env.Mmt_runtime.Env.local_ip; dscp = 0; ttl = 64 })
      (Bytes.cat (Mmt.Header.encode header)
         (Mmt.Control.Buffer_advert.encode (advert buffer_b_ip 3.)))
  in
  let packet = Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero frame in
  Mmt_innet.Control_plane.on_packet cp packet;
  Alcotest.(check bool) "learned" true
    (Mmt_innet.Control_plane.best_buffer cp = Some buffer_b_ip);
  Alcotest.(check int) "received counted" 1
    (Mmt_innet.Control_plane.stats cp).Mmt_innet.Control_plane.adverts_received;
  Alcotest.(check int) "re-gossiped once" 1 (Queue.length queue);
  (* A second copy is not re-gossiped (hop budget spent). *)
  Queue.clear queue;
  Mmt_innet.Control_plane.on_packet cp packet;
  Alcotest.(check int) "no second gossip" 0 (Queue.length queue)

let test_planner_selects_nearest () =
  let map = Mmt_innet.Resource_map.create () in
  let now = Units.Time.zero in
  Mmt_innet.Resource_map.learn map ~now (advert buffer_a_ip 5.);
  Mmt_innet.Resource_map.learn map ~now (advert buffer_b_ip 2.);
  let requirement =
    Mmt_innet.Planner.requirement ~name:"wan" ~reliability:true ~age_budget_us:1000 ()
  in
  match Mmt_innet.Planner.plan requirement ~map ~now with
  | Ok mode ->
      Alcotest.(check bool) "nearest buffer" true
        (mode.Mmt.Mode.retransmit_from = Some buffer_b_ip);
      Alcotest.(check bool) "well-formed" true (Mmt.Mode.check mode = Ok ())
  | Error e -> Alcotest.fail e

let test_planner_reports_missing_resource () =
  let map = Mmt_innet.Resource_map.create () in
  let requirement = Mmt_innet.Planner.requirement ~name:"wan" ~reliability:true () in
  Alcotest.(check bool) "no buffer -> error" true
    (Result.is_error (Mmt_innet.Planner.plan requirement ~map ~now:Units.Time.zero));
  (* Without reliability, planning succeeds resource-free. *)
  let plain = Mmt_innet.Planner.requirement ~name:"plain" ~age_budget_us:5 () in
  Alcotest.(check bool) "resource-free plan" true
    (Result.is_ok (Mmt_innet.Planner.plan plain ~map ~now:Units.Time.zero))

let test_replan_applies_mode_change () =
  let map = Mmt_innet.Resource_map.create ~ttl:(Units.Time.ms 10.) () in
  Mmt_innet.Resource_map.learn map ~now:Units.Time.zero (advert buffer_a_ip 2.);
  let requirement =
    Mmt_innet.Planner.requirement ~name:"wan" ~reliability:true ~age_budget_us:1000 ()
  in
  let initial =
    match Mmt_innet.Planner.plan requirement ~map ~now:Units.Time.zero with
    | Ok mode -> mode
    | Error e -> Alcotest.fail e
  in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:initial ()
  in
  (* A now expires; B appears. *)
  Mmt_innet.Resource_map.learn map ~now:(Units.Time.ms 20.) (advert buffer_b_ip 4.);
  (match
     Mmt_innet.Planner.replan_rewriter requirement ~rewriter ~map
       ~now:(Units.Time.ms 20.)
   with
  | Ok mode ->
      Alcotest.(check bool) "switched to B" true
        (mode.Mmt.Mode.retransmit_from = Some buffer_b_ip)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "rewriter updated" true
    ((Mmt_innet.Mode_rewriter.mode rewriter).Mmt.Mode.retransmit_from
    = Some buffer_b_ip)

let test_set_mode_validates () =
  let good = Mmt.Mode.make ~name:"good" ~reliable:buffer_a_ip ~age_budget_us:10 () in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:good ()
  in
  let broken = { good with Mmt.Mode.retransmit_from = None } in
  Alcotest.(check bool) "ill-formed rejected" true
    (Result.is_error (Mmt_innet.Mode_rewriter.set_mode rewriter broken));
  let seq_only =
    {
      Mmt.Mode.identification with
      Mmt.Mode.name = "seq-only";
      features = Mmt.Feature.Set.of_list [ Mmt.Feature.Sequenced ];
    }
  in
  Alcotest.(check bool) "illegal transition rejected" true
    (Result.is_error (Mmt_innet.Mode_rewriter.set_mode rewriter seq_only));
  Alcotest.(check bool) "legal change accepted" true
    (Result.is_ok
       (Mmt_innet.Mode_rewriter.set_mode rewriter
          (Mmt.Mode.make ~name:"good2" ~reliable:buffer_b_ip ~age_budget_us:10 ())))

(* Payload-processing discipline (§ 6.2) ------------------------------------ *)

let test_alert_generator_not_p4_realizable () =
  let engine = Mmt_sim.Engine.create () in
  let env, _ = Mmt_runtime.Env.loopback engine in
  let generator =
    Mmt_innet.Alert_generator.create ~env
      {
        Mmt_innet.Alert_generator.sum_adc_threshold = 1;
        subscribers = [];
        min_gap = Units.Time.zero;
      }
  in
  let element = Mmt_innet.Alert_generator.element generator in
  Alcotest.(check bool) "P4 class rejects" true
    (Result.is_error (Mmt_innet.Op.realizable element.Mmt_innet.Element.program));
  Alcotest.(check bool) "payload class accepts" true
    (Mmt_innet.Op.realizable ~allow_payload:true element.Mmt_innet.Element.program
    = Ok ())

let test_alert_generator_thresholds () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let generator =
    Mmt_innet.Alert_generator.create ~env
      {
        Mmt_innet.Alert_generator.sum_adc_threshold = 500;
        subscribers = [ Addr.Ip.of_octets 10 1 0 1 ];
        min_gap = Units.Time.zero;
      }
  in
  let element = Mmt_innet.Alert_generator.element generator in
  let fragment_with hits =
    let fragment =
      {
        Mmt_daq.Fragment.run = 1;
        trigger = 7;
        timestamp = Units.Time.zero;
        experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0;
        detector =
          Mmt_daq.Fragment.Wib_ethernet
            { crate = 1; slot = 0; fiber = 0; first_channel = 0; channel_count = 8 };
        payload = Mmt_daq.Lartpc.serialize_hits hits;
      }
    in
    let header = Mmt.Header.mode0 ~experiment:fragment.Mmt_daq.Fragment.experiment in
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
      (Bytes.cat (Mmt.Header.encode header) (Mmt_daq.Fragment.encode fragment))
  in
  let quiet_hit =
    { Mmt_daq.Lartpc.channel = 0; start_tick = 1; time_over_threshold = 2; peak_adc = 30; sum_adc = 60 }
  in
  let loud_hit = { quiet_hit with Mmt_daq.Lartpc.sum_adc = 900 } in
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (fragment_with [ quiet_hit ]));
  Alcotest.(check int) "quiet fragment: no alert" 0 (Queue.length queue);
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (fragment_with [ loud_hit ]));
  Alcotest.(check int) "loud fragment: alert emitted" 1 (Queue.length queue);
  let stats = Mmt_innet.Alert_generator.stats generator in
  Alcotest.(check int) "inspected" 2 stats.Mmt_innet.Alert_generator.inspected;
  Alcotest.(check int) "triggered" 1 stats.Mmt_innet.Alert_generator.triggers_seen;
  (* The alert parses back to a Telescope_alert fragment. *)
  let alert_packet = Queue.pop queue in
  match Mmt.Encap.parse (Mmt_sim.Packet.frame alert_packet) with
  | Error e -> Alcotest.fail e
  | Ok (_header, payload) -> (
      match Mmt_daq.Fragment.read payload with
      | Ok
          {
            Mmt_daq.Fragment.detector =
              Mmt_daq.Fragment.Telescope_alert { severity; _ };
            _;
          } ->
          Alcotest.(check bool) "severity scaled" true (severity >= 0)
      | Ok _ -> Alcotest.fail "expected a telescope alert"
      | Error e -> Alcotest.fail e)

let test_alert_generator_rate_limit () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let generator =
    Mmt_innet.Alert_generator.create ~env
      {
        Mmt_innet.Alert_generator.sum_adc_threshold = 1;
        subscribers = [ Addr.Ip.of_octets 10 1 0 1 ];
        min_gap = Units.Time.ms 5.;
      }
  in
  let element = Mmt_innet.Alert_generator.element generator in
  let loud =
    { Mmt_daq.Lartpc.channel = 0; start_tick = 0; time_over_threshold = 1; peak_adc = 10; sum_adc = 100 }
  in
  let packet () =
    let fragment =
      {
        Mmt_daq.Fragment.run = 1;
        trigger = 0;
        timestamp = Units.Time.zero;
        experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0;
        detector = Mmt_daq.Fragment.Photon_detector { module_id = 0; sipm_count = 1; gain = 1 };
        payload = Mmt_daq.Lartpc.serialize_hits [ loud ];
      }
    in
    let header = Mmt.Header.mode0 ~experiment:fragment.Mmt_daq.Fragment.experiment in
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
      (Bytes.cat (Mmt.Header.encode header) (Mmt_daq.Fragment.encode fragment))
  in
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (packet ()));
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (packet ()));
  Alcotest.(check int) "second alert suppressed" 1 (Queue.length queue);
  Alcotest.(check int) "both crossings counted" 2
    (Mmt_innet.Alert_generator.stats generator).Mmt_innet.Alert_generator.triggers_seen

(* Failover integration ------------------------------------------------------- *)

let test_failover_end_to_end () =
  let module C = Mmt_pilot.Chaos_run in
  let outcome =
    C.run
      (C.failover_trial ~fragment_count:12_000 ~fail_at:(Units.Time.ms 5.) ())
  in
  Alcotest.(check int) "all delivered" 12_000 outcome.C.delivered;
  Alcotest.(check int) "none lost" 0 outcome.C.lost;
  Alcotest.(check string) "switched to B" "B" outcome.C.final_buffer;
  Alcotest.(check int) "one mode change" 1 outcome.C.mode_changes;
  Alcotest.(check bool) "B served recoveries" true (outcome.C.naks_served_by_b > 0);
  (* A's expiry replans at once, so no frame leaves unsequenced. *)
  Alcotest.(check int) "none degraded" 0 outcome.C.degraded_delivered;
  Alcotest.(check (list string)) "no violations" [] outcome.C.violations

let test_priority_runner_shapes () =
  let droptail = Mmt_pilot.Runners.Priority_run.run ~deadline_aware:false in
  let edf = Mmt_pilot.Runners.Priority_run.run ~deadline_aware:true in
  Alcotest.(check bool) "droptail has late alerts" true
    (droptail.Mmt_pilot.Runners.Priority_run.alerts_late > 0);
  Alcotest.(check int) "edf has none" 0 edf.Mmt_pilot.Runners.Priority_run.alerts_late;
  Alcotest.(check int) "bulk equal" droptail.Mmt_pilot.Runners.Priority_run.bulk_delivered
    edf.Mmt_pilot.Runners.Priority_run.bulk_delivered

let suite =
  [
    Alcotest.test_case "crypto roundtrip" `Quick test_crypto_roundtrip;
    Alcotest.test_case "crypto wrong key" `Quick test_crypto_wrong_key;
    Alcotest.test_case "crypto wrong nonce" `Quick test_crypto_wrong_nonce;
    Alcotest.test_case "crypto detects corruption" `Quick test_crypto_detects_corruption;
    Alcotest.test_case "crypto empty payload" `Quick test_crypto_empty_payload;
    QCheck_alcotest.to_alcotest qcheck_crypto_roundtrip;
    Alcotest.test_case "control plane advertises" `Quick test_control_plane_advertises;
    Alcotest.test_case "withdrawal expires" `Quick test_control_plane_withdraw_expires;
    Alcotest.test_case "ingest + bounded gossip" `Quick test_control_plane_ingests_and_gossips;
    Alcotest.test_case "planner selects nearest" `Quick test_planner_selects_nearest;
    Alcotest.test_case "planner missing resource" `Quick test_planner_reports_missing_resource;
    Alcotest.test_case "replan applies change" `Quick test_replan_applies_mode_change;
    Alcotest.test_case "set_mode validates" `Quick test_set_mode_validates;
    Alcotest.test_case "alert gen not P4" `Quick test_alert_generator_not_p4_realizable;
    Alcotest.test_case "alert gen thresholds" `Quick test_alert_generator_thresholds;
    Alcotest.test_case "alert gen rate limit" `Quick test_alert_generator_rate_limit;
    Alcotest.test_case "failover end-to-end" `Slow test_failover_end_to_end;
    Alcotest.test_case "priority runner shapes" `Slow test_priority_runner_shapes;
  ]
