(* Failure injection and observability: packet tracing, burst loss,
   undersized buffers, encrypted payloads through the full element
   path. *)
open Mmt_util
open Mmt_frame

(* Tracing -------------------------------------------------------------- *)

let test_trace_records_link_events () =
  let engine = Mmt_sim.Engine.create () in
  let trace = Mmt_sim.Trace.create () in
  let topo = Mmt_sim.Topology.create ~engine ~trace () in
  let a = Mmt_sim.Topology.add_node topo ~name:"a" in
  let b = Mmt_sim.Topology.add_node topo ~name:"b" in
  let rng = Rng.create ~seed:3L in
  let link =
    Mmt_sim.Topology.connect topo ~src:a ~dst:b ~rate:(Units.Rate.gbps 1.)
      ~propagation:(Units.Time.us 5.)
      ~loss:(Mmt_sim.Loss.bernoulli ~drop:0.2 ~corrupt:0.1 ~rng)
      ()
  in
  for i = 0 to 199 do
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale (Units.Time.us 10.) (float_of_int i))
         (fun () ->
           Mmt_sim.Link.send link
             (Mmt_sim.Packet.create ~id:i ~born:(Mmt_sim.Engine.now engine)
                (Bytes.create 100))))
  done;
  Mmt_sim.Engine.run engine;
  let stats = Mmt_sim.Link.stats link in
  Alcotest.(check int) "sent = offered" stats.Mmt_sim.Link.offered
    (Mmt_sim.Trace.count trace Mmt_sim.Link.Sent);
  Alcotest.(check int) "delivered match" stats.Mmt_sim.Link.delivered
    (Mmt_sim.Trace.count trace Mmt_sim.Link.Delivered);
  Alcotest.(check int) "loss drops match" stats.Mmt_sim.Link.loss_drops
    (Mmt_sim.Trace.count trace Mmt_sim.Link.Loss_dropped);
  Alcotest.(check int) "corrupted match" stats.Mmt_sim.Link.corrupted
    (Mmt_sim.Trace.count trace Mmt_sim.Link.Corrupted);
  (* Per-packet journey: a delivered packet has Sent -> Transmitted ->
     Delivered in order. *)
  let delivered_id =
    List.find_map
      (fun (e : Mmt_sim.Trace.entry) ->
        if e.Mmt_sim.Trace.event = Mmt_sim.Link.Delivered then
          Some e.Mmt_sim.Trace.packet_id
        else None)
      (Mmt_sim.Trace.entries trace)
  in
  (match delivered_id with
  | Some id -> (
      let history = Mmt_sim.Trace.packet_history trace ~packet_id:id in
      match List.map (fun (e : Mmt_sim.Trace.entry) -> e.Mmt_sim.Trace.event) history with
      | [ Mmt_sim.Link.Sent; Mmt_sim.Link.Transmitted; Mmt_sim.Link.Delivered ] -> ()
      | [ Mmt_sim.Link.Sent; Mmt_sim.Link.Transmitted; Mmt_sim.Link.Corrupted;
          Mmt_sim.Link.Delivered ] -> ()
      | other ->
          Alcotest.fail
            (Printf.sprintf "unexpected journey of %d events" (List.length other)))
  | None -> Alcotest.fail "expected at least one delivery");
  Alcotest.(check bool) "render has lines" true
    (String.length (Mmt_sim.Trace.render ~limit:5 trace) > 0)

let test_trace_capacity_truncation () =
  let trace = Mmt_sim.Trace.create ~capacity:10 () in
  let packet = Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero (Bytes.create 4) in
  for i = 0 to 24 do
    Mmt_sim.Trace.record trace
      ~at:(Units.Time.of_int_ns i)
      ~link:"x" Mmt_sim.Link.Sent packet
  done;
  Alcotest.(check int) "bounded" 10 (List.length (Mmt_sim.Trace.entries trace));
  Alcotest.(check int) "truncated counted" 15 (Mmt_sim.Trace.truncated trace)

(* Burst loss ------------------------------------------------------------- *)

let test_burst_loss_recovered () =
  let outcome =
    Mmt_pilot.Runners.Placement_run.run
      (Mmt_pilot.Runners.Placement_run.params ~loss:0.01 ~bursty:true
         ~fragment_count:5000 ~seed:29L ())
  in
  Alcotest.(check bool) "bursts actually happened" true
    (outcome.Mmt_pilot.Runners.Placement_run.recovered > 5);
  Alcotest.(check int) "complete despite bursts" 5000
    outcome.Mmt_pilot.Runners.Placement_run.delivered;
  Alcotest.(check int) "nothing abandoned" 0
    outcome.Mmt_pilot.Runners.Placement_run.lost

(* Undersized retransmission buffer ------------------------------------------ *)

let test_tiny_buffer_accounts_losses () =
  (* A 32 KiB buffer holds only ~4 frames of 7200 B: most NAKed
     sequences were evicted long before the NAK arrives.  Conservation
     must still hold: every fragment is delivered or accounted lost. *)
  let outcome =
    Mmt_pilot.Runners.Placement_run.run
      (Mmt_pilot.Runners.Placement_run.params ~loss:0.01
         ~buffer_capacity:(Units.Size.kib 32) ~fragment_count:3000 ~seed:41L ())
  in
  let r = outcome.Mmt_pilot.Runners.Placement_run.receiver in
  Alcotest.(check bool) "some losses became permanent" true
    (outcome.Mmt_pilot.Runners.Placement_run.lost > 0);
  Alcotest.(check int) "conservation" 3000
    (outcome.Mmt_pilot.Runners.Placement_run.delivered
    + outcome.Mmt_pilot.Runners.Placement_run.lost);
  Alcotest.(check int) "no limbo" 0 r.Mmt.Receiver.still_missing

(* Encrypted payloads through the element path -------------------------------- *)

let test_encrypted_payloads_cross_elements () =
  (* Req 5: payloads are opaque ciphertext; headers stay processable.
     Sender encrypts each fragment; the rewriter sequences it and the
     age tracker touches it in flight; the receiver decrypts and
     verifies content integrity end to end. *)
  let key = Mmt.Payload_crypto.key_of_string "pilot secret" in
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let ring = Option.get (Mmt_sim.Topology.ring topo) in
  let fresh_id () = Mmt_sim.Topology.fresh_packet_id topo in
  let src = Mmt_sim.Topology.add_node topo ~name:"src" in
  let mid = Mmt_sim.Topology.add_node topo ~name:"mid" in
  let dst = Mmt_sim.Topology.add_node topo ~name:"dst" in
  let src_ip = Addr.Ip.of_octets 10 4 0 1 in
  let mid_ip = Addr.Ip.of_octets 10 4 0 2 in
  let dst_ip = Addr.Ip.of_octets 10 4 0 3 in
  let rate = Units.Rate.gbps 10. in
  let src_to_mid =
    Mmt_sim.Topology.connect topo ~src ~dst:mid ~rate ~propagation:(Units.Time.us 50.) ()
  in
  let mid_to_dst =
    Mmt_sim.Topology.connect topo ~src:mid ~dst ~rate ~propagation:(Units.Time.us 50.) ()
  in
  let router_mid =
    Mmt_innet.Router.create ~default:(Mmt_sim.Link.send mid_to_dst) ~ring 0
  in
  let mode =
    Mmt.Mode.make ~name:"enc/wan" ~reliable:mid_ip ~age_budget_us:10_000 ()
  in
  let rewriter = Mmt_innet.Mode_rewriter.create ~mode ~pool:(Mmt_sim.Ring.pool ring) () in
  let age_tracker = Mmt_innet.Age_tracker.create () in
  let _switch =
    Mmt_innet.Switch.attach ~engine ~node:mid ~profile:Mmt_innet.Switch.tofino2
      ~router:router_mid
      ~elements:
        [ Mmt_innet.Mode_rewriter.element rewriter;
          Mmt_innet.Age_tracker.element age_tracker ]
      ()
  in
  let experiment = Mmt.Experiment_id.make ~experiment:4 ~slice:0 in
  let router_src =
    Mmt_innet.Router.create ~default:(Mmt_sim.Link.send src_to_mid) ~ring 0
  in
  let env_src = Mmt_innet.Router.env router_src ~engine ~fresh_id ~local_ip:src_ip in
  let sender =
    Mmt.Sender.create ~env:env_src
      {
        Mmt.Sender.experiment;
        destination = dst_ip;
        encap = Mmt.Encap.Raw;
        deadline_budget = None;
      }
  in
  let decrypted = ref [] in
  let env_dst =
    Mmt_innet.Router.env
      (Mmt_innet.Router.create ~default:(Mmt_sim.Ring.in_packet_done ring) ~ring 0)
      ~engine ~fresh_id ~local_ip:dst_ip
  in
  let receiver =
    Mmt.Receiver.create ~env:env_dst
      {
        Mmt.Receiver.experiment;
        nak_delay = Units.Time.ms 1.;
        nak_retry_timeout = Units.Time.ms 10.;
        max_nak_retries = 3;
        expected_total = Some 50;
      }
      ~deliver:(fun (meta : Mmt.Receiver.meta) payload ->
        let nonce =
          Int64.of_int (Option.value ~default:0 meta.Mmt.Receiver.sequence)
        in
        match
          Mmt.Payload_crypto.decrypt key ~nonce (Mmt_wire.Cursor.Reader.rest payload)
        with
        | Ok plaintext -> decrypted := Bytes.to_string plaintext :: !decrypted
        | Error e -> Alcotest.fail ("decrypt: " ^ e))
  in
  Mmt_sim.Node.set_handler dst (Mmt.Receiver.on_packet receiver);
  (* The sequence is assigned in-network, so the nonce must be known to
     both ends: sender counts messages the same way the rewriter's
     register does. *)
  for i = 0 to 49 do
    let plaintext = Printf.sprintf "reading-%04d" i in
    let ciphertext =
      Mmt.Payload_crypto.encrypt key ~nonce:(Int64.of_int i) (Bytes.of_string plaintext)
    in
    ignore
      (Mmt_sim.Engine.schedule engine
         ~at:(Units.Time.scale (Units.Time.us 20.) (float_of_int i))
         (fun () -> Mmt.Sender.send sender ciphertext))
  done;
  Mmt_sim.Engine.run engine;
  Alcotest.(check int) "all decrypted" 50 (List.length !decrypted);
  Alcotest.(check bool) "content intact" true
    (List.mem "reading-0007" !decrypted);
  Alcotest.(check int) "age tracked despite opaque payload" 50
    (Mmt_innet.Age_tracker.stats age_tracker).Mmt_innet.Age_tracker.touched

(* Conservation across random seeds ------------------------------------------- *)

let qcheck_pilot_conservation =
  QCheck.Test.make ~name:"pilot conserves fragments across seeds" ~count:6
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let config =
        {
          Mmt_pilot.Pilot.default_config with
          Mmt_pilot.Pilot.fragment_count = 200;
          wan_loss = 0.01;
          wan_corrupt = 0.002;
          payload = Mmt_daq.Workload.Synthetic (Units.Size.bytes 512);
          seed = Int64.of_int seed;
        }
      in
      let pilot = Mmt_pilot.Pilot.build config in
      Mmt_pilot.Pilot.run pilot;
      let r = (Mmt_pilot.Pilot.results pilot).Mmt_pilot.Pilot.receiver in
      r.Mmt.Receiver.delivered + r.Mmt.Receiver.lost = 200
      && r.Mmt.Receiver.still_missing = 0
      && r.Mmt.Receiver.duplicates = 0)

let suite =
  [
    Alcotest.test_case "trace records link events" `Quick test_trace_records_link_events;
    Alcotest.test_case "trace truncation" `Quick test_trace_capacity_truncation;
    Alcotest.test_case "burst loss recovered" `Slow test_burst_loss_recovered;
    Alcotest.test_case "tiny buffer accounting" `Slow test_tiny_buffer_accounts_losses;
    Alcotest.test_case "encrypted payloads cross elements" `Quick
      test_encrypted_payloads_cross_elements;
    QCheck_alcotest.to_alcotest qcheck_pilot_conservation;
  ]
