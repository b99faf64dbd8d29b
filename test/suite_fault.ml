(* The fault-injection subsystem: plans, the injector, link fault
   hooks, on-the-wire corruption vs. the header checksum, the
   invariant ledger, and end-to-end chaos runs. *)
open Mmt_util
open Mmt_frame
module Sim = Mmt_sim
module Fault = Mmt_fault

let us = Units.Time.us
let ms = Units.Time.ms

let mk_packet ?(id = 0) size =
  Sim.Packet.create ~id ~born:Units.Time.zero (Bytes.create size)

(* Plans ------------------------------------------------------------------ *)

let test_plan_orders_by_time () =
  let plan =
    Fault.Plan.make
      [
        Fault.Plan.event ~at:(ms 5.) (Fault.Plan.Link_up "late");
        Fault.Plan.event ~at:(ms 1.) (Fault.Plan.Link_down "first");
        Fault.Plan.event ~at:(ms 1.) (Fault.Plan.Link_down "second");
      ]
  in
  Alcotest.(check int) "length" 3 (Fault.Plan.length plan);
  Alcotest.(check bool) "not empty" false (Fault.Plan.is_empty plan);
  Alcotest.(check bool) "empty is empty" true
    (Fault.Plan.is_empty Fault.Plan.empty);
  match Fault.Plan.events plan with
  | [ a; b; c ] ->
      Alcotest.(check bool) "earliest first" true
        (a.Fault.Plan.action = Fault.Plan.Link_down "first");
      (* Stable: same-instant events keep authoring order. *)
      Alcotest.(check bool) "stable tie-break" true
        (b.Fault.Plan.action = Fault.Plan.Link_down "second");
      Alcotest.(check bool) "latest last" true
        (c.Fault.Plan.action = Fault.Plan.Link_up "late")
  | _ -> Alcotest.fail "expected three events"

let test_plan_validation () =
  let rejects action =
    match Fault.Plan.make [ Fault.Plan.event ~at:Units.Time.zero action ] with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "factor > 1 rejected" true
    (rejects (Fault.Plan.Degrade_rate { link = "l"; factor = 1.5 }));
  Alcotest.(check bool) "factor = 0 rejected" true
    (rejects (Fault.Plan.Degrade_rate { link = "l"; factor = 0. }));
  Alcotest.(check bool) "probability > 1 rejected" true
    (rejects
       (Fault.Plan.Corrupt_headers { link = "l"; probability = 1.5; bits = 1 }));
  Alcotest.(check bool) "bits < 1 rejected" true
    (rejects
       (Fault.Plan.Corrupt_headers { link = "l"; probability = 0.5; bits = 0 }));
  Alcotest.(check bool) "factor 1.0 accepted" true
    (not (rejects (Fault.Plan.Degrade_rate { link = "l"; factor = 1.0 })))

(* Injector: link down/up ------------------------------------------------- *)

let test_injector_link_flap () =
  let engine = Sim.Engine.create () in
  let delivered = ref 0 in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:Units.Rate.zero
      ~ring:(Sim.Ring.create ())
      ~propagation:(us 1.)
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let injector = Fault.Injector.create ~engine ~links:[ link ] () in
  Fault.Injector.arm injector
    (Fault.Plan.make
       [
         Fault.Plan.event ~at:(us 10.) (Fault.Plan.Link_down "l");
         Fault.Plan.event ~at:(us 30.) (Fault.Plan.Link_up "l");
       ]);
  (* One packet while healthy, one while down, one after recovery. *)
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule engine ~at (fun () ->
             Sim.Link.send link (mk_packet 100))))
    [ us 5.; us 20.; us 40. ];
  Sim.Engine.run engine;
  let stats = Sim.Link.stats link in
  Alcotest.(check int) "two delivered" 2 !delivered;
  Alcotest.(check int) "one fault drop" 1 stats.Sim.Link.fault_drops;
  Alcotest.(check int) "both faults applied" 2 (Fault.Injector.applied injector);
  Alcotest.(check int) "log has two entries" 2
    (List.length (Fault.Injector.log injector));
  Alcotest.(check bool) "link back up" true (Sim.Link.is_up link)

let test_injector_degrade_restore () =
  let engine = Sim.Engine.create () in
  let original = Units.Rate.gbps 1. in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:original
      ~ring:(Sim.Ring.create ())
      ~propagation:Units.Time.zero
      ~deliver:(fun _ -> ())
      ()
  in
  let injector = Fault.Injector.create ~engine ~links:[ link ] () in
  Fault.Injector.arm injector
    (Fault.Plan.make
       [
         Fault.Plan.event ~at:(us 10.)
           (Fault.Plan.Degrade_rate { link = "l"; factor = 0.5 });
         Fault.Plan.event ~at:(us 30.) (Fault.Plan.Restore_rate "l");
       ]);
  let browned_out = ref None in
  ignore
    (Sim.Engine.schedule engine ~at:(us 20.) (fun () ->
         browned_out := Some (Sim.Link.rate link)));
  Sim.Engine.run engine;
  Alcotest.(check bool) "rate halved mid-run" true
    (match !browned_out with
    | Some rate -> rate = Units.Rate.scale original 0.5
    | None -> false);
  Alcotest.(check bool) "rate restored after" true
    (Sim.Link.rate link = original);
  Alcotest.(check int) "two faults applied" 2 (Fault.Injector.applied injector)

let test_injector_rejects_unknown_names () =
  let engine = Sim.Engine.create () in
  let injector = Fault.Injector.create ~engine ~links:[] () in
  let rejects action =
    match
      Fault.Injector.arm injector
        (Fault.Plan.make [ Fault.Plan.event ~at:Units.Time.zero action ])
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unknown link" true (rejects (Fault.Plan.Link_down "nope"));
  Alcotest.(check bool) "unregistered element" true
    (rejects (Fault.Plan.Fail_element "nope"));
  Alcotest.(check bool) "unregistered control" true
    (rejects (Fault.Plan.Blackhole_adverts "nope"))

let test_injector_element_and_control_dispatch () =
  let engine = Sim.Engine.create () in
  let injector = Fault.Injector.create ~engine ~links:[] () in
  let alive = ref true and blackholed = ref false in
  Fault.Injector.register_element injector "elt"
    ~fail:(fun () -> alive := false)
    ~restart:(fun () -> alive := true);
  Fault.Injector.register_control injector "cp" (fun b -> blackholed := b);
  Fault.Injector.arm injector
    (Fault.Plan.make
       [
         Fault.Plan.event ~at:(us 1.) (Fault.Plan.Fail_element "elt");
         Fault.Plan.event ~at:(us 2.) (Fault.Plan.Blackhole_adverts "cp");
         Fault.Plan.event ~at:(us 3.) (Fault.Plan.Restart_element "elt");
         Fault.Plan.event ~at:(us 4.) (Fault.Plan.Unblackhole_adverts "cp");
       ]);
  ignore
    (Sim.Engine.schedule engine ~at:(Units.Time.ns 1_500) (fun () ->
         Alcotest.(check bool) "failed at 1.5us" false !alive));
  ignore
    (Sim.Engine.schedule engine ~at:(Units.Time.ns 2_500) (fun () ->
         Alcotest.(check bool) "blackholed at 2.5us" true !blackholed));
  Sim.Engine.run engine;
  Alcotest.(check bool) "restarted" true !alive;
  Alcotest.(check bool) "unblackholed" false !blackholed;
  Alcotest.(check int) "four applied" 4 (Fault.Injector.applied injector)

(* Corruption vs. the header checksum ------------------------------------- *)

let checksummed_frame seq =
  Mmt.Header.encode
    (Mmt.Header.with_checksummed
       (Mmt.Header.create ~sequence:seq
          ~retransmit_from:(Addr.Ip.of_octets 10 0 1 1)
          ~experiment:(Mmt.Experiment_id.make ~experiment:3 ~slice:0)
          ()))

(* Send [n] sealed headers through a link whose tamperer flips one bit
   per frame; classify each arrival.  Returns (caught, benign,
   undetected, digest-of-arrivals). *)
let corrupt_run ~seed n =
  let engine = Sim.Engine.create () in
  let caught = ref 0 and benign = ref 0 and undetected = ref 0 in
  let arrivals = Buffer.create (n * 16) in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:Units.Rate.zero
      ~ring:(Sim.Ring.create ())
      ~propagation:(us 1.)
      ~deliver:(fun p ->
        let frame = Sim.Packet.frame p in
        Buffer.add_bytes arrivals frame;
        match Mmt.Header.View.of_frame frame with
        | Error _ -> incr caught
        | Ok view ->
            if not (Mmt.Header.View.has view Mmt.Feature.Checksummed) then
              (* The flip erased the feature bit itself: benign alone,
                 but a required-checksum path discards it anyway. *)
              incr benign
            else if Mmt.Header.View.verify view then incr undetected
            else incr caught)
      ()
  in
  let injector = Fault.Injector.create ~seed ~engine ~links:[ link ] () in
  Fault.Injector.arm injector
    (Fault.Plan.make
       [
         Fault.Plan.event ~at:Units.Time.zero
           (Fault.Plan.Corrupt_headers { link = "l"; probability = 1.0; bits = 1 });
       ]);
  for i = 1 to n do
    ignore
      (Sim.Engine.schedule engine ~at:(us (float_of_int i)) (fun () ->
           Sim.Link.send link
             (Sim.Packet.create ~id:i ~born:Units.Time.zero
                (checksummed_frame i))))
  done;
  Sim.Engine.run engine;
  let stats = Sim.Link.stats link in
  ((!caught, !benign, !undetected, stats.Sim.Link.tampered),
   Digest.to_hex (Digest.string (Buffer.contents arrivals)))

let test_corruption_caught_by_checksum () =
  let (caught, benign, undetected, tampered), _ = corrupt_run ~seed:0xFA17L 300 in
  Alcotest.(check int) "every frame tampered" 300 tampered;
  Alcotest.(check int) "no single-bit flip slips through" 0 undetected;
  Alcotest.(check bool) "most are caught by the sum" true (caught > benign);
  Alcotest.(check int) "all arrivals classified" 300 (caught + benign)

let test_corruption_deterministic () =
  let a = corrupt_run ~seed:0xFA17L 100 in
  let b = corrupt_run ~seed:0xFA17L 100 in
  Alcotest.(check bool) "same seed, same bits, same outcomes" true (a = b);
  let _, digest_other = corrupt_run ~seed:1L 100 in
  Alcotest.(check bool) "different seed, different bits" true
    (snd a <> digest_other)

(* Invariant ledger ------------------------------------------------------- *)

let outcome_of ~emitted ~abandoned ?(resurrected = 0) ?(pending = 0)
    ?(terminated = true) ledger =
  Fault.Invariant.check
    (Fault.Invariant.outcome ~emitted ~abandoned ~resurrected ~pending
       ~terminated ledger)

let test_invariant_balanced_books () =
  let ledger = Fault.Invariant.ledger () in
  List.iter (fun seq -> Fault.Invariant.delivered ledger ~seq) [ 0; 1; 2 ];
  Alcotest.(check (list string)) "all delivered" []
    (outcome_of ~emitted:3 ~abandoned:0 ledger);
  let ledger = Fault.Invariant.ledger () in
  List.iter (fun seq -> Fault.Invariant.delivered ledger ~seq) [ 0; 2 ];
  Alcotest.(check (list string)) "one abandoned" []
    (outcome_of ~emitted:3 ~abandoned:1 ledger)

let test_invariant_duplicate_delivery () =
  let ledger = Fault.Invariant.ledger () in
  Fault.Invariant.delivered ledger ~seq:7;
  Fault.Invariant.delivered ledger ~seq:7;
  Alcotest.(check bool) "duplicate flagged" true
    (outcome_of ~emitted:1 ~abandoned:0 ledger <> [])

let test_invariant_limbo_and_mismatch () =
  let ledger = Fault.Invariant.ledger () in
  Fault.Invariant.delivered ledger ~seq:0;
  Alcotest.(check bool) "pending flagged" true
    (outcome_of ~emitted:2 ~abandoned:0 ~pending:1 ledger <> []);
  let ledger = Fault.Invariant.ledger () in
  Fault.Invariant.delivered ledger ~seq:0;
  Alcotest.(check bool) "accounting mismatch flagged" true
    (outcome_of ~emitted:2 ~abandoned:0 ledger <> []);
  Alcotest.(check bool) "non-termination flagged" true
    (outcome_of ~emitted:1 ~abandoned:0 ~terminated:false ledger <> [])

let test_invariant_resurrection_balances () =
  let ledger = Fault.Invariant.ledger () in
  (* All three delivered, but seq 1 was first abandoned and then a
     straggling retransmission landed: the receiver reports it as
     resurrected, and the books still balance. *)
  List.iter (fun seq -> Fault.Invariant.delivered ledger ~seq) [ 0; 1; 2 ];
  Alcotest.(check (list string)) "resurrected compensates" []
    (outcome_of ~emitted:3 ~abandoned:1 ~resurrected:1 ledger)

(* End-to-end chaos runs -------------------------------------------------- *)

module C = Mmt_pilot.Chaos_run

let test_chaos_restart_reconverges () =
  (* Kill the active buffer mid-stream, then bring it back empty: the
     planner must fail over to B, keep the stream whole, and re-adopt
     A once its adverts return. *)
  let outcome =
    C.run
      (C.params ~fragment_count:1500
         ~plan:
           (Fault.Plan.make
              [
                Fault.Plan.event ~at:(ms 2.) (Fault.Plan.Fail_element "buffer-a");
                Fault.Plan.event ~at:(ms 40.)
                  (Fault.Plan.Restart_element "buffer-a");
              ])
         ())
  in
  Alcotest.(check (list string)) "no invariant violations" []
    outcome.C.violations;
  Alcotest.(check int) "all delivered" 1500 outcome.C.delivered;
  Alcotest.(check int) "nothing lost" 0
    (outcome.C.lost + outcome.C.unrecoverable);
  Alcotest.(check bool) "failed over then re-adopted A" true
    (outcome.C.mode_changes >= 2);
  Alcotest.(check string) "A serves again at the end" "A"
    outcome.C.final_buffer;
  Alcotest.(check bool) "B served NAKs during the outage" true
    (outcome.C.naks_served_by_b > 0)

let test_chaos_blackhole_degrades_then_recovers () =
  (* Advert blackhole: soft state genuinely expires, the rewriter
     strips frames to the safe mode instead of pointing at a buffer it
     can no longer trust, and sequencing resumes after the blackhole
     lifts. *)
  let outcome =
    C.run
      (C.params ~fragment_count:1500 ~loss:0. ~advert_period:(ms 1.)
         ~track_total:false
         ~plan:
           (Fault.Plan.make
              [
                (* TTL is 4x the advert period: the t=0 adverts expire
                   at 4 ms, inside the ~5 ms send window. *)
                Fault.Plan.event ~at:(ms 0.5)
                  (Fault.Plan.Blackhole_adverts "control");
                Fault.Plan.event ~at:(ms 8.)
                  (Fault.Plan.Unblackhole_adverts "control");
              ])
         ())
  in
  Alcotest.(check (list string)) "no invariant violations" []
    outcome.C.violations;
  Alcotest.(check bool) "frames degraded while blackholed" true
    (outcome.C.degraded_rewrites > 0 && outcome.C.degraded_delivered > 0);
  (* The receiver's [delivered] counts degraded (unsequenced)
     deliveries too, so the stream is whole iff it reaches the total. *)
  Alcotest.(check int) "every fragment still delivered" 1500
    outcome.C.delivered;
  Alcotest.(check int) "emitted only the sequenced share"
    (1500 - outcome.C.degraded_delivered)
    outcome.C.emitted;
  Alcotest.(check string) "reconverged to A" "A" outcome.C.final_buffer

let test_chaos_empty_plan_is_faultless () =
  let outcome = C.run (C.params ~fragment_count:800 ()) in
  Alcotest.(check int) "no faults applied" 0 outcome.C.faults_applied;
  Alcotest.(check int) "nothing tampered" 0 outcome.C.tampered;
  Alcotest.(check (list string)) "no violations" [] outcome.C.violations;
  Alcotest.(check int) "all delivered" 800 outcome.C.delivered

(* Fault hooks firing mid-hop ---------------------------------------------- *)

let test_fault_hooks_mid_hop () =
  (* Up state and the tamperer are read when a packet finishes
     serializing, so a hook that fires while a packet is on the
     transmitter applies to that packet, and a downed link destroys
     what leaves the wire.  Timeline (1000 B at 0.8 Gbps = 10 us on the
     wire, 20 us propagation): p1 starts at 0, a tamperer lands at 5 us
     and must hit it at 10 us; p2 starts at 12 us (tamperer already
     cleared), the link goes down at 15 us and must destroy p2 at the
     wire at 22 us; p3 starts after recovery and survives; p4 starts
     after a rate degrade and serializes at the new rate.  A second
     link goes down at 30 us while p5, serialized at 20 us, is still
     propagating: packets already in flight are past the wire and
     arrive. *)
  let engine = Sim.Engine.create () in
  let delivered = ref 0 in
  let link =
    Sim.Link.create ~engine ~name:"l" ~rate:(Units.Rate.gbps 0.8)
      ~ring:(Sim.Ring.create ())
      ~propagation:(us 20.)
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let in_flight = ref 0 in
  let flight_link =
    Sim.Link.create ~engine ~name:"f" ~rate:(Units.Rate.gbps 0.8)
      ~ring:(Sim.Ring.create ())
      ~propagation:(us 20.)
      ~deliver:(fun _ -> incr in_flight)
      ()
  in
  let at t fn = ignore (Sim.Engine.schedule engine ~at:t fn) in
  at (us 0.) (fun () -> Sim.Link.send link (mk_packet ~id:1 1000));
  at (us 5.) (fun () -> Sim.Link.set_tamper link (Some (fun _ -> true)));
  at (us 10.) (fun () -> Sim.Link.send flight_link (mk_packet ~id:5 1000));
  at (us 12.) (fun () ->
      Sim.Link.set_tamper link None;
      Sim.Link.send link (mk_packet ~id:2 1000));
  at (us 15.) (fun () -> Sim.Link.set_up link false);
  at (us 25.) (fun () -> Sim.Link.set_up link true);
  at (us 26.) (fun () -> Sim.Link.send link (mk_packet ~id:3 1000));
  at (us 30.) (fun () -> Sim.Link.set_up flight_link false);
  at (us 40.) (fun () -> Sim.Link.set_rate link (Units.Rate.gbps 0.4));
  at (us 41.) (fun () -> Sim.Link.send link (mk_packet ~id:4 1000));
  Sim.Engine.run engine;
  let stats = Sim.Link.stats link in
  Alcotest.(check int) "tamperer hit the packet on the transmitter" 1
    stats.Sim.Link.tampered;
  Alcotest.(check int) "downed wire destroyed the packet on the transmitter" 1
    stats.Sim.Link.fault_drops;
  Alcotest.(check int) "survivors delivered" 3 !delivered;
  Alcotest.(check int) "all four serialized" 4 stats.Sim.Link.transmitted;
  (* p4 serialized at the degraded rate: 10 + 10 + 10 + 20 us. *)
  Alcotest.(check bool) "busy reflects the degraded rate" true
    (Units.Time.equal stats.Sim.Link.busy (us 50.));
  Alcotest.(check int) "packet in flight when the link went down arrives" 1
    !in_flight;
  Alcotest.(check int) "no fault drop for the in-flight packet" 0
    (Sim.Link.stats flight_link).Sim.Link.fault_drops

(* E-R1 determinism ------------------------------------------------------- *)

let test_er1_deterministic_across_domains () =
  (* The whole chaos series is a pure function of (plans, seeds): a
     second run on another domain — the way `shapeshift all --jobs N`
     executes it — must render the byte-identical report. *)
  let sequential = Mmt_experiments.Chaos.run () in
  let on_domain = Domain.spawn (fun () -> Mmt_experiments.Chaos.run ()) in
  let parallel = Domain.join on_domain in
  Alcotest.(check bool) "all checks pass" true (snd sequential);
  Alcotest.(check bool) "byte-identical across domains" true
    (fst sequential = fst parallel)

let suite =
  [
    Alcotest.test_case "plan orders by time" `Quick test_plan_orders_by_time;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "injector link flap" `Quick test_injector_link_flap;
    Alcotest.test_case "injector degrade/restore" `Quick
      test_injector_degrade_restore;
    Alcotest.test_case "injector rejects unknown names" `Quick
      test_injector_rejects_unknown_names;
    Alcotest.test_case "injector element/control dispatch" `Quick
      test_injector_element_and_control_dispatch;
    Alcotest.test_case "corruption caught by checksum" `Quick
      test_corruption_caught_by_checksum;
    Alcotest.test_case "corruption deterministic" `Quick
      test_corruption_deterministic;
    Alcotest.test_case "invariant balanced books" `Quick
      test_invariant_balanced_books;
    Alcotest.test_case "invariant duplicate delivery" `Quick
      test_invariant_duplicate_delivery;
    Alcotest.test_case "invariant limbo and mismatch" `Quick
      test_invariant_limbo_and_mismatch;
    Alcotest.test_case "invariant resurrection balances" `Quick
      test_invariant_resurrection_balances;
    Alcotest.test_case "chaos restart reconverges" `Slow
      test_chaos_restart_reconverges;
    Alcotest.test_case "chaos blackhole degrades then recovers" `Slow
      test_chaos_blackhole_degrades_then_recovers;
    Alcotest.test_case "chaos empty plan is faultless" `Quick
      test_chaos_empty_plan_is_faultless;
    Alcotest.test_case "fault hooks land mid-hop" `Quick
      test_fault_hooks_mid_hop;
    Alcotest.test_case "E-R1 deterministic across domains" `Slow
      test_er1_deterministic_across_domains;
  ]
