(* P4 op programs, in-network elements, resource map and switch shell. *)
open Mmt_util
open Mmt_frame

let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0
let buffer_ip = Addr.Ip.of_octets 10 0 1 1
let notify_ip = Addr.Ip.of_octets 10 0 0 9

(* Op programs ---------------------------------------------------------------- *)

let test_realizable_ok () =
  let program =
    { Mmt_innet.Op.name = "ok"; ops = [ Mmt_innet.Op.Extract "a"; Mmt_innet.Op.Set_field "b" ] }
  in
  Alcotest.(check bool) "ok" true (Mmt_innet.Op.realizable program = Ok ())

let test_realizable_rejects_payload () =
  let program =
    { Mmt_innet.Op.name = "bad"; ops = [ Mmt_innet.Op.Payload_access "body" ] }
  in
  Alcotest.(check bool) "payload rejected" true
    (match Mmt_innet.Op.realizable program with Error _ -> true | Ok () -> false)

let test_realizable_rejects_float () =
  let program = { Mmt_innet.Op.name = "bad"; ops = [ Mmt_innet.Op.Float_op "ewma" ] } in
  Alcotest.(check bool) "float rejected" true
    (match Mmt_innet.Op.realizable program with Error _ -> true | Ok () -> false)

let test_realizable_rejects_too_many_ops () =
  let program =
    {
      Mmt_innet.Op.name = "huge";
      ops = List.init 100 (fun i -> Mmt_innet.Op.Set_field (string_of_int i));
    }
  in
  Alcotest.(check bool) "op budget" true
    (match Mmt_innet.Op.realizable program with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "explicit budget" true
    (Mmt_innet.Op.realizable ~max_ops:100 program = Ok ())

let test_shipped_elements_realizable () =
  let engine = Mmt_sim.Engine.create () in
  let env, _ = Mmt_runtime.Env.loopback engine in
  let mode = Mmt.Mode.make ~name:"m" ~reliable:buffer_ip ~age_budget_us:10 () in
  let elements =
    [
      Mmt_innet.Mode_rewriter.element
        (Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode ());
      Mmt_innet.Age_tracker.element (Mmt_innet.Age_tracker.create ());
      Mmt_innet.Duplicator.element
        (Mmt_innet.Duplicator.create ~env ~consumers:[ notify_ip ] ());
      Mmt_innet.Timeliness_checker.element
        (Mmt_innet.Timeliness_checker.create ~env ~policy:Mmt_innet.Timeliness_checker.Mark ());
    ]
  in
  List.iter
    (fun (e : Mmt_innet.Element.t) ->
      match Mmt_innet.Op.realizable e.Mmt_innet.Element.program with
      | Ok () -> ()
      | Error reason -> Alcotest.fail reason)
    elements

(* Mode rewriter ---------------------------------------------------------------- *)

let mode0_packet ~engine ~id payload_size =
  let frame =
    Bytes.cat
      (Mmt.Header.encode (Mmt.Header.mode0 ~experiment))
      (Bytes.make payload_size 'p')
  in
  Mmt_sim.Packet.create ~id ~born:(Mmt_sim.Engine.now engine) frame

let wan_mode =
  Mmt.Mode.make ~name:"wan" ~reliable:buffer_ip
    ~deadline_budget:(Units.Time.ms 20., notify_ip)
    ~age_budget_us:15_000 ()

let header_of_packet packet =
  match Mmt.Encap.parse (Mmt_sim.Packet.frame packet) with
  | Ok (header, _payload) -> header
  | Error e -> Alcotest.fail e

let test_rewriter_activates_mode () =
  let engine = Mmt_sim.Engine.create () in
  let stored = ref [] in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:wan_mode
      ~on_rewrite:(fun ~seq ~born:_ _frame -> stored := seq :: !stored)
      ()
  in
  let element = Mmt_innet.Mode_rewriter.element rewriter in
  let run_one id =
    match element.Mmt_innet.Element.process ~now:(Units.Time.ms 1.) (mode0_packet ~engine ~id 64) with
    | Mmt_innet.Element.Forward p -> p
    | _ -> Alcotest.fail "expected forward"
  in
  let p0 = run_one 0 in
  let p1 = run_one 1 in
  let h0 = header_of_packet p0 in
  let h1 = header_of_packet p1 in
  Alcotest.(check (option int)) "seq 0" (Some 0) h0.Mmt.Header.sequence;
  Alcotest.(check (option int)) "seq 1" (Some 1) h1.Mmt.Header.sequence;
  Alcotest.(check bool) "buffer named" true
    (match h0.Mmt.Header.retransmit_from with
    | Some ip -> Addr.Ip.equal ip buffer_ip
    | None -> false);
  (match h0.Mmt.Header.timely with
  | Some { Mmt.Header.deadline; notify } ->
      Alcotest.(check string) "deadline = ingress + budget" "21ms"
        (Units.Time.to_string deadline);
      Alcotest.(check bool) "notify" true (Addr.Ip.equal notify notify_ip)
  | None -> Alcotest.fail "expected timely");
  (match h0.Mmt.Header.age with
  | Some age ->
      Alcotest.(check int) "age zeroed" 0 age.Mmt.Header.age_us;
      Alcotest.(check int) "budget" 15_000 age.Mmt.Header.budget_us
  | None -> Alcotest.fail "expected age");
  Alcotest.(check (list (option int))) "stored callbacks" [ Some 1; Some 0 ] !stored;
  let stats = Mmt_innet.Mode_rewriter.stats rewriter in
  Alcotest.(check int) "rewritten" 2 stats.Mmt_innet.Mode_rewriter.rewritten;
  Alcotest.(check int) "sequenced" 2 stats.Mmt_innet.Mode_rewriter.sequenced

let test_rewriter_re_encapsulates () =
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:wan_mode
      ~re_encap:
        (Mmt.Encap.Over_ipv4
           { src = buffer_ip; dst = Addr.Ip.of_octets 10 0 3 1; dscp = 0; ttl = 64 })
      ()
  in
  let element = Mmt_innet.Mode_rewriter.element rewriter in
  (* Start from an Ethernet-encapsulated mode-0 frame (DAQ network). *)
  let eth_frame =
    Mmt.Encap.wrap
      (Mmt.Encap.Over_ethernet
         {
           src = Addr.Mac.of_string "02:00:00:00:00:01";
           dst = Addr.Mac.of_string "02:00:00:00:00:02";
         })
      (Bytes.cat (Mmt.Header.encode (Mmt.Header.mode0 ~experiment)) (Bytes.make 10 'p'))
  in
  let packet = Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero eth_frame in
  (match element.Mmt_innet.Element.process ~now:Units.Time.zero packet with
  | Mmt_innet.Element.Forward p -> (
      match Mmt.Encap.locate (Mmt_sim.Packet.frame p) with
      | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, _) ->
          Alcotest.(check string) "now IPv4 toward DTN2" "10.0.3.1" (Addr.Ip.to_string dst)
      | Ok _ -> Alcotest.fail "expected IPv4 encap"
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected forward")

let test_rewriter_strips_features () =
  (* Campus-border rewriter: back to identification-only. *)
  let strip_mode = { Mmt.Mode.identification with Mmt.Mode.name = "strip" } in
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:strip_mode ()
  in
  let element = Mmt_innet.Mode_rewriter.element rewriter in
  let rich_header =
    Mmt.Header.with_retransmit_from
      (Mmt.Header.with_sequence (Mmt.Header.mode0 ~experiment) 5)
      buffer_ip
  in
  let packet =
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
      (Bytes.cat (Mmt.Header.encode rich_header) (Bytes.make 8 'p'))
  in
  match element.Mmt_innet.Element.process ~now:Units.Time.zero packet with
  | Mmt_innet.Element.Forward p ->
      let h = header_of_packet p in
      Alcotest.(check (option int)) "seq stripped" None h.Mmt.Header.sequence;
      Alcotest.(check bool) "features empty" true
        (Mmt.Feature.Set.equal h.Mmt.Header.features Mmt.Feature.Set.empty)
  | _ -> Alcotest.fail "expected forward"

(* The liveness oracle may replan: re-pointed at a live standby, the
   frame names it and nothing degrades.  With no live buffer left to
   re-point at, the frame degrades to unsequenced. *)
let test_rewriter_oracle_replans () =
  let engine = Mmt_sim.Engine.create () in
  let standby = Addr.Ip.of_octets 10 0 1 2 in
  let standby_live = ref true in
  let rewriter = ref None in
  let liveness ip ~now:_ =
    if Addr.Ip.equal ip standby then !standby_live
    else
      (* [buffer_ip] is dead: replan onto the standby while it lives. *)
      !standby_live
      && Result.is_ok
           (Mmt_innet.Mode_rewriter.set_mode (Option.get !rewriter)
              (Mmt.Mode.make ~name:"standby" ~reliable:standby ()))
  in
  let r =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ())
      ~mode:(Mmt.Mode.make ~name:"primary" ~reliable:buffer_ip ())
      ~liveness ()
  in
  rewriter := Some r;
  let element = Mmt_innet.Mode_rewriter.element r in
  let run_one id =
    match
      element.Mmt_innet.Element.process ~now:(Units.Time.ms 1.)
        (mode0_packet ~engine ~id 64)
    with
    | Mmt_innet.Element.Forward p -> header_of_packet p
    | _ -> Alcotest.fail "expected forward"
  in
  let h = run_one 0 in
  Alcotest.(check (option int)) "sequenced" (Some 0) h.Mmt.Header.sequence;
  Alcotest.(check bool) "names the standby" true
    (match h.Mmt.Header.retransmit_from with
    | Some ip -> Addr.Ip.equal ip standby
    | None -> false);
  Alcotest.(check int) "not degraded" 0
    (Mmt_innet.Mode_rewriter.stats r).Mmt_innet.Mode_rewriter.degraded;
  standby_live := false;
  let h = run_one 1 in
  Alcotest.(check (option int)) "unsequenced" None h.Mmt.Header.sequence;
  Alcotest.(check int) "degraded" 1
    (Mmt_innet.Mode_rewriter.stats r).Mmt_innet.Mode_rewriter.degraded

let test_rewriter_passes_control () =
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:wan_mode ()
  in
  let element = Mmt_innet.Mode_rewriter.element rewriter in
  let nak_header =
    Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Nak
  in
  let packet =
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero (Mmt.Header.encode nak_header)
  in
  (match element.Mmt_innet.Element.process ~now:Units.Time.zero packet with
  | Mmt_innet.Element.Forward p ->
      let h = header_of_packet p in
      Alcotest.(check (option int)) "untouched" None h.Mmt.Header.sequence
  | _ -> Alcotest.fail "expected forward");
  Alcotest.(check int) "passed counted" 1
    (Mmt_innet.Mode_rewriter.stats rewriter).Mmt_innet.Mode_rewriter.passed

let test_rewriter_per_experiment_counters () =
  let rewriter =
    Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode:wan_mode ()
  in
  let element = Mmt_innet.Mode_rewriter.element rewriter in
  let experiment_b = Mmt.Experiment_id.make ~experiment:5 ~slice:0 in
  let packet_of exp =
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
      (Bytes.cat (Mmt.Header.encode (Mmt.Header.mode0 ~experiment:exp)) (Bytes.make 4 'p'))
  in
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (packet_of experiment));
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (packet_of experiment));
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero (packet_of experiment_b));
  Alcotest.(check int) "exp A counter" 2
    (Mmt_innet.Mode_rewriter.next_sequence rewriter ~experiment);
  Alcotest.(check int) "exp B independent" 1
    (Mmt_innet.Mode_rewriter.next_sequence rewriter ~experiment:experiment_b)

(* Age tracker ------------------------------------------------------------------- *)

let test_age_tracker_accumulates () =
  let tracker = Mmt_innet.Age_tracker.create () in
  let element = Mmt_innet.Age_tracker.element tracker in
  let header =
    Mmt.Header.with_age (Mmt.Header.mode0 ~experiment)
      {
        Mmt.Header.age_us = 0;
        budget_us = 1_000;
        aged = false;
        hop_count = 0;
        last_touch_ns = Units.Time.zero;
      }
  in
  let packet =
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero (Mmt.Header.encode header)
  in
  (match element.Mmt_innet.Element.process ~now:(Units.Time.us 300.) packet with
  | Mmt_innet.Element.Forward p -> (
      let h = header_of_packet p in
      match h.Mmt.Header.age with
      | Some age ->
          Alcotest.(check int) "age 300us" 300 age.Mmt.Header.age_us;
          Alcotest.(check bool) "not aged" false age.Mmt.Header.aged;
          Alcotest.(check int) "hop" 1 age.Mmt.Header.hop_count
      | None -> Alcotest.fail "age missing")
  | _ -> Alcotest.fail "expected forward");
  (* Second touch beyond the budget marks aged. *)
  (match element.Mmt_innet.Element.process ~now:(Units.Time.us 1_500.) packet with
  | Mmt_innet.Element.Forward p -> (
      match (header_of_packet p).Mmt.Header.age with
      | Some age -> Alcotest.(check bool) "aged" true age.Mmt.Header.aged
      | None -> Alcotest.fail "age missing")
  | _ -> Alcotest.fail "expected forward");
  let stats = Mmt_innet.Age_tracker.stats tracker in
  Alcotest.(check int) "touched" 2 stats.Mmt_innet.Age_tracker.touched;
  Alcotest.(check int) "aged marked once" 1 stats.Mmt_innet.Age_tracker.aged_marked

let test_age_tracker_ignores_untracked () =
  let tracker = Mmt_innet.Age_tracker.create () in
  let element = Mmt_innet.Age_tracker.element tracker in
  let packet =
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
      (Mmt.Header.encode (Mmt.Header.mode0 ~experiment))
  in
  ignore (element.Mmt_innet.Element.process ~now:(Units.Time.us 5.) packet);
  Alcotest.(check int) "untracked" 1
    (Mmt_innet.Age_tracker.stats tracker).Mmt_innet.Age_tracker.untracked

(* Duplicator ----------------------------------------------------------------------- *)

let test_duplicator_fans_out () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let consumers = [ Addr.Ip.of_octets 10 1 0 1; Addr.Ip.of_octets 10 1 0 2 ] in
  let dup = Mmt_innet.Duplicator.create ~env ~consumers () in
  let element = Mmt_innet.Duplicator.element dup in
  let packet = mode0_packet ~engine ~id:7 32 in
  (match element.Mmt_innet.Element.process ~now:Units.Time.zero packet with
  | Mmt_innet.Element.Forward p ->
      (* Original forwarded unmarked. *)
      Alcotest.(check bool) "original not marked" false
        (Mmt.Feature.Set.mem Mmt.Feature.Duplicated
           (header_of_packet p).Mmt.Header.features)
  | _ -> Alcotest.fail "expected forward");
  let copies = ref [] in
  Queue.iter (fun p -> copies := p :: !copies) queue;
  Alcotest.(check int) "two copies" 2 (List.length !copies);
  List.iter
    (fun copy ->
      Alcotest.(check bool) "copy marked duplicated" true
        (Mmt.Feature.Set.mem Mmt.Feature.Duplicated
           (header_of_packet copy).Mmt.Header.features);
      Alcotest.(check bool) "fresh identity" true
        (copy.Mmt_sim.Packet.id <> packet.Mmt_sim.Packet.id))
    !copies;
  let stats = Mmt_innet.Duplicator.stats dup in
  Alcotest.(check int) "duplicated" 1 stats.Mmt_innet.Duplicator.duplicated;
  Alcotest.(check int) "copies" 2 stats.Mmt_innet.Duplicator.copies_sent

let test_duplicator_skips_control () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let dup = Mmt_innet.Duplicator.create ~env ~consumers:[ notify_ip ] () in
  let element = Mmt_innet.Duplicator.element dup in
  let nak =
    Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero
      (Mmt.Header.encode
         (Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Nak))
  in
  ignore (element.Mmt_innet.Element.process ~now:Units.Time.zero nak);
  Alcotest.(check int) "no copies of control" 0 (Queue.length queue)

(* Timeliness checker ------------------------------------------------------------------ *)

let timely_packet ~deadline =
  let header =
    Mmt.Header.with_timely (Mmt.Header.mode0 ~experiment)
      { Mmt.Header.deadline; notify = notify_ip }
  in
  Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero (Mmt.Header.encode header)

let test_timeliness_drop_policy () =
  let engine = Mmt_sim.Engine.create () in
  let env, _ = Mmt_runtime.Env.loopback engine in
  let checker =
    Mmt_innet.Timeliness_checker.create ~env
      ~policy:Mmt_innet.Timeliness_checker.Drop_expired ()
  in
  let element = Mmt_innet.Timeliness_checker.element checker in
  (match
     element.Mmt_innet.Element.process ~now:(Units.Time.ms 5.)
       (timely_packet ~deadline:(Units.Time.ms 2.))
   with
  | Mmt_innet.Element.Discard _ -> ()
  | _ -> Alcotest.fail "expected discard");
  (match
     element.Mmt_innet.Element.process ~now:(Units.Time.ms 1.)
       (timely_packet ~deadline:(Units.Time.ms 2.))
   with
  | Mmt_innet.Element.Forward _ -> ()
  | _ -> Alcotest.fail "expected forward");
  let stats = Mmt_innet.Timeliness_checker.stats checker in
  Alcotest.(check int) "checked" 2 stats.Mmt_innet.Timeliness_checker.checked;
  Alcotest.(check int) "expired" 1 stats.Mmt_innet.Timeliness_checker.expired;
  Alcotest.(check int) "dropped" 1 stats.Mmt_innet.Timeliness_checker.dropped

let test_timeliness_notify_policy () =
  let engine = Mmt_sim.Engine.create () in
  let env, queue = Mmt_runtime.Env.loopback engine in
  let checker =
    Mmt_innet.Timeliness_checker.create ~env ~policy:Mmt_innet.Timeliness_checker.Notify ()
  in
  let element = Mmt_innet.Timeliness_checker.element checker in
  (match
     element.Mmt_innet.Element.process ~now:(Units.Time.ms 5.)
       (timely_packet ~deadline:(Units.Time.ms 2.))
   with
  | Mmt_innet.Element.Forward _ -> ()
  | _ -> Alcotest.fail "expected forward despite lateness");
  Alcotest.(check int) "notice emitted" 1 (Queue.length queue);
  Alcotest.(check int) "counted" 1
    (Mmt_innet.Timeliness_checker.stats checker).Mmt_innet.Timeliness_checker.notices_sent

(* Checksum verification ---------------------------------------------------------------- *)

let test_checksum_verify_judges_frames () =
  let verify = Mmt_innet.Checksum_verify.create () in
  let element = Mmt_innet.Checksum_verify.element verify in
  let judge ?(flip = false) header =
    let frame = Bytes.cat (Mmt.Header.encode header) (Bytes.make 32 'p') in
    (* The header's last byte is the low byte of its sequence number. *)
    let last = Mmt.Header.size header - 1 in
    if flip then
      Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 1));
    match
      element.Mmt_innet.Element.process ~now:Units.Time.zero
        (Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero frame)
    with
    | Mmt_innet.Element.Forward _ -> "forward"
    | Mmt_innet.Element.Discard reason -> reason
    | Mmt_innet.Element.Replicate _ -> "replicate"
  in
  let data = Mmt.Header.create ~sequence:7 ~experiment () in
  let sealed = Mmt.Header.with_checksummed data in
  let control =
    Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Nak
  in
  Alcotest.(check string) "unchecksummed data frame"
    "checksum-verify: required checksum missing" (judge data);
  Alcotest.(check string) "unchecksummed control frame" "forward" (judge control);
  Alcotest.(check string) "sealed data frame" "forward" (judge sealed);
  Alcotest.(check string) "sealed frame, one bit flipped"
    "checksum-verify: header checksum mismatch" (judge ~flip:true sealed);
  let { Mmt_innet.Checksum_verify.checked; failed; passed } =
    Mmt_innet.Checksum_verify.stats verify
  in
  Alcotest.(check (list int)) "checked, failed, passed" [ 3; 2; 1 ]
    [ checked; failed; passed ]

(* Element chain ------------------------------------------------------------------------ *)

let test_chain_order_and_discard () =
  let log = ref [] in
  let mk name outcome =
    {
      Mmt_innet.Element.name;
      program = { Mmt_innet.Op.name; ops = [] };
      process =
        (fun ~now:_ packet ->
          log := name :: !log;
          outcome packet);
    }
  in
  let fwd name = mk name (fun p -> Mmt_innet.Element.Forward p) in
  let packet = Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero (Bytes.create 4) in
  (match
     Mmt_innet.Element.chain [ fwd "a"; fwd "b"; fwd "c" ] ~now:Units.Time.zero packet
   with
  | Mmt_innet.Element.Forward _ -> ()
  | _ -> Alcotest.fail "expected forward");
  Alcotest.(check (list string)) "left to right" [ "a"; "b"; "c" ] (List.rev !log);
  log := [];
  let dropper = mk "drop" (fun _ -> Mmt_innet.Element.Discard "no") in
  (match
     Mmt_innet.Element.chain [ fwd "a"; dropper; fwd "c" ] ~now:Units.Time.zero packet
   with
  | Mmt_innet.Element.Discard _ -> ()
  | _ -> Alcotest.fail "expected discard");
  Alcotest.(check (list string)) "c never runs" [ "a"; "drop" ] (List.rev !log)

let test_chain_replicate_fans_remaining () =
  let seen = ref 0 in
  let replicator =
    {
      Mmt_innet.Element.name = "rep";
      program = { Mmt_innet.Op.name = "rep"; ops = [] };
      process =
        (fun ~now:_ packet ->
          Mmt_innet.Element.Replicate
            [ packet; Mmt_sim.Packet.copy packet ~id:99 ]);
    }
  in
  let counter =
    {
      Mmt_innet.Element.name = "count";
      program = { Mmt_innet.Op.name = "count"; ops = [] };
      process =
        (fun ~now:_ packet ->
          incr seen;
          Mmt_innet.Element.Forward packet);
    }
  in
  let packet = Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero (Bytes.create 4) in
  (match
     Mmt_innet.Element.chain [ replicator; counter ] ~now:Units.Time.zero packet
   with
  | Mmt_innet.Element.Replicate survivors ->
      Alcotest.(check int) "both forwarded" 2 (List.length survivors)
  | _ -> Alcotest.fail "expected replicate");
  Alcotest.(check int) "tail ran per copy" 2 !seen

(* Resource map ----------------------------------------------------------------------------- *)

let advert ip rtt_ms =
  {
    Mmt.Control.Buffer_advert.buffer = ip;
    capacity = Units.Size.mib 64;
    rtt_hint = Units.Time.ms rtt_ms;
  }

let test_resource_map_best_buffer () =
  let map = Mmt_innet.Resource_map.create () in
  let now = Units.Time.zero in
  Mmt_innet.Resource_map.learn map ~now (advert buffer_ip 5.);
  Mmt_innet.Resource_map.learn map ~now (advert notify_ip 2.);
  (match Mmt_innet.Resource_map.best_buffer map ~now with
  | Some best -> Alcotest.(check bool) "lowest rtt wins" true (Addr.Ip.equal best notify_ip)
  | None -> Alcotest.fail "expected a buffer");
  Alcotest.(check int) "size" 2 (Mmt_innet.Resource_map.size map)

let test_resource_map_expiry () =
  let map = Mmt_innet.Resource_map.create ~ttl:(Units.Time.seconds 1.) () in
  Mmt_innet.Resource_map.learn map ~now:Units.Time.zero (advert buffer_ip 5.);
  Alcotest.(check (option bool)) "live" (Some true)
    (Option.map (Addr.Ip.equal buffer_ip)
       (Mmt_innet.Resource_map.best_buffer map ~now:(Units.Time.seconds 0.5)));
  Alcotest.(check bool) "stale invisible" true
    (Mmt_innet.Resource_map.best_buffer map ~now:(Units.Time.seconds 2.) = None);
  Alcotest.(check int) "expired" 1
    (Mmt_innet.Resource_map.expire map ~now:(Units.Time.seconds 2.));
  Alcotest.(check int) "empty" 0 (Mmt_innet.Resource_map.size map)

let test_resource_map_merge () =
  let a = Mmt_innet.Resource_map.create () in
  let b = Mmt_innet.Resource_map.create () in
  let now = Units.Time.zero in
  Mmt_innet.Resource_map.learn a ~now (advert buffer_ip 5.);
  Mmt_innet.Resource_map.learn b ~now (advert notify_ip 2.);
  let absorbed = Mmt_innet.Resource_map.merge a ~from:b ~now in
  Alcotest.(check int) "one absorbed" 1 absorbed;
  Alcotest.(check int) "both present" 2 (Mmt_innet.Resource_map.size a);
  (* Merging again absorbs nothing new. *)
  Alcotest.(check int) "idempotent" 0 (Mmt_innet.Resource_map.merge a ~from:b ~now)

(* Switch ----------------------------------------------------------------------------------------- *)

let test_switch_pipeline_latency_and_routing () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let node = Mmt_sim.Topology.add_node topo ~name:"sw" in
  let arrivals = ref [] in
  let switch =
    Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
      ~router:
        (Mmt_innet.Router.create
           ~default:(fun p -> arrivals := (Mmt_sim.Engine.now engine, p) :: !arrivals)
           ~ring:(Option.get (Mmt_sim.Topology.ring topo))
           0)
      ~elements:[ Mmt_innet.Element.passthrough ]
      ()
  in
  Mmt_sim.Node.handle node (mode0_packet ~engine ~id:0 16);
  Mmt_sim.Engine.run engine;
  (match !arrivals with
  | [ (at, _) ] ->
      Alcotest.(check string) "tofino latency" "450ns" (Units.Time.to_string at)
  | _ -> Alcotest.fail "expected one arrival");
  let stats = Mmt_innet.Switch.stats switch in
  Alcotest.(check int) "processed" 1 stats.Mmt_innet.Switch.processed;
  Alcotest.(check int) "forwarded" 1 stats.Mmt_innet.Switch.forwarded

let test_switch_counts_unrouted () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let node = Mmt_sim.Topology.add_node topo ~name:"sw" in
  let switch =
    Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
      ~router:(Mmt_innet.Router.create ~ring:(Option.get (Mmt_sim.Topology.ring topo)) 0)
      ~elements:[] ()
  in
  Mmt_sim.Node.handle node (mode0_packet ~engine ~id:0 16);
  Mmt_sim.Engine.run engine;
  Alcotest.(check int) "unrouted" 1
    (Mmt_innet.Switch.stats switch).Mmt_innet.Switch.unrouted

(* An MMT data frame riding IPv4 to [dst], in a slot of [ring]. *)
let ipv4_packet ring ~id dst =
  let frame =
    Mmt.Encap.wrap
      (Mmt.Encap.Over_ipv4 { src = buffer_ip; dst; dscp = 0; ttl = 64 })
      (Bytes.cat (Mmt.Header.encode (Mmt.Header.mode0 ~experiment)) (Bytes.make 16 'p'))
  in
  Mmt_sim.Ring.alloc ring ~id ~born:Units.Time.zero frame

(* The switch's routing stage is its node's table: an exact hit, the
   default, a miss (counted unrouted and retired), and a duplicator
   replica, which the table routes by the consumer's address the
   duplicator sends it to, not by the destination its frame carries. *)
let test_switch_forwards_by_table () =
  let dtn2_ip = Addr.Ip.of_octets 10 0 3 1 in
  let researcher_ip = Addr.Ip.of_octets 10 1 0 1 in
  let stranger_ip = Addr.Ip.of_octets 10 9 9 9 in
  let run ~default ~elements dst =
    let engine = Mmt_sim.Engine.create () in
    let topo = Mmt_sim.Topology.create ~engine () in
    let ring = Option.get (Mmt_sim.Topology.ring topo) in
    let node = Mmt_sim.Topology.add_node topo ~name:"sw" in
    let arrivals = ref [] in
    let sink name packet =
      let duplicated =
        Mmt.Feature.Set.mem Mmt.Feature.Duplicated
          (header_of_packet packet).Mmt.Header.features
      in
      arrivals := (name, duplicated) :: !arrivals;
      Mmt_sim.Ring.in_packet_done ring packet
    in
    let router =
      Mmt_innet.Router.create ?default:(Option.map sink default) ~ring 2
    in
    Mmt_innet.Router.add router dtn2_ip (sink "dtn2");
    Mmt_innet.Router.add router researcher_ip (sink "researcher");
    let env =
      Mmt_innet.Router.env router ~engine
        ~fresh_id:(fun () -> Mmt_sim.Topology.fresh_packet_id topo)
        ~local_ip:buffer_ip
    in
    let switch =
      Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
        ~router ~elements:(elements env) ()
    in
    Mmt_sim.Node.handle node (ipv4_packet ring ~id:0 dst);
    Mmt_sim.Engine.run engine;
    let stats = Mmt_innet.Switch.stats switch in
    Alcotest.(check int) "ring drained" 0 (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use;
    Alcotest.(check int) "table counts the switch's misses"
      stats.Mmt_innet.Switch.unrouted (Mmt_innet.Router.unrouted router);
    (List.rev !arrivals, stats.Mmt_innet.Switch.forwarded, stats.Mmt_innet.Switch.unrouted)
  in
  let arrivals = Alcotest.(list (pair string bool)) in
  let no_elements _ = [] in
  let hit, forwarded, unrouted =
    run ~default:(Some "default") ~elements:no_elements dtn2_ip
  in
  Alcotest.(check arrivals) "exact hit before the default" [ ("dtn2", false) ] hit;
  Alcotest.(check (pair int int)) "hit forwarded" (1, 0) (forwarded, unrouted);
  let fallback, forwarded, unrouted =
    run ~default:(Some "default") ~elements:no_elements stranger_ip
  in
  Alcotest.(check arrivals) "default" [ ("default", false) ] fallback;
  Alcotest.(check (pair int int)) "default forwarded" (1, 0) (forwarded, unrouted);
  let miss, forwarded, unrouted = run ~default:None ~elements:no_elements stranger_ip in
  Alcotest.(check arrivals) "miss reaches no sink" [] miss;
  Alcotest.(check (pair int int)) "miss unrouted" (0, 1) (forwarded, unrouted);
  let duplicator env =
    [
      Mmt_innet.Duplicator.element
        (Mmt_innet.Duplicator.create ~env ~consumers:[ researcher_ip ] ());
    ]
  in
  let fanned, forwarded, unrouted = run ~default:None ~elements:duplicator dtn2_ip in
  Alcotest.(check arrivals) "replica by its consumer, original by its destination"
    [ ("researcher", true); ("dtn2", false) ]
    fanned;
  Alcotest.(check (pair int int)) "original forwarded" (1, 0) (forwarded, unrouted)

(* The lookup a switch makes per packet, [ip_dst] of the packet's vector
   then [Router.forward], on a table shaped like the pilot's Tofino's
   (four hosts, no default). *)
let test_table_lookup_allocates_nothing () =
  let ring = Mmt_sim.Ring.create () in
  let hits = ref 0 in
  let count _packet = incr hits in
  let router = Mmt_innet.Router.create ~ring 4 in
  let hosts = List.init 4 (fun i -> Addr.Ip.of_octets 10 0 i 1) in
  List.iter (fun ip -> Mmt_innet.Router.add router ip count) hosts;
  let packets = Array.of_list (List.mapi (fun id dst -> ipv4_packet ring ~id dst) hosts) in
  let lookups = 10_000 in
  let forward i =
    let packet = packets.(i land 3) in
    let dst = Mmt.Header_vector.ip_dst (Mmt.Header_vector.of_packet packet) in
    ignore (Mmt_innet.Router.forward router dst packet)
  in
  forward 0;
  let before = Gc.minor_words () in
  for i = 1 to lookups do
    forward i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every lookup hit" (lookups + 1) !hits;
  Alcotest.(check (float 0.)) "minor words per lookup" 0. (words /. float_of_int lookups)

(* A table sized for no entries grows as entries arrive: every one
   still hits, a replaced entry takes its new sink, and an absent
   address, or the key of a frame that rides no IPv4, still misses. *)
let test_table_grows () =
  let ring = Mmt_sim.Ring.create () in
  let router = Mmt_innet.Router.create ~ring 0 in
  let last = ref (-1) in
  let host i = Addr.Ip.of_octets 10 (i lsr 16) ((i lsr 8) land 0xFF) (i land 0xFF) in
  for i = 0 to 999 do
    Mmt_innet.Router.add router (host i) (fun _ -> last := i)
  done;
  Mmt_innet.Router.add router (host 7) (fun _ -> last := 7_000);
  let routes i =
    last := -1;
    let packet = Mmt_sim.Ring.in_packet ring ~id:i ~born:Units.Time.zero 1 in
    if Mmt_innet.Router.forward router (Addr.Ip.to_int (host i)) packet then begin
      Mmt_sim.Ring.in_packet_done ring packet;
      Some !last
    end
    else None
  in
  for i = 0 to 999 do
    if i <> 7 then Alcotest.(check (option int)) "entry hits" (Some i) (routes i)
  done;
  Alcotest.(check (option int)) "replaced entry" (Some 7_000) (routes 7);
  Alcotest.(check (option int)) "absent address" None (routes 1_000);
  let packet = Mmt_sim.Ring.in_packet ring ~id:0 ~born:Units.Time.zero 1 in
  Alcotest.(check bool) "key -1 misses" false (Mmt_innet.Router.forward router (-1) packet);
  Alcotest.(check int) "misses counted" 2 (Mmt_innet.Router.unrouted router);
  Alcotest.(check int) "ring drained" 0 (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use

let test_switch_rejects_unrealizable () =
  let engine = Mmt_sim.Engine.create () in
  let topo = Mmt_sim.Topology.create ~engine () in
  let node = Mmt_sim.Topology.add_node topo ~name:"sw" in
  let bad =
    {
      Mmt_innet.Element.name = "bad";
      program = { Mmt_innet.Op.name = "bad"; ops = [ Mmt_innet.Op.Float_op "x" ] };
      process = (fun ~now:_ p -> Mmt_innet.Element.Forward p);
    }
  in
  Alcotest.(check bool) "attach rejects" true
    (match
       Mmt_innet.Switch.attach ~engine ~node ~profile:Mmt_innet.Switch.tofino2
         ~router:
           (Mmt_innet.Router.create ~ring:(Option.get (Mmt_sim.Topology.ring topo)) 0)
         ~elements:[ bad ] ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "realizable ok" `Quick test_realizable_ok;
    Alcotest.test_case "realizable rejects payload" `Quick test_realizable_rejects_payload;
    Alcotest.test_case "realizable rejects float" `Quick test_realizable_rejects_float;
    Alcotest.test_case "realizable op budget" `Quick test_realizable_rejects_too_many_ops;
    Alcotest.test_case "shipped elements realizable" `Quick test_shipped_elements_realizable;
    Alcotest.test_case "rewriter activates mode" `Quick test_rewriter_activates_mode;
    Alcotest.test_case "rewriter re-encapsulates" `Quick test_rewriter_re_encapsulates;
    Alcotest.test_case "rewriter strips features" `Quick test_rewriter_strips_features;
    Alcotest.test_case "rewriter oracle replans" `Quick test_rewriter_oracle_replans;
    Alcotest.test_case "rewriter passes control" `Quick test_rewriter_passes_control;
    Alcotest.test_case "per-experiment counters" `Quick test_rewriter_per_experiment_counters;
    Alcotest.test_case "age tracker accumulates" `Quick test_age_tracker_accumulates;
    Alcotest.test_case "age tracker ignores untracked" `Quick test_age_tracker_ignores_untracked;
    Alcotest.test_case "duplicator fans out" `Quick test_duplicator_fans_out;
    Alcotest.test_case "duplicator skips control" `Quick test_duplicator_skips_control;
    Alcotest.test_case "timeliness drop policy" `Quick test_timeliness_drop_policy;
    Alcotest.test_case "timeliness notify policy" `Quick test_timeliness_notify_policy;
    Alcotest.test_case "checksum verify judges frames" `Quick
      test_checksum_verify_judges_frames;
    Alcotest.test_case "chain order + discard" `Quick test_chain_order_and_discard;
    Alcotest.test_case "chain replicate" `Quick test_chain_replicate_fans_remaining;
    Alcotest.test_case "resource map best buffer" `Quick test_resource_map_best_buffer;
    Alcotest.test_case "resource map expiry" `Quick test_resource_map_expiry;
    Alcotest.test_case "resource map merge" `Quick test_resource_map_merge;
    Alcotest.test_case "switch latency + routing" `Quick test_switch_pipeline_latency_and_routing;
    Alcotest.test_case "switch unrouted" `Quick test_switch_counts_unrouted;
    Alcotest.test_case "switch forwards by table" `Quick test_switch_forwards_by_table;
    Alcotest.test_case "table lookup allocates nothing" `Quick
      test_table_lookup_allocates_nothing;
    Alcotest.test_case "table grows past its size" `Quick test_table_grows;
    Alcotest.test_case "switch rejects unrealizable" `Quick test_switch_rejects_unrealizable;
  ]
