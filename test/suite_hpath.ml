(* The header-only data path: the compiled mode rewrite against its
   decoded reference, the header vector against the parsers it
   replaced, and one parse per switch pass on whole runs. *)
open Mmt_util
open Mmt_frame
module Feature = Mmt.Feature
module Header = Mmt.Header
module Rewriter = Mmt_innet.Mode_rewriter

let experiment = Mmt.Experiment_id.make ~experiment:0x0ABCDE ~slice:3
let buffer = Addr.Ip.of_octets 10 0 0 9
let notify = Addr.Ip.of_octets 10 0 0 7
let control = Addr.Ip.of_octets 10 0 0 5
let now = Units.Time.ns 123_456_789

(* Every combination of the mode-level options; some also carry the
   value-less Duplicated / Encrypted bits, which the rewrite ignores. *)
let mode_of_bits bits =
  let b i = bits land (1 lsl i) <> 0 in
  Mmt.Mode.make ~name:(Printf.sprintf "m%d" bits)
    ?reliable:(if b 0 then Some buffer else None)
    ?deadline_budget:(if b 1 then Some (Units.Time.ms 20., notify) else None)
    ?age_budget_us:(if b 2 then Some 5_000 else None)
    ?pace_mbps:(if b 3 then Some 4_000 else None)
    ?backpressure_to:(if b 4 then Some control else None)
    ~int_telemetry:(b 5) ~checksummed:(b 6) ~duplicated:(bits mod 3 = 0)
    ~encrypted:(bits mod 5 = 0) ()

let random_ip rng = Addr.Ip.of_int32 (Random.State.bits32 rng)
let random_u32 rng = Int32.to_int (Random.State.bits32 rng) land 0xFFFF_FFFF

(* A data header carrying exactly [features] (a subset of all ten). *)
let input_header rng features =
  let has f = Feature.Set.mem f features in
  let opt f v = if has f then Some (v ()) else None in
  Header.create
    ?sequence:(opt Feature.Sequenced (fun () -> random_u32 rng))
    ?retransmit_from:(opt Feature.Reliable (fun () -> random_ip rng))
    ?timely:
      (opt Feature.Timely (fun () ->
           { Header.deadline = Units.Time.ns (Random.State.bits rng); notify = random_ip rng }))
    ?age:
      (opt Feature.Age_tracked (fun () ->
           {
             Header.age_us = random_u32 rng;
             budget_us = random_u32 rng;
             aged = Random.State.bool rng;
             hop_count = Random.State.int rng 0xFFFFFF;
             last_touch_ns = Units.Time.ns (Random.State.bits rng);
           }))
    ?pace_mbps:(opt Feature.Paced (fun () -> random_u32 rng))
    ?backpressure_to:(opt Feature.Backpressured (fun () -> random_ip rng))
    ?int_stack:
      (opt Feature.Int_telemetry (fun () ->
           {
             Header.records =
               List.init
                 (Random.State.int rng (Header.max_int_hops + 1))
                 (fun i ->
                   {
                     Header.node_id = Random.State.int rng 0xFFFF;
                     mode_id = Random.State.int rng 0xFF;
                     hop_index = i;
                     queue_depth = random_u32 rng;
                     ingress_ns = Units.Time.ns (Random.State.bits rng);
                     egress_ns = Units.Time.ns (Random.State.bits rng);
                   });
             overflowed = Random.State.bool rng;
           }))
    ~extra_features:
      (List.filter has Feature.[ Duplicated; Encrypted; Checksummed ])
    ~experiment ()

let set_random_u64 rng buf at =
  Bytes.set_int64_be buf at (Random.State.int64 rng Int64.max_int);
  if Random.State.bool rng then
    Bytes.set buf at (Char.chr (Char.code (Bytes.get buf at) lor 0x80))

(* Dirty the bytes a decode-encode round trip normalises: undefined
   feature bits, the checksum pad, flag bytes beyond their defined bit,
   the INT reserved word and unused slots, and the top bits of u64
   times. *)
let dirty rng header buf =
  let has f = Feature.Set.mem f header.Header.features in
  let data = Bytes.get_uint16_be buf 2 in
  Bytes.set_uint16_be buf 2 (data lor (Random.State.int rng 64 lsl 10));
  if has Feature.Checksummed then
    Bytes.set_uint16_be buf (Header.core_size + 2) (Random.State.int rng 0x10000);
  (if has Feature.Timely then
     let width f w = if has f then w else 0 in
     set_random_u64 rng buf
       (Header.core_size + width Feature.Checksummed Header.checksum_size
       + width Feature.Sequenced 4 + width Feature.Reliable 4));
  (match Header.offset_of_age header with
  | Some a ->
      Bytes.set buf (a + 8) (Char.chr (Random.State.int rng 256));
      set_random_u64 rng buf (a + 12)
  | None -> ());
  match Header.offset_of_int header with
  | Some i ->
      let count = Char.code (Bytes.get buf i) in
      Bytes.set buf (i + 1) (Char.chr (Random.State.int rng 256));
      Bytes.set_uint16_be buf (i + 2) (Random.State.int rng 0x10000);
      for r = 0 to count - 1 do
        let slot = i + 4 + (r * Header.int_record_size) in
        set_random_u64 rng buf (slot + 8);
        set_random_u64 rng buf (slot + 16)
      done;
      for k = i + 4 + (count * Header.int_record_size) to i + Header.int_ext_size - 1 do
        Bytes.set buf k (Char.chr (Random.State.int rng 256))
      done
  | None -> ()

let encaps =
  [
    Mmt.Encap.Raw;
    Mmt.Encap.Over_ethernet
      { src = Addr.Mac.of_int64 0x0200_0000_0001L; dst = Addr.Mac.of_int64 0x0200_0000_0002L };
    Mmt.Encap.Over_ipv4
      { src = Addr.Ip.of_octets 10 1 0 1; dst = Addr.Ip.of_octets 10 1 0 2; dscp = 4; ttl = 60 };
  ]

let re_encap =
  Mmt.Encap.Over_ipv4
    { src = Addr.Ip.of_octets 10 2 0 1; dst = Addr.Ip.of_octets 10 2 0 2; dscp = 0; ttl = 64 }

(* [encap] around an MMT frame whose wire length adds [padding]. *)
let framed encap ~padding mmt =
  let off = Mmt.Encap.overhead encap in
  let out = Bytes.create (off + Bytes.length mmt) in
  Mmt.Encap.wrap_into encap ~mmt_length:(Bytes.length mmt + padding) out;
  Bytes.blit mmt 0 out off (Bytes.length mmt);
  out

type case = {
  input : Feature.Set.t;
  mode : Mmt.Mode.t;
  degraded : bool;
  re_encap : Mmt.Encap.t option;
  encap : Mmt.Encap.t;
  padding : int;
  seed : int;
}

(* Rewrite one frame on the data path and by the reference
   (decode -> [Rewriter.reference] -> encode, then the old frame
   assembly); [None] when the bytes agree. *)
let check case =
  let rng = Random.State.make [| case.seed |] in
  let header = input_header rng case.input in
  let mmt_header = Header.encode header in
  dirty rng header mmt_header;
  (* A sender may set those bytes itself and seal over them. *)
  if Feature.Set.mem Feature.Checksummed header.Header.features then
    Header.seal_in_place mmt_header ~off:0 ~size:(Bytes.length mmt_header);
  let payload = Bytes.init (Random.State.int rng 48) (fun _ -> Char.chr (Random.State.int rng 256)) in
  let frame = framed case.encap ~padding:case.padding (Bytes.cat mmt_header payload) in
  let mmt_offset = Mmt.Encap.overhead case.encap in
  let seen_seq = ref None in
  let rewriter =
    Rewriter.create ~mode:case.mode ?re_encap:case.re_encap
      ~pool:(Mmt_sim.Pool.create ())
      ~on_rewrite:(fun ~seq ~born:_ _ -> seen_seq := seq)
      ?liveness:(if case.degraded then Some (fun _ ~now:_ -> false) else None)
      ()
  in
  (* A first frame moves the sequence register off zero. *)
  let warm = framed Mmt.Encap.Raw ~padding:0 (Header.encode (Header.mode0 ~experiment)) in
  ignore
    ((Rewriter.element rewriter).Mmt_innet.Element.process ~now
       (Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero warm));
  let decoded =
    match Header.decode_bytes ~off:mmt_offset frame with
    | Ok h -> h
    | Error e -> failwith e
  in
  let target =
    if case.degraded && Option.is_some case.mode.Mmt.Mode.retransmit_from then
      Rewriter.degrade case.mode
    else case.mode
  in
  let next = Rewriter.next_sequence rewriter ~experiment in
  let expected_header = Rewriter.reference ~mode:target ~now ~sequence:(fun _ -> next) decoded in
  let new_mmt = Bytes.cat (Header.encode expected_header) payload in
  let expected =
    match case.re_encap with
    | Some encap -> framed encap ~padding:case.padding new_mmt
    | None ->
        let out = Bytes.create (mmt_offset + Bytes.length new_mmt) in
        Mmt.Encap.rewrap_into ~old_frame:frame ~mmt_offset
          ~mmt_length:(Bytes.length new_mmt + case.padding) out;
        Bytes.blit new_mmt 0 out mmt_offset (Bytes.length new_mmt);
        out
  in
  let packet =
    Mmt_sim.Packet.create ~padding:case.padding ~id:1 ~born:Units.Time.zero
      (Bytes.copy frame)
  in
  match (Rewriter.element rewriter).Mmt_innet.Element.process ~now packet with
  | Mmt_innet.Element.Forward p ->
      let got = Mmt_sim.Packet.frame p in
      if not (Bytes.equal got expected) then
        Some
          (Printf.sprintf "input %s -> %s: got %s, expected %s"
             (Format.asprintf "%a" Feature.Set.pp case.input)
             target.Mmt.Mode.name
             (String.escaped (Bytes.to_string got))
             (String.escaped (Bytes.to_string expected)))
      else if !seen_seq <> expected_header.Header.sequence then
        Some "on_rewrite saw another sequence number"
      else None
  | Mmt_innet.Element.Replicate _ | Mmt_innet.Element.Discard _ ->
      Some "the rewriter did not forward"

let subsets =
  List.init 1024 (fun bits ->
      Feature.Set.of_list
        (List.filteri (fun i _ -> bits land (1 lsl i) <> 0) Feature.all))

(* Every input feature subset, into a spread of target modes (every
   seventh of the 128), each plain and degraded, with and without
   re-encapsulation. *)
let test_rewrite_exhaustive () =
  let failures = ref [] in
  List.iteri
    (fun si input ->
      for m = 0 to 18 do
        let mode = mode_of_bits ((m * 7) mod 128) in
        List.iteri
          (fun k (degraded, re) ->
            let case =
              {
                input;
                mode;
                degraded;
                re_encap = (if re then Some re_encap else None);
                encap = List.nth encaps ((si + m + k) mod 3);
                padding = (if (si + m) mod 2 = 0 then 0 else 1_500);
                seed = (si * 1000) + (m * 10) + k;
              }
            in
            match check case with
            | None -> ()
            | Some failure -> failures := failure :: !failures)
          [ (false, false); (false, true); (true, false); (true, true) ]
      done)
    subsets;
  match !failures with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%d of %d rewrites differ from the reference; first: %s"
        (List.length !failures) (1024 * 19 * 4) first

let qcheck_rewrite =
  QCheck.Test.make ~name:"compiled rewrite = decode -> reference -> encode"
    ~count:3000
    QCheck.(
      make
        Gen.(
          map
            (fun (((input, bits), (degraded, re)), ((e, pad), seed)) ->
              {
                input = List.nth subsets input;
                mode = mode_of_bits bits;
                degraded;
                re_encap = (if re then Some re_encap else None);
                encap = List.nth encaps e;
                padding = (if pad then 7_200 else 0);
                seed;
              })
            (pair
               (pair (pair (int_range 0 1023) (int_range 0 127)) (pair bool bool))
               (pair (pair (int_range 0 2) bool) nat))))
    (fun case ->
      match check case with
      | None -> true
      | Some failure -> QCheck.Test.fail_report failure)

(* The same shape, compiled once: a second frame of the same features
   into the same mode reuses the transition. *)
let test_compiled_once () =
  let rewriter =
    Rewriter.create ~mode:(mode_of_bits 0b1000101) ~pool:(Mmt_sim.Pool.create ()) ()
  in
  let element = Rewriter.element rewriter in
  for i = 0 to 9 do
    let frame = Header.encode (Header.mode0 ~experiment) in
    ignore (element.Mmt_innet.Element.process ~now (Mmt_sim.Packet.create ~id:i ~born:now frame))
  done;
  Alcotest.(check int) "one transition" 1 (Rewriter.compiled rewriter)

(* A checksummed header corrupted upstream is discarded, never
   resealed: in the target's shape, into a mode that names no buffer
   or pace, one that names both, or a degraded target, and on a
   rewrite that changes the shape. *)
let test_broken_checksum_discarded () =
  let encap = List.nth encaps 2 in
  List.iter
    (fun (bits, degraded, re, input) ->
      let mode = mode_of_bits bits in
      let target = if degraded then Rewriter.degrade mode else mode in
      let input = Option.value ~default:target.Mmt.Mode.features input in
      let rng = Random.State.make [| bits |] in
      let frame =
        framed encap ~padding:0
          (Bytes.cat (Header.encode (input_header rng input)) (Bytes.make 32 'p'))
      in
      let rewriter =
        Rewriter.create ~mode
          ?re_encap:(if re then Some re_encap else None)
          ~pool:(Mmt_sim.Pool.create ())
          ?liveness:(if degraded then Some (fun _ ~now:_ -> false) else None)
          ()
      in
      let process frame =
        (Rewriter.element rewriter).Mmt_innet.Element.process ~now
          (Mmt_sim.Packet.create ~id:0 ~born:Units.Time.zero frame)
      in
      let what =
        Printf.sprintf "%s from %s" target.Mmt.Mode.name
          (Format.asprintf "%a" Feature.Set.pp input)
      in
      (match process (Bytes.copy frame) with
      | Mmt_innet.Element.Forward _ -> ()
      | _ -> Alcotest.failf "%s: a sealed header is not rewritten" what);
      (* One bit of the experiment identifier flipped on the way. *)
      let at = Mmt.Encap.overhead encap + 5 in
      Bytes.set frame at (Char.chr (Char.code (Bytes.get frame at) lxor 0x10));
      (match process frame with
      | Mmt_innet.Element.Discard _ -> ()
      | _ -> Alcotest.failf "%s: a corrupted header left the rewriter" what);
      let stats = Rewriter.stats rewriter in
      Alcotest.(check (pair int int))
        (what ^ ": rewritten, parse errors") (1, 1)
        (stats.Rewriter.rewritten, stats.Rewriter.parse_errors))
    [
      (0b1000010, false, false, None);
      (0b1001011, false, true, None);
      (0b1000011, true, false, None);
      (0b1100110, false, false, Some Feature.(Set.of_list [ Sequenced; Checksummed ]));
    ]

(* [Encap.locate] as it was before the header vector: the frame codecs'
   readers, allocating, one step after the other. *)
let reference_locate frame =
  let module Cursor = Mmt_wire.Cursor in
  let ipv4 off ~truncated ~not_mmt =
    match Ipv4.read (Cursor.Reader.of_bytes ~off frame) with
    | exception Cursor.Out_of_bounds _ -> Error truncated
    | exception Failure e -> Error e
    | ip ->
        if ip.Ipv4.protocol <> Ipv4.protocol_mmt then Error (not_mmt ip.Ipv4.protocol)
        else
          Ok
            ( Mmt.Encap.Over_ipv4
                { src = ip.Ipv4.src; dst = ip.Ipv4.dst; dscp = ip.Ipv4.dscp; ttl = ip.Ipv4.ttl },
              off + Ipv4.header_size )
  in
  if Bytes.length frame = 0 then Error "empty frame"
  else
    match Char.code (Bytes.get frame 0) with
    | 0x01 -> Ok (Mmt.Encap.Raw, 0)
    | 0x45 ->
        ipv4 0 ~truncated:"truncated IPv4 header"
          ~not_mmt:(Printf.sprintf "IPv4 protocol %d is not MMT")
    | _ -> (
        match Ethernet.read (Cursor.Reader.of_bytes frame) with
        | exception Cursor.Out_of_bounds _ -> Error "truncated Ethernet header"
        | eth ->
            if eth.Ethernet.ethertype = Ethernet.ethertype_mmt then
              Ok
                ( Mmt.Encap.Over_ethernet { src = eth.Ethernet.src; dst = eth.Ethernet.dst },
                  Ethernet.header_size )
            else if eth.Ethernet.ethertype = Ethernet.ethertype_ipv4 then
              ipv4 Ethernet.header_size ~truncated:"truncated inner IPv4"
                ~not_mmt:(fun _ -> "inner IPv4 protocol is not MMT")
            else
              Error
                (Printf.sprintf "ethertype 0x%04x is not MMT" eth.Ethernet.ethertype))

let same_encap a b =
  match (a, b) with
  | Mmt.Encap.Raw, Mmt.Encap.Raw -> true
  | Mmt.Encap.Over_ethernet x, Mmt.Encap.Over_ethernet y ->
      Addr.Mac.equal x.src y.src && Addr.Mac.equal x.dst y.dst
  | Mmt.Encap.Over_ipv4 x, Mmt.Encap.Over_ipv4 y ->
      Addr.Ip.equal x.src y.src && Addr.Ip.equal x.dst y.dst && x.dscp = y.dscp
      && x.ttl = y.ttl
  | _ -> false

let located_frames =
  let mmt = Header.encode (input_header (Random.State.make [| 7 |]) (List.nth subsets 1023)) in
  let inner_ipv4 =
    let ip = framed (List.nth encaps 2) ~padding:0 mmt in
    let eth = Bytes.create (Ethernet.header_size + Bytes.length ip) in
    Ethernet.write (Mmt_wire.Cursor.Writer.over eth)
      { Ethernet.dst = Addr.Mac.broadcast; src = Addr.Mac.of_int64 2L;
        ethertype = Ethernet.ethertype_ipv4 };
    Bytes.blit ip 0 eth Ethernet.header_size (Bytes.length ip);
    eth
  in
  inner_ipv4 :: List.map (fun encap -> framed encap ~padding:0 mmt) encaps

(* One byte overwritten, maybe cut short: the vector's parser locates
   exactly what the codecs located, with the same error text, and its
   view parses exactly what [decode] decodes. *)
let qcheck_locate =
  QCheck.Test.make ~name:"vector parse = codec locate + decode" ~count:4000
    QCheck.(
      triple (int_range 0 (List.length located_frames - 1)) (pair small_nat (int_range 0 255)) (option small_nat))
    (fun (which, (position, value), cut) ->
      let frame = Bytes.copy (List.nth located_frames which) in
      Bytes.set frame (position mod Bytes.length frame) (Char.chr value);
      let frame =
        match cut with
        | Some k -> Bytes.sub frame 0 (k mod Bytes.length frame)
        | None -> frame
      in
      let located =
        match (Mmt.Encap.locate frame, reference_locate frame) with
        | Ok (a, off), Ok (b, off') -> same_encap a b && off = off'
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      let parsed =
        match Mmt.Encap.locate frame with
        | Error _ -> true
        | Ok (_, off) -> (
            match (Header.View.of_frame ~off frame, Header.decode_bytes ~off frame) with
            | Ok _, Ok _ | Error _, Error _ -> true
            | _ -> false)
      in
      located && parsed)

(* One parse per switch pass, one refresh per replaced frame. *)
let check_passes ~what switches ~refreshed =
  List.iter
    (fun (name, processed, parses, refreshes) ->
      Alcotest.(check int) (Printf.sprintf "%s %s parses" what name) processed parses;
      Alcotest.(check int)
        (Printf.sprintf "%s %s refreshes" what name)
        (refreshed name) refreshes)
    switches

let test_pilot_parses_once () =
  let config =
    {
      Mmt_pilot.Pilot.default_config with
      Mmt_pilot.Pilot.fragment_count = 1500;
      int_telemetry = true;
      deadline_budget = Some (Units.Time.ms 20.);
      wan_loss = 0.01;
      wan_corrupt = 0.001;
    }
  in
  let pilot = Mmt_pilot.Pilot.build config in
  Mmt_pilot.Pilot.run pilot;
  let r = Mmt_pilot.Pilot.results pilot in
  let stripped =
    (Option.get (Mmt_pilot.Pilot.int_sink_stats pilot)).Mmt_int.Sink.stripped
  in
  Alcotest.(check int) "three switches" 3 (List.length (Mmt_pilot.Pilot.switches pilot));
  check_passes ~what:"pilot"
    (List.map
       (fun (name, s) ->
         ( name,
           (Mmt_innet.Switch.stats s).Mmt_innet.Switch.processed,
           Mmt_innet.Switch.parses s,
           Mmt_innet.Switch.refreshes s ))
       (Mmt_pilot.Pilot.switches pilot))
    ~refreshed:(function
      | "dtn1" -> r.Mmt_pilot.Pilot.rewriter.Rewriter.rewritten
      | "dtn2" -> stripped
      | _ -> 0);
  Alcotest.(check bool) "frames were stripped" true (stripped > 1000)

let test_chaos_parses_once () =
  let o =
    Mmt_pilot.Chaos_run.run
      (Mmt_pilot.Chaos_run.failover_trial ~fragment_count:3000
         ~fail_at:(Units.Time.ms 5.) ())
  in
  Alcotest.(check (list string)) "no violations" [] o.Mmt_pilot.Chaos_run.violations;
  check_passes ~what:"chaos"
    (List.map
       (fun (c : Mmt_pilot.Chaos_run.pass_counts) ->
         (c.switch, c.processed, c.parses, c.refreshes))
       o.Mmt_pilot.Chaos_run.passes)
    ~refreshed:(function
      | "ingress" -> o.Mmt_pilot.Chaos_run.emitted + o.Mmt_pilot.Chaos_run.degraded_rewrites
      | _ -> 0)

(* Both buffers die, so frames pass degraded until B restarts.  The
   degraded mode is built once per base mode, so the rewriter compiles
   a handful of transitions, not one per degraded frame. *)
let test_degraded_mode_memoized () =
  let plan =
    Mmt_fault.Plan.make
      Mmt_fault.Plan.
        [
          event ~at:(Units.Time.ms 1.) (Fail_element "buffer-a");
          event ~at:(Units.Time.ms 1.) (Fail_element "buffer-b");
          event ~at:(Units.Time.ms 12.) (Restart_element "buffer-b");
        ]
  in
  let o =
    Mmt_pilot.Chaos_run.run
      { (Mmt_pilot.Chaos_run.campaign_trial_degrading ~fragment_count:4000 ()) with plan }
  in
  Alcotest.(check (list string)) "no violations" [] o.Mmt_pilot.Chaos_run.violations;
  Alcotest.(check bool) "frames degraded" true (o.Mmt_pilot.Chaos_run.degraded_rewrites > 100);
  Alcotest.(check bool)
    (Printf.sprintf "%d transitions compiled" o.Mmt_pilot.Chaos_run.compiled_transitions)
    true
    (o.Mmt_pilot.Chaos_run.compiled_transitions <= 4);
  (* The figures the decode -> apply -> encode rewriter gave on this
     plan: emitted, delivered, delivered degraded, degraded rewrites,
     mode changes. *)
  Alcotest.(check (list int)) "outcome"
    [ 1071; 4000; 2929; 2929; 1 ]
    [
      o.Mmt_pilot.Chaos_run.emitted;
      o.Mmt_pilot.Chaos_run.delivered;
      o.Mmt_pilot.Chaos_run.degraded_delivered;
      o.Mmt_pilot.Chaos_run.degraded_rewrites;
      o.Mmt_pilot.Chaos_run.mode_changes;
    ]

let suite =
  [
    Alcotest.test_case "rewrite: every input subset vs reference" `Quick
      test_rewrite_exhaustive;
    Alcotest.test_case "rewrite: a transition compiles once" `Quick test_compiled_once;
    Alcotest.test_case "rewrite: a broken checksum is discarded" `Quick
      test_broken_checksum_discarded;
    Alcotest.test_case "pilot parses once per switch pass" `Quick test_pilot_parses_once;
    Alcotest.test_case "chaos parses once per switch pass" `Quick test_chaos_parses_once;
    Alcotest.test_case "degraded mode is built once" `Quick test_degraded_mode_memoized;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_rewrite; qcheck_locate ]
