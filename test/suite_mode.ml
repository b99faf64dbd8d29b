(* Mode descriptions, legality rules, retransmission buffers. *)
open Mmt_util
open Mmt_frame

let buffer_ip = Addr.Ip.of_octets 10 0 1 1
let notify_ip = Addr.Ip.of_octets 10 0 0 1

let wan_mode =
  Mmt.Mode.make ~name:"wan" ~reliable:buffer_ip
    ~deadline_budget:(Units.Time.ms 20., notify_ip)
    ~age_budget_us:20_000 ()

let test_identification_mode_empty () =
  Alcotest.(check int) "no features" 0
    (Mmt.Feature.Set.cardinal Mmt.Mode.identification.Mmt.Mode.features);
  Alcotest.(check bool) "well-formed" true
    (Mmt.Mode.check Mmt.Mode.identification = Ok ())

let test_make_derives_features () =
  let open Mmt.Feature in
  let f = wan_mode.Mmt.Mode.features in
  Alcotest.(check bool) "sequenced" true (Set.mem Sequenced f);
  Alcotest.(check bool) "reliable" true (Set.mem Reliable f);
  Alcotest.(check bool) "timely" true (Set.mem Timely f);
  Alcotest.(check bool) "age" true (Set.mem Age_tracked f);
  Alcotest.(check bool) "no pace" false (Set.mem Paced f)

let test_check_passes_well_formed () =
  Alcotest.(check bool) "wan mode ok" true (Mmt.Mode.check wan_mode = Ok ())

let test_check_catches_inconsistency () =
  (* Hand-build an inconsistent mode: Reliable feature but no buffer. *)
  let broken =
    {
      wan_mode with
      Mmt.Mode.retransmit_from = None;
    }
  in
  Alcotest.(check bool) "inconsistent rejected" true
    (match Mmt.Mode.check broken with Error _ -> true | Ok _ -> false)

let test_transition_mode0_to_wan_legal () =
  Alcotest.(check bool) "activate features" true
    (Mmt.Mode.transition_legal ~from_mode:Mmt.Mode.identification ~to_mode:wan_mode
     = Ok ())

let test_transition_strip_all_legal () =
  Alcotest.(check bool) "leave recoverable region whole" true
    (Mmt.Mode.transition_legal ~from_mode:wan_mode ~to_mode:Mmt.Mode.identification
     = Ok ())

let test_transition_strip_reliable_keep_sequenced_illegal () =
  let seq_only =
    {
      Mmt.Mode.identification with
      Mmt.Mode.name = "seq-only";
      features = Mmt.Feature.Set.of_list [ Mmt.Feature.Sequenced ];
    }
  in
  Alcotest.(check bool) "stranding gaps rejected" true
    (match Mmt.Mode.transition_legal ~from_mode:wan_mode ~to_mode:seq_only with
    | Error _ -> true
    | Ok _ -> false)

let test_transition_reliable_without_sequenced_illegal () =
  let broken =
    {
      Mmt.Mode.identification with
      Mmt.Mode.name = "broken";
      features = Mmt.Feature.Set.of_list [ Mmt.Feature.Reliable ];
    }
  in
  Alcotest.(check bool) "rejected" true
    (match
       Mmt.Mode.transition_legal ~from_mode:Mmt.Mode.identification ~to_mode:broken
     with
    | Error _ -> true
    | Ok _ -> false)

(* Retransmission buffer ---------------------------------------------------- *)

let frame_of_size n = Bytes.make n 'x'

let test_retx_store_fetch () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.kib 1) in
  Mmt.Retx_buffer.store buffer ~seq:1 ~born:(Units.Time.us 5.) (frame_of_size 100);
  (match Mmt.Retx_buffer.fetch buffer ~seq:1 with
  | Some entry ->
      Alcotest.(check int) "frame size" 100 entry.Mmt.Retx_buffer.len;
      Alcotest.(check bool) "born preserved" true
        (Units.Time.equal entry.Mmt.Retx_buffer.born (Units.Time.us 5.))
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss" true (Mmt.Retx_buffer.fetch buffer ~seq:2 = None);
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "hits" 1 stats.Mmt.Retx_buffer.hits;
  Alcotest.(check int) "misses" 1 stats.Mmt.Retx_buffer.misses

let test_retx_eviction_oldest_first () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 300) in
  for seq = 0 to 3 do
    Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero (frame_of_size 100)
  done;
  Alcotest.(check bool) "oldest evicted" false (Mmt.Retx_buffer.contains buffer ~seq:0);
  Alcotest.(check bool) "newest kept" true (Mmt.Retx_buffer.contains buffer ~seq:3);
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "evicted" 1 stats.Mmt.Retx_buffer.evicted;
  Alcotest.(check int) "entries" 3 stats.Mmt.Retx_buffer.entries;
  Alcotest.(check int) "occupancy" 300
    (Units.Size.to_bytes stats.Mmt.Retx_buffer.occupancy)

let test_retx_eviction_after_overwrite () =
  (* Overwriting seq 0 makes it the newest entry: the next eviction
     takes seq 1, and only the one after that takes seq 0. *)
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 300) in
  let store seq =
    Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero (frame_of_size 100)
  in
  List.iter store [ 0; 1; 0; 2; 3 ];
  Alcotest.(check bool) "seq 1 evicted" false (Mmt.Retx_buffer.contains buffer ~seq:1);
  Alcotest.(check bool) "rewritten seq 0 kept" true
    (Mmt.Retx_buffer.contains buffer ~seq:0);
  store 4;
  Alcotest.(check bool) "seq 0 evicted next" false
    (Mmt.Retx_buffer.contains buffer ~seq:0);
  List.iter
    (fun seq ->
      Alcotest.(check bool) (Printf.sprintf "seq %d kept" seq) true
        (Mmt.Retx_buffer.contains buffer ~seq))
    [ 2; 3; 4 ];
  Alcotest.(check int) "evicted" 2
    (Mmt.Retx_buffer.stats buffer).Mmt.Retx_buffer.evicted

let test_retx_overwrite_same_seq () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.kib 1) in
  Mmt.Retx_buffer.store buffer ~seq:5 ~born:Units.Time.zero (frame_of_size 100);
  Mmt.Retx_buffer.store buffer ~seq:5 ~born:Units.Time.zero (frame_of_size 200);
  (match Mmt.Retx_buffer.fetch buffer ~seq:5 with
  | Some entry -> Alcotest.(check int) "latest wins" 200 entry.Mmt.Retx_buffer.len
  | None -> Alcotest.fail "expected hit");
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "occupancy after overwrite" 200
    (Units.Size.to_bytes stats.Mmt.Retx_buffer.occupancy)

(* The buffer copies what it stores: a caller that reuses its bytes once
   [store] returns (a ring slot going back to the pool) changes nothing
   a fetch returns.  Frames of many sizes cross chunk boundaries. *)
let test_retx_store_copies () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.mib 1) in
  let content seq =
    Bytes.init (50 + (seq * 37 mod 300)) (fun i -> Char.chr ((seq + i) land 0xFF))
  in
  for seq = 0 to 39 do
    let frame = content seq in
    Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero frame;
    Bytes.fill frame 0 (Bytes.length frame) '\000'
  done;
  for seq = 0 to 39 do
    match Mmt.Retx_buffer.fetch buffer ~seq with
    | Some { Mmt.Retx_buffer.chunk; off; len; _ } ->
        Alcotest.(check string) (Printf.sprintf "seq %d" seq)
          (Bytes.to_string (content seq)) (Bytes.sub_string chunk off len)
    | None -> Alcotest.fail (Printf.sprintf "seq %d missing" seq)
  done

let test_retx_oversized_frame_rejected () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 50) in
  Mmt.Retx_buffer.store buffer ~seq:1 ~born:Units.Time.zero (frame_of_size 100);
  Alcotest.(check bool) "not stored" false (Mmt.Retx_buffer.contains buffer ~seq:1)

let qcheck_retx_capacity_invariant =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 1 400))
    (fun sizes ->
      let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 1000) in
      List.iteri
        (fun seq size ->
          Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero (frame_of_size size))
        sizes;
      Units.Size.to_bytes (Mmt.Retx_buffer.stats buffer).Mmt.Retx_buffer.occupancy <= 1000)

let suite =
  [
    Alcotest.test_case "identification mode" `Quick test_identification_mode_empty;
    Alcotest.test_case "make derives features" `Quick test_make_derives_features;
    Alcotest.test_case "check well-formed" `Quick test_check_passes_well_formed;
    Alcotest.test_case "check inconsistency" `Quick test_check_catches_inconsistency;
    Alcotest.test_case "transition activate" `Quick test_transition_mode0_to_wan_legal;
    Alcotest.test_case "transition strip all" `Quick test_transition_strip_all_legal;
    Alcotest.test_case "transition strand gaps" `Quick
      test_transition_strip_reliable_keep_sequenced_illegal;
    Alcotest.test_case "reliable needs sequenced" `Quick
      test_transition_reliable_without_sequenced_illegal;
    Alcotest.test_case "retx store/fetch" `Quick test_retx_store_fetch;
    Alcotest.test_case "retx eviction" `Quick test_retx_eviction_oldest_first;
    Alcotest.test_case "retx overwrite" `Quick test_retx_overwrite_same_seq;
    Alcotest.test_case "retx eviction after overwrite" `Quick
      test_retx_eviction_after_overwrite;
    Alcotest.test_case "retx oversized" `Quick test_retx_oversized_frame_rejected;
    Alcotest.test_case "retx store copies" `Quick test_retx_store_copies;
    QCheck_alcotest.to_alcotest qcheck_retx_capacity_invariant;
  ]
