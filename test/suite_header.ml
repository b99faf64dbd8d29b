(* Feature encoding, experiment IDs and the multi-modal header codec. *)
open Mmt_util
open Mmt_frame

(* Feature sets ----------------------------------------------------------- *)

let test_feature_bits_distinct () =
  let bits = List.map Mmt.Feature.bit Mmt.Feature.all in
  Alcotest.(check int) "distinct bits" (List.length Mmt.Feature.all)
    (List.length (List.sort_uniq compare bits))

let test_feature_set_ops () =
  let open Mmt.Feature in
  let s = Set.of_list [ Sequenced; Reliable ] in
  Alcotest.(check bool) "mem" true (Set.mem Sequenced s);
  Alcotest.(check bool) "not mem" false (Set.mem Timely s);
  Alcotest.(check int) "cardinal" 2 (Set.cardinal s);
  let s2 = Set.remove Sequenced s in
  Alcotest.(check bool) "removed" false (Set.mem Sequenced s2);
  Alcotest.(check bool) "subset" true (Set.subset s2 s);
  Alcotest.(check bool) "not subset" false (Set.subset s s2);
  Alcotest.(check bool) "union" true
    (Set.equal (Set.union s2 (Set.of_list [ Sequenced ])) s)

let test_config_data_roundtrip () =
  let open Mmt.Feature in
  List.iter
    (fun kind ->
      let set = Set.of_list [ Sequenced; Timely; Encrypted ] in
      let data = encode_config_data ~kind set in
      match decode_config_data data with
      | Ok (kind', set') ->
          Alcotest.(check bool) "kind" true (Kind.equal kind kind');
          Alcotest.(check bool) "set" true (Set.equal set set')
      | Error e -> Alcotest.fail e)
    [ Kind.Data; Kind.Nak; Kind.Deadline_exceeded; Kind.Backpressure; Kind.Buffer_advert ]

let test_config_data_rejects_reserved () =
  Alcotest.(check bool) "reserved bits rejected" true
    (match Mmt.Feature.decode_config_data 0x10000 with Error _ -> true | Ok _ -> false)

let test_config_data_rejects_unknown_kind () =
  Alcotest.(check bool) "unknown kind rejected" true
    (match Mmt.Feature.decode_config_data (15 lsl 20) with
    | Error _ -> true
    | Ok _ -> false)

(* Experiment IDs ---------------------------------------------------------- *)

let test_experiment_id_fields () =
  let id = Mmt.Experiment_id.make ~experiment:0xABCDEF ~slice:42 in
  Alcotest.(check int) "experiment" 0xABCDEF (Mmt.Experiment_id.experiment id);
  Alcotest.(check int) "slice" 42 (Mmt.Experiment_id.slice id);
  let id' = Mmt.Experiment_id.of_int32 (Mmt.Experiment_id.to_int32 id) in
  Alcotest.(check bool) "int32 roundtrip" true (Mmt.Experiment_id.equal id id')

let test_experiment_id_bounds () =
  Alcotest.(check bool) "experiment too big" true
    (match Mmt.Experiment_id.make ~experiment:0x1000000 ~slice:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "slice too big" true
    (match Mmt.Experiment_id.make ~experiment:0 ~slice:256 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_with_slice () =
  let id = Mmt.Experiment_id.make ~experiment:7 ~slice:1 in
  let id2 = Mmt.Experiment_id.with_slice id 3 in
  Alcotest.(check int) "same experiment" 7 (Mmt.Experiment_id.experiment id2);
  Alcotest.(check int) "new slice" 3 (Mmt.Experiment_id.slice id2)

(* Header ------------------------------------------------------------------ *)

let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:1

let full_header =
  Mmt.Header.create ~sequence:12345
    ~retransmit_from:(Addr.Ip.of_octets 10 0 1 1)
    ~timely:
      { Mmt.Header.deadline = Units.Time.ms 42.; notify = Addr.Ip.of_octets 10 0 0 1 }
    ~age:
      {
        Mmt.Header.age_us = 150;
        budget_us = 20_000;
        aged = false;
        hop_count = 2;
        last_touch_ns = Units.Time.us 77.;
      }
    ~pace_mbps:5000
    ~backpressure_to:(Addr.Ip.of_octets 10 0 0 1)
    ~extra_features:[ Mmt.Feature.Encrypted ] ~experiment ()

let check_roundtrip name header =
  match Mmt.Header.decode_bytes (Mmt.Header.encode header) with
  | Ok decoded -> Alcotest.(check bool) name true (Mmt.Header.equal header decoded)
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_mode0_roundtrip () =
  let header = Mmt.Header.mode0 ~experiment in
  Alcotest.(check int) "core size only" Mmt.Header.core_size (Mmt.Header.size header);
  check_roundtrip "mode0" header

let test_full_roundtrip () =
  Alcotest.(check int) "full size" (8 + 4 + 4 + 12 + 20 + 4 + 4)
    (Mmt.Header.size full_header);
  check_roundtrip "full" full_header

(* A header with every feature bit set is the longest a parse can read,
   whatever bits a corrupted header claims: the bound a real payload
   prefix must cover (Chaos_run).  A new extension must grow max_size. *)
let test_max_size () =
  let every =
    Mmt.Header.with_checksummed
      (Mmt.Header.with_int_stack
         (Mmt.Header.create ~sequence:1
            ~retransmit_from:(Addr.Ip.of_octets 10 0 1 1)
            ~timely:(Option.get full_header.Mmt.Header.timely)
            ~age:(Option.get full_header.Mmt.Header.age)
            ~pace_mbps:1
            ~backpressure_to:(Addr.Ip.of_octets 10 0 0 1)
            ~extra_features:[ Mmt.Feature.Duplicated; Mmt.Feature.Encrypted ]
            ~experiment ())
         Mmt.Header.empty_int_stack)
  in
  Alcotest.(check bool) "every feature" true
    (Mmt.Feature.Set.equal every.Mmt.Header.features
       (Mmt.Feature.Set.of_list Mmt.Feature.all));
  Alcotest.(check int) "size" Mmt.Header.max_size (Mmt.Header.size every);
  match Mmt.Header.View.of_frame (Mmt.Header.encode every) with
  | Ok view -> Alcotest.(check int) "view size" Mmt.Header.max_size (Mmt.Header.View.size view)
  | Error e -> Alcotest.fail e

let test_each_single_extension () =
  check_roundtrip "seq only" (Mmt.Header.create ~sequence:7 ~experiment ());
  check_roundtrip "timely only"
    (Mmt.Header.create
       ~timely:{ Mmt.Header.deadline = Units.Time.ms 1.; notify = Addr.Ip.any }
       ~experiment ());
  check_roundtrip "pace only" (Mmt.Header.create ~pace_mbps:123 ~experiment ());
  check_roundtrip "bp only"
    (Mmt.Header.create ~backpressure_to:(Addr.Ip.of_octets 1 2 3 4) ~experiment ())

let test_feature_bits_match_fields () =
  let open Mmt.Feature in
  let f = full_header.Mmt.Header.features in
  List.iter
    (fun feature -> Alcotest.(check bool) (to_string feature) true (Set.mem feature f))
    [ Sequenced; Reliable; Timely; Age_tracked; Paced; Backpressured; Encrypted ];
  Alcotest.(check bool) "not duplicated" false (Set.mem Duplicated f)

let test_create_rejects_fielded_extra () =
  Alcotest.(check bool) "extra_features with field rejected" true
    (match
       Mmt.Header.create ~extra_features:[ Mmt.Feature.Sequenced ] ~experiment ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_strip () =
  let stripped = Mmt.Header.strip full_header Mmt.Feature.Timely in
  Alcotest.(check bool) "timely gone" true (stripped.Mmt.Header.timely = None);
  Alcotest.(check bool) "bit cleared" false
    (Mmt.Feature.Set.mem Mmt.Feature.Timely stripped.Mmt.Header.features);
  Alcotest.(check int) "size shrank" (Mmt.Header.size full_header - 12)
    (Mmt.Header.size stripped);
  check_roundtrip "stripped" stripped

let test_with_kind () =
  let nak = Mmt.Header.with_kind (Mmt.Header.mode0 ~experiment) Mmt.Feature.Kind.Nak in
  check_roundtrip "nak kind" nak

let test_decode_rejects_bad_version () =
  let raw = Mmt.Header.encode (Mmt.Header.mode0 ~experiment) in
  Bytes.set raw 0 '\x02';
  Alcotest.(check bool) "bad version" true
    (match Mmt.Header.decode_bytes raw with Error _ -> true | Ok _ -> false)

let test_decode_rejects_truncation () =
  let raw = Mmt.Header.encode full_header in
  let truncated = Bytes.sub raw 0 (Bytes.length raw - 5) in
  Alcotest.(check bool) "truncated" true
    (match Mmt.Header.decode_bytes truncated with Error _ -> true | Ok _ -> false)

let test_offset_of_age () =
  Alcotest.(check (option int)) "full header age offset" (Some (8 + 4 + 4 + 12))
    (Mmt.Header.offset_of_age full_header);
  Alcotest.(check (option int)) "no age" None
    (Mmt.Header.offset_of_age (Mmt.Header.mode0 ~experiment));
  let age_only =
    Mmt.Header.create
      ~age:
        {
          Mmt.Header.age_us = 0;
          budget_us = 10;
          aged = false;
          hop_count = 0;
          last_touch_ns = Units.Time.zero;
        }
      ~experiment ()
  in
  Alcotest.(check (option int)) "age right after core" (Some 8)
    (Mmt.Header.offset_of_age age_only)

let test_touch_age_in_place () =
  let header =
    Mmt.Header.create
      ~age:
        {
          Mmt.Header.age_us = 100;
          budget_us = 1_000;
          aged = false;
          hop_count = 3;
          last_touch_ns = Units.Time.us 50.;
        }
      ~experiment ()
  in
  let frame = Mmt.Header.encode header in
  let ext_off = Option.get (Mmt.Header.offset_of_age header) in
  (* 500 us later: age grows by 450 us (from last touch at 50 us). *)
  let age_us, aged = Mmt.Header.touch_age_in_place frame ~ext_off ~now:(Units.Time.us 500.) in
  Alcotest.(check int) "age accumulated" 550 age_us;
  Alcotest.(check bool) "not aged yet" false aged;
  (match Mmt.Header.decode_bytes frame with
  | Ok decoded ->
      let age = Option.get decoded.Mmt.Header.age in
      Alcotest.(check int) "persisted age" 550 age.Mmt.Header.age_us;
      Alcotest.(check int) "hop bumped" 4 age.Mmt.Header.hop_count;
      Alcotest.(check bool) "touch updated" true
        (Units.Time.equal age.Mmt.Header.last_touch_ns (Units.Time.us 500.))
  | Error e -> Alcotest.fail e);
  (* Push past the budget: aged flag latches. *)
  let _, aged = Mmt.Header.touch_age_in_place frame ~ext_off ~now:(Units.Time.us 1200.) in
  Alcotest.(check bool) "aged past budget" true aged;
  let _, still_aged = Mmt.Header.touch_age_in_place frame ~ext_off ~now:(Units.Time.us 1201.) in
  Alcotest.(check bool) "aged flag latches" true still_aged

(* Checksummed headers ----------------------------------------------------- *)

let checksummed_header =
  Mmt.Header.with_checksummed
    (Mmt.Header.create ~sequence:4242
       ~retransmit_from:(Addr.Ip.of_octets 10 0 1 1)
       ~experiment ())

let test_checksummed_roundtrip () =
  let plain =
    Mmt.Header.create ~sequence:4242
      ~retransmit_from:(Addr.Ip.of_octets 10 0 1 1)
      ~experiment ()
  in
  Alcotest.(check int) "adds checksum_size"
    (Mmt.Header.size plain + Mmt.Header.checksum_size)
    (Mmt.Header.size checksummed_header);
  check_roundtrip "checksummed" checksummed_header

let test_checksum_verifies_clean () =
  let frame = Mmt.Header.encode checksummed_header in
  match Mmt.Header.View.of_frame frame with
  | Error e -> Alcotest.fail e
  | Ok view ->
      Alcotest.(check bool) "has feature" true
        (Mmt.Header.View.has view Mmt.Feature.Checksummed);
      Alcotest.(check bool) "sums clean" true (Mmt.Header.View.verify view);
      Alcotest.(check bool) "raw verify" true
        (Mmt.Header.verify_in_place frame ~off:0
           ~size:(Mmt.Header.size checksummed_header))

(* The detection guarantee behind lib/fault's bit-flip corruption: any
   single-bit flip anywhere in a sealed header is either caught (parse
   failure or checksum mismatch) or it erased the Checksummed feature
   bit itself — which a verifying path treats as corruption too
   (Checksum_verify discards an unsealed data frame). *)
let test_single_bit_flips_caught () =
  let clean = Mmt.Header.encode checksummed_header in
  for byte = 0 to Bytes.length clean - 1 do
    for bit = 0 to 7 do
      let frame = Bytes.copy clean in
      Bytes.set frame byte
        (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl bit)));
      let undetected =
        match Mmt.Header.View.of_frame frame with
        | Error _ -> false
        | Ok view ->
            Mmt.Header.View.has view Mmt.Feature.Checksummed
            && Mmt.Header.View.verify view
      in
      if undetected then
        Alcotest.failf "flip of byte %d bit %d went undetected" byte bit
    done
  done

let test_view_setters_reseal () =
  let frame = Mmt.Header.encode checksummed_header in
  match Mmt.Header.View.of_frame frame with
  | Error e -> Alcotest.fail e
  | Ok view ->
      Mmt.Header.View.set_sequence view 99_999;
      Alcotest.(check int) "sequence updated" 99_999
        (Mmt.Header.View.sequence view);
      Alcotest.(check bool) "resealed after set_sequence" true
        (Mmt.Header.View.verify view);
      Mmt.Header.View.set_retransmit_from view (Addr.Ip.of_octets 10 9 9 9);
      Alcotest.(check bool) "resealed after set_retransmit_from" true
        (Mmt.Header.View.verify view);
      (* The reseal must leave the header decodable with the new values. *)
      (match Mmt.Header.decode_bytes frame with
      | Ok decoded ->
          Alcotest.(check (option int)) "decoded sequence" (Some 99_999)
            decoded.Mmt.Header.sequence
      | Error e -> Alcotest.fail e)

let test_strip_checksummed () =
  let stripped = Mmt.Header.strip checksummed_header Mmt.Feature.Checksummed in
  Alcotest.(check bool) "feature gone" false
    (Mmt.Feature.Set.mem Mmt.Feature.Checksummed
       stripped.Mmt.Header.features);
  Alcotest.(check int) "size shrinks"
    (Mmt.Header.size checksummed_header - Mmt.Header.checksum_size)
    (Mmt.Header.size stripped);
  check_roundtrip "stripped still roundtrips" stripped

let qcheck_header_roundtrip =
  let gen =
    QCheck.Gen.(
      let* seq = opt (int_range 0 0xFFFFFFF) in
      let* has_rtx = bool in
      let* has_timely = bool in
      let* has_age = bool in
      let* pace = opt (int_range 0 1_000_000) in
      let* exp_num = int_range 0 0xFFFFFF in
      let* slice = int_range 0 255 in
      return (seq, has_rtx, has_timely, has_age, pace, exp_num, slice))
  in
  QCheck.Test.make ~name:"header roundtrip (random feature subsets)" ~count:500
    (QCheck.make gen)
    (fun (seq, has_rtx, has_timely, has_age, pace, exp_num, slice) ->
      let experiment = Mmt.Experiment_id.make ~experiment:exp_num ~slice in
      let header =
        Mmt.Header.create ?sequence:seq
          ?retransmit_from:(if has_rtx then Some (Addr.Ip.of_octets 10 1 1 1) else None)
          ?timely:
            (if has_timely then
               Some { Mmt.Header.deadline = Units.Time.ms 7.; notify = Addr.Ip.any }
             else None)
          ?age:
            (if has_age then
               Some
                 {
                   Mmt.Header.age_us = 5;
                   budget_us = 10;
                   aged = false;
                   hop_count = 1;
                   last_touch_ns = Units.Time.zero;
                 }
             else None)
          ?pace_mbps:pace ~experiment ()
      in
      match Mmt.Header.decode_bytes (Mmt.Header.encode header) with
      | Ok decoded -> Mmt.Header.equal header decoded
      | Error _ -> false)

let qcheck_size_matches_encode =
  QCheck.Test.make ~name:"size agrees with encoded length" ~count:300
    QCheck.(pair bool (pair bool bool))
    (fun (a, (b, c)) ->
      let header =
        Mmt.Header.create
          ?sequence:(if a then Some 9 else None)
          ?retransmit_from:(if b then Some (Addr.Ip.of_octets 1 1 1 1) else None)
          ?pace_mbps:(if c then Some 77 else None)
          ~experiment ()
      in
      Bytes.length (Mmt.Header.encode header) = Mmt.Header.size header)

let suite =
  [
    Alcotest.test_case "feature bits distinct" `Quick test_feature_bits_distinct;
    Alcotest.test_case "feature set ops" `Quick test_feature_set_ops;
    Alcotest.test_case "config data roundtrip" `Quick test_config_data_roundtrip;
    Alcotest.test_case "reserved bits rejected" `Quick test_config_data_rejects_reserved;
    Alcotest.test_case "unknown kind rejected" `Quick test_config_data_rejects_unknown_kind;
    Alcotest.test_case "experiment id fields" `Quick test_experiment_id_fields;
    Alcotest.test_case "experiment id bounds" `Quick test_experiment_id_bounds;
    Alcotest.test_case "with_slice" `Quick test_with_slice;
    Alcotest.test_case "mode0 roundtrip" `Quick test_mode0_roundtrip;
    Alcotest.test_case "full roundtrip" `Quick test_full_roundtrip;
    Alcotest.test_case "max_size: every feature" `Quick test_max_size;
    Alcotest.test_case "single extensions" `Quick test_each_single_extension;
    Alcotest.test_case "feature bits match fields" `Quick test_feature_bits_match_fields;
    Alcotest.test_case "extra_features validation" `Quick test_create_rejects_fielded_extra;
    Alcotest.test_case "strip" `Quick test_strip;
    Alcotest.test_case "with_kind" `Quick test_with_kind;
    Alcotest.test_case "bad version rejected" `Quick test_decode_rejects_bad_version;
    Alcotest.test_case "truncation rejected" `Quick test_decode_rejects_truncation;
    Alcotest.test_case "offset_of_age" `Quick test_offset_of_age;
    Alcotest.test_case "touch_age_in_place" `Quick test_touch_age_in_place;
    Alcotest.test_case "checksummed roundtrip" `Quick test_checksummed_roundtrip;
    Alcotest.test_case "checksum verifies clean" `Quick test_checksum_verifies_clean;
    Alcotest.test_case "single-bit flips caught" `Quick test_single_bit_flips_caught;
    Alcotest.test_case "view setters reseal" `Quick test_view_setters_reseal;
    Alcotest.test_case "strip checksummed" `Quick test_strip_checksummed;
    QCheck_alcotest.to_alcotest qcheck_header_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_size_matches_encode;
  ]
