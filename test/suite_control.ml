(* Control message codecs and encapsulation. *)
open Mmt_util
open Mmt_frame

let ip = Addr.Ip.of_octets 10 0 3 1

(* NAK --------------------------------------------------------------------- *)

let test_nak_roundtrip () =
  let nak = { Mmt.Control.Nak.requester = ip; ranges = [ (3, 7); (12, 12); (100, 105) ] } in
  match Mmt.Control.Nak.decode (Mmt.Control.Nak.encode nak) with
  | Ok decoded -> Alcotest.(check bool) "equal" true (Mmt.Control.Nak.equal nak decoded)
  | Error e -> Alcotest.fail e

let test_nak_sequence_count () =
  let nak = { Mmt.Control.Nak.requester = ip; ranges = [ (3, 7); (12, 12) ] } in
  Alcotest.(check int) "count" 6 (Mmt.Control.Nak.sequence_count nak)

let test_nak_empty_ranges () =
  let nak = { Mmt.Control.Nak.requester = ip; ranges = [] } in
  match Mmt.Control.Nak.decode (Mmt.Control.Nak.encode nak) with
  | Ok decoded -> Alcotest.(check int) "zero" 0 (Mmt.Control.Nak.sequence_count decoded)
  | Error e -> Alcotest.fail e

let test_nak_truncated () =
  Alcotest.(check bool) "truncated rejected" true
    (match Mmt.Control.Nak.decode (Bytes.create 3) with Error _ -> true | Ok _ -> false)

let test_ranges_of_sorted () =
  Alcotest.(check (list (pair int int))) "coalesce"
    [ (1, 3); (5, 5); (7, 9) ]
    (Mmt.Control.Nak.ranges_of_sorted [ 1; 2; 3; 5; 7; 8; 9 ]);
  Alcotest.(check (list (pair int int))) "empty" [] (Mmt.Control.Nak.ranges_of_sorted []);
  Alcotest.(check (list (pair int int))) "singleton" [ (4, 4) ]
    (Mmt.Control.Nak.ranges_of_sorted [ 4 ])

let qcheck_ranges_cover =
  QCheck.Test.make ~name:"ranges cover exactly the input" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 200))
    (fun seqs ->
      let sorted = List.sort_uniq compare seqs in
      let ranges = Mmt.Control.Nak.ranges_of_sorted sorted in
      let expanded =
        List.concat_map (fun (a, b) -> List.init (b - a + 1) (fun i -> a + i)) ranges
      in
      expanded = sorted)

(* Deadline exceeded --------------------------------------------------------- *)

let test_deadline_roundtrip () =
  let notice =
    {
      Mmt.Control.Deadline_exceeded.sequence = 99;
      deadline = Units.Time.ms 10.;
      observed = Units.Time.ms 12.5;
    }
  in
  match Mmt.Control.Deadline_exceeded.decode (Mmt.Control.Deadline_exceeded.encode notice) with
  | Ok decoded ->
      Alcotest.(check bool) "equal" true
        (Mmt.Control.Deadline_exceeded.equal notice decoded);
      Alcotest.(check string) "lateness" "2.5ms"
        (Units.Time.to_string (Mmt.Control.Deadline_exceeded.lateness decoded))
  | Error e -> Alcotest.fail e

(* Backpressure --------------------------------------------------------------- *)

let test_backpressure_roundtrip () =
  let bp = { Mmt.Control.Backpressure.origin = ip; advised_pace_mbps = 5000; severity = 180 } in
  match Mmt.Control.Backpressure.decode (Mmt.Control.Backpressure.encode bp) with
  | Ok decoded -> Alcotest.(check bool) "equal" true (Mmt.Control.Backpressure.equal bp decoded)
  | Error e -> Alcotest.fail e

(* Buffer advert ---------------------------------------------------------------- *)

let test_buffer_advert_roundtrip () =
  let advert =
    {
      Mmt.Control.Buffer_advert.buffer = ip;
      capacity = Units.Size.mib 256;
      rtt_hint = Units.Time.ms 3.;
    }
  in
  match Mmt.Control.Buffer_advert.decode (Mmt.Control.Buffer_advert.encode advert) with
  | Ok decoded ->
      Alcotest.(check bool) "equal" true (Mmt.Control.Buffer_advert.equal advert decoded)
  | Error e -> Alcotest.fail e

(* Encapsulation ------------------------------------------------------------------ *)

let experiment = Mmt.Experiment_id.make ~experiment:3 ~slice:0
let mmt_frame = Mmt.Header.encode (Mmt.Header.mode0 ~experiment)

let test_encap_raw () =
  let wrapped = Mmt.Encap.wrap Mmt.Encap.Raw mmt_frame in
  Alcotest.(check bool) "raw is identity" true (Bytes.equal wrapped mmt_frame);
  match Mmt.Encap.locate wrapped with
  | Ok (Mmt.Encap.Raw, 0) -> ()
  | Ok _ -> Alcotest.fail "misidentified"
  | Error e -> Alcotest.fail e

let test_encap_ethernet () =
  let encap =
    Mmt.Encap.Over_ethernet
      {
        src = Addr.Mac.of_string "02:00:00:00:00:01";
        dst = Addr.Mac.of_string "02:00:00:00:00:02";
      }
  in
  let wrapped = Mmt.Encap.wrap encap mmt_frame in
  match Mmt.Encap.locate wrapped with
  | Ok (Mmt.Encap.Over_ethernet _, off) ->
      Alcotest.(check bool) "payload preserved" true
        (Bytes.equal (Bytes.sub wrapped off (Bytes.length wrapped - off)) mmt_frame)
  | Ok _ -> Alcotest.fail "misidentified"
  | Error e -> Alcotest.fail e

let test_encap_ipv4 () =
  let encap =
    Mmt.Encap.Over_ipv4
      { src = Addr.Ip.of_octets 10 0 1 1; dst = ip; dscp = 0; ttl = 64 }
  in
  let wrapped = Mmt.Encap.wrap encap mmt_frame in
  match Mmt.Encap.locate wrapped with
  | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, off) ->
      Alcotest.(check int) "offset" Ipv4.header_size off;
      Alcotest.(check bool) "dst" true (Addr.Ip.equal dst ip)
  | Ok _ -> Alcotest.fail "misidentified"
  | Error e -> Alcotest.fail e

let test_encap_ethernet_ipv4 () =
  (* Ethernet around IPv4 around MMT: located at 14 + 20. *)
  let ip_frame =
    Mmt.Encap.wrap
      (Mmt.Encap.Over_ipv4
         { src = Addr.Ip.of_octets 10 0 1 1; dst = ip; dscp = 0; ttl = 64 })
      mmt_frame
  in
  let w = Mmt_wire.Cursor.Writer.create (Ethernet.header_size + Bytes.length ip_frame) in
  Ethernet.write w
    {
      Ethernet.src = Addr.Mac.of_string "02:00:00:00:00:01";
      dst = Addr.Mac.of_string "02:00:00:00:00:02";
      ethertype = Ethernet.ethertype_ipv4;
    };
  Mmt_wire.Cursor.Writer.bytes w ip_frame;
  match Mmt.Encap.locate (Mmt_wire.Cursor.Writer.contents w) with
  | Ok (Mmt.Encap.Over_ipv4 _, off) ->
      Alcotest.(check int) "offset" (Ethernet.header_size + Ipv4.header_size) off
  | Ok _ -> Alcotest.fail "misidentified"
  | Error e -> Alcotest.fail e

let test_encap_rejects_foreign () =
  (* UDP-over-IPv4 is not an MMT frame. *)
  let w = Mmt_wire.Cursor.Writer.create Ipv4.header_size in
  Ipv4.write w
    {
      Ipv4.dscp = 0;
      ttl = 64;
      protocol = Ipv4.protocol_udp;
      src = ip;
      dst = ip;
      payload_length = 0;
    };
  Alcotest.(check bool) "foreign protocol rejected" true
    (match Mmt.Encap.locate (Mmt_wire.Cursor.Writer.contents w) with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "empty rejected" true
    (match Mmt.Encap.locate (Bytes.create 0) with Error _ -> true | Ok _ -> false)

let test_rewrap_grows_header_and_fixes_ip () =
  let encap =
    Mmt.Encap.Over_ipv4
      { src = Addr.Ip.of_octets 10 0 1 1; dst = ip; dscp = 0; ttl = 64 }
  in
  let payload = Bytes.of_string "payload!" in
  let original = Mmt.Encap.wrap encap (Bytes.cat mmt_frame payload) in
  (* Replace the mode-0 header with a larger, sequenced one. *)
  let bigger =
    Mmt.Header.encode
      (Mmt.Header.with_sequence (Mmt.Header.mode0 ~experiment) 7)
  in
  let rewrapped =
    Mmt.Encap.rewrap ~old_frame:original ~mmt_offset:Ipv4.header_size
      (Bytes.cat bigger payload)
  in
  (* The IPv4 header must still parse (length + checksum fixed). *)
  match Mmt.Encap.locate rewrapped with
  | Ok (Mmt.Encap.Over_ipv4 { dst; _ }, off) ->
      Alcotest.(check bool) "dst preserved" true (Addr.Ip.equal dst ip);
      (match Mmt.Header.decode_bytes ~off rewrapped with
      | Ok header -> Alcotest.(check (option int)) "new header" (Some 7) header.Mmt.Header.sequence
      | Error e -> Alcotest.fail e)
  | Ok _ -> Alcotest.fail "misidentified"
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "nak roundtrip" `Quick test_nak_roundtrip;
    Alcotest.test_case "nak sequence count" `Quick test_nak_sequence_count;
    Alcotest.test_case "nak empty" `Quick test_nak_empty_ranges;
    Alcotest.test_case "nak truncated" `Quick test_nak_truncated;
    Alcotest.test_case "ranges_of_sorted" `Quick test_ranges_of_sorted;
    QCheck_alcotest.to_alcotest qcheck_ranges_cover;
    Alcotest.test_case "deadline roundtrip" `Quick test_deadline_roundtrip;
    Alcotest.test_case "backpressure roundtrip" `Quick test_backpressure_roundtrip;
    Alcotest.test_case "buffer advert roundtrip" `Quick test_buffer_advert_roundtrip;
    Alcotest.test_case "encap raw" `Quick test_encap_raw;
    Alcotest.test_case "encap ethernet" `Quick test_encap_ethernet;
    Alcotest.test_case "encap ipv4" `Quick test_encap_ipv4;
    Alcotest.test_case "encap ethernet+ipv4" `Quick test_encap_ethernet_ipv4;
    Alcotest.test_case "encap rejects foreign" `Quick test_encap_rejects_foreign;
    Alcotest.test_case "rewrap grows header" `Quick test_rewrap_grows_header_and_fixes_ip;
  ]
