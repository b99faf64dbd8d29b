open Mmt_frame
module Cursor = Mmt_wire.Cursor

(* Addresses ------------------------------------------------------------ *)

let test_mac_string_roundtrip () =
  let s = "02:aa:bb:cc:dd:ee" in
  Alcotest.(check string) "roundtrip" s (Addr.Mac.to_string (Addr.Mac.of_string s))

let test_mac_rejects_bad () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match Addr.Mac.of_string bad with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ "nope"; "00:11:22:33:44"; "00:11:22:33:44:GG"; "00:11:22:33:44:555" ]

let test_mac_broadcast () =
  Alcotest.(check bool) "broadcast" true (Addr.Mac.is_broadcast Addr.Mac.broadcast);
  Alcotest.(check string) "broadcast string" "ff:ff:ff:ff:ff:ff"
    (Addr.Mac.to_string Addr.Mac.broadcast)

let test_mac_masks_to_48_bits () =
  let m = Addr.Mac.of_int64 0xFFFF_0102_0304_0506L in
  Alcotest.(check int64) "48 bits" 0x0102_0304_0506L (Addr.Mac.to_int64 m)

let test_ip_string_roundtrip () =
  let s = "10.0.1.255" in
  Alcotest.(check string) "roundtrip" s (Addr.Ip.to_string (Addr.Ip.of_string s))

let test_ip_rejects_bad () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match Addr.Ip.of_string bad with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ "10.0.0"; "256.0.0.1"; "a.b.c.d"; "1.2.3.4.5" ]

let test_ip_any () =
  Alcotest.(check bool) "any" true (Addr.Ip.is_any Addr.Ip.any);
  Alcotest.(check bool) "not any" false (Addr.Ip.is_any (Addr.Ip.of_octets 1 2 3 4))

let test_ip_octets () =
  Alcotest.(check string) "octets" "192.168.1.2"
    (Addr.Ip.to_string (Addr.Ip.of_octets 192 168 1 2))

(* Ethernet ------------------------------------------------------------- *)

let eth_header =
  {
    Ethernet.dst = Addr.Mac.of_string "02:00:00:00:00:02";
    src = Addr.Mac.of_string "02:00:00:00:00:01";
    ethertype = Ethernet.ethertype_mmt;
  }

let test_ethernet_roundtrip () =
  let w = Cursor.Writer.create Ethernet.header_size in
  Ethernet.write w eth_header;
  let parsed = Ethernet.read (Cursor.Reader.of_bytes (Cursor.Writer.contents w)) in
  Alcotest.(check bool) "equal" true (Ethernet.equal eth_header parsed)

let test_ethernet_size () =
  let w = Cursor.Writer.create Ethernet.header_size in
  Ethernet.write w eth_header;
  Alcotest.(check int) "14 bytes" 14 (Cursor.Writer.length w)

let test_ethernet_truncated () =
  Alcotest.(check bool) "truncated raises" true
    (match Ethernet.read (Cursor.Reader.of_bytes (Bytes.create 8)) with
    | _ -> false
    | exception Cursor.Out_of_bounds _ -> true)

(* IPv4 ------------------------------------------------------------------ *)

let ip_header =
  {
    Ipv4.dscp = 10;
    ttl = 63;
    protocol = Ipv4.protocol_mmt;
    src = Addr.Ip.of_octets 10 0 1 1;
    dst = Addr.Ip.of_octets 10 0 3 1;
    payload_length = 1234;
  }

let test_ipv4_roundtrip () =
  let w = Cursor.Writer.create Ipv4.header_size in
  Ipv4.write w ip_header;
  let parsed = Ipv4.read (Cursor.Reader.of_bytes (Cursor.Writer.contents w)) in
  Alcotest.(check bool) "equal" true (Ipv4.equal ip_header parsed)

let test_ipv4_checksum_detects_corruption () =
  let w = Cursor.Writer.create Ipv4.header_size in
  Ipv4.write w ip_header;
  let raw = Cursor.Writer.contents w in
  Bytes.set raw 8 (Char.chr (Char.code (Bytes.get raw 8) lxor 0xFF));
  Alcotest.(check bool) "bad checksum rejected" true
    (match Ipv4.read (Cursor.Reader.of_bytes raw) with
    | _ -> false
    | exception Failure _ -> true)

let test_ipv4_df_set () =
  let w = Cursor.Writer.create Ipv4.header_size in
  Ipv4.write w ip_header;
  let raw = Cursor.Writer.contents w in
  Alcotest.(check int) "DF flag" 0x4000 (Bytes.get_uint16_be raw 6)

(* UDP ------------------------------------------------------------------- *)

let test_udp_roundtrip () =
  let header = { Udp.src_port = 4000; dst_port = 4001; payload_length = 512 } in
  let w = Cursor.Writer.create Udp.header_size in
  Udp.write w header;
  let parsed = Udp.read (Cursor.Reader.of_bytes (Cursor.Writer.contents w)) in
  Alcotest.(check bool) "equal" true (Udp.equal header parsed)

let qcheck_ip_roundtrip =
  QCheck.Test.make ~name:"ip int32 roundtrip" ~count:500 QCheck.int32 (fun raw ->
      Addr.Ip.to_int32 (Addr.Ip.of_int32 raw) = raw)

let qcheck_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 header roundtrip" ~count:300
    QCheck.(quad (int_range 0 63) (int_range 1 255) (int_range 0 65000) int32)
    (fun (dscp, ttl, payload_length, addr) ->
      let header =
        {
          Ipv4.dscp;
          ttl;
          protocol = Ipv4.protocol_mmt;
          src = Addr.Ip.of_int32 addr;
          dst = Addr.Ip.of_int32 (Int32.lognot addr);
          payload_length;
        }
      in
      let w = Cursor.Writer.create Ipv4.header_size in
      Ipv4.write w header;
      Ipv4.equal header (Ipv4.read (Cursor.Reader.of_bytes (Cursor.Writer.contents w))))

(* The codec sums header fields as it writes and reads them; the bytes
   must still be the RFC 1071 checksum of the header, and [read] must
   reject exactly the headers whose bytes do not sum clean. *)
let qcheck_ipv4_checksum_matches_bytes =
  QCheck.Test.make ~name:"ipv4 checksum matches the header bytes" ~count:500
    QCheck.(
      pair
        (quad (int_range 0 63) (int_range 0 255) (int_range 0 65535) int32)
        (pair (int_range 0 19) (int_range 0 255)))
    (fun ((dscp, ttl, payload_length, addr), (position, value)) ->
      let header =
        {
          Ipv4.dscp;
          ttl;
          protocol = Ipv4.protocol_udp;
          src = Addr.Ip.of_int32 addr;
          dst = Addr.Ip.of_int32 (Int32.mul addr 7l);
          payload_length;
        }
      in
      let w = Cursor.Writer.create Ipv4.header_size in
      Ipv4.write w header;
      let raw = Cursor.Writer.contents w in
      let written_clean = Cursor.checksum raw ~off:0 ~len:Ipv4.header_size = 0 in
      Bytes.set raw position (Char.chr value);
      let sums_clean = Cursor.checksum raw ~off:0 ~len:Ipv4.header_size = 0 in
      let checksum_rejected =
        match Ipv4.read (Cursor.Reader.of_bytes raw) with
        | _ -> false
        | exception Failure msg -> msg = "Ipv4.read: bad checksum"
      in
      written_clean && sums_clean = not checksum_rejected)

let suite =
  [
    Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
    Alcotest.test_case "mac rejects bad" `Quick test_mac_rejects_bad;
    Alcotest.test_case "mac broadcast" `Quick test_mac_broadcast;
    Alcotest.test_case "mac 48-bit mask" `Quick test_mac_masks_to_48_bits;
    Alcotest.test_case "ip string roundtrip" `Quick test_ip_string_roundtrip;
    Alcotest.test_case "ip rejects bad" `Quick test_ip_rejects_bad;
    Alcotest.test_case "ip any" `Quick test_ip_any;
    Alcotest.test_case "ip octets" `Quick test_ip_octets;
    Alcotest.test_case "ethernet roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ethernet size" `Quick test_ethernet_size;
    Alcotest.test_case "ethernet truncated" `Quick test_ethernet_truncated;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 checksum detects corruption" `Quick
      test_ipv4_checksum_detects_corruption;
    Alcotest.test_case "ipv4 DF set" `Quick test_ipv4_df_set;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ip_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ipv4_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_ipv4_checksum_matches_bytes;
  ]
