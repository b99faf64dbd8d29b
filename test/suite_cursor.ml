module Cursor = Mmt_wire.Cursor

let test_roundtrip_all_widths () =
  let w = Cursor.Writer.create 64 in
  Cursor.Writer.u8 w 0xAB;
  Cursor.Writer.u16 w 0xCDEF;
  Cursor.Writer.u24 w 0x123456;
  Cursor.Writer.u32 w 0xDEADBEEFl;
  Cursor.Writer.u32_int w 0xFFFFFFFF;
  Cursor.Writer.u64 w 0x0123456789ABCDEFL;
  Cursor.Writer.bytes w (Bytes.of_string "hello");
  let r = Cursor.Reader.of_bytes (Cursor.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Cursor.Reader.u8 r);
  Alcotest.(check int) "u16" 0xCDEF (Cursor.Reader.u16 r);
  Alcotest.(check int) "u24" 0x123456 (Cursor.Reader.u24 r);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Cursor.Reader.u32 r);
  Alcotest.(check int) "u32_int" 0xFFFFFFFF (Cursor.Reader.u32_int r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Cursor.Reader.u64 r);
  Alcotest.(check string) "bytes" "hello" (Bytes.to_string (Cursor.Reader.rest r))

let test_big_endian_layout () =
  let w = Cursor.Writer.create 4 in
  Cursor.Writer.u32 w 0x01020304l;
  let raw = Cursor.Writer.contents w in
  Alcotest.(check int) "byte 0" 1 (Char.code (Bytes.get raw 0));
  Alcotest.(check int) "byte 3" 4 (Char.code (Bytes.get raw 3))

let test_truncation_wraps_values () =
  let w = Cursor.Writer.create 8 in
  Cursor.Writer.u8 w 0x1FF;
  Cursor.Writer.u16 w 0x1FFFF;
  Cursor.Writer.u24 w 0x1FFFFFF;
  let r = Cursor.Reader.of_bytes (Cursor.Writer.contents w) in
  Alcotest.(check int) "u8 wraps" 0xFF (Cursor.Reader.u8 r);
  Alcotest.(check int) "u16 wraps" 0xFFFF (Cursor.Reader.u16 r);
  Alcotest.(check int) "u24 wraps" 0xFFFFFF (Cursor.Reader.u24 r)

let test_reader_window () =
  let buf = Bytes.of_string "XXabcdYY" in
  let r = Cursor.Reader.of_bytes ~off:2 ~len:4 buf in
  Alcotest.(check int) "remaining" 4 (Cursor.Reader.remaining r);
  Alcotest.(check string) "window content" "abcd" (Bytes.to_string (Cursor.Reader.rest r));
  Alcotest.(check int) "position" 4 (Cursor.Reader.position r)

let test_reader_out_of_bounds () =
  let r = Cursor.Reader.of_bytes (Bytes.create 3) in
  Cursor.Reader.skip r 3;
  Alcotest.(check bool) "raises on empty read" true
    (match Cursor.Reader.u8 r with
    | _ -> false
    | exception Cursor.Out_of_bounds _ -> true)

(* A tail is virtual: [remaining] counts it, but every read is bounded
   by the real bytes, and [rest] copies only those. *)
let test_reader_virtual_tail () =
  let buf = Bytes.of_string "XXabcdYY" in
  let r = Cursor.Reader.of_bytes ~off:2 ~len:4 ~tail:100 buf in
  let raises name read =
    Alcotest.(check bool) name true
      (match read r with _ -> false | exception Cursor.Out_of_bounds _ -> true)
  in
  Alcotest.(check int) "remaining counts the tail" 104 (Cursor.Reader.remaining r);
  Alcotest.(check int) "u16 from the real bytes" 0x6162 (Cursor.Reader.u16 r);
  Alcotest.(check int) "remaining after a read" 102 (Cursor.Reader.remaining r);
  raises "u32 past the real bytes" Cursor.Reader.u32;
  raises "take past the real bytes" (fun r -> Cursor.Reader.take r 3);
  raises "skip past the real bytes" (fun r -> Cursor.Reader.skip r 3);
  Alcotest.(check string) "rest copies the real bytes" "cd"
    (Bytes.to_string (Cursor.Reader.rest r));
  Alcotest.(check int) "the tail is left" 100 (Cursor.Reader.remaining r);
  raises "u8 into the tail" Cursor.Reader.u8;
  Alcotest.(check bool) "negative tail rejected" true
    (match Cursor.Reader.of_bytes ~tail:(-1) buf with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_reader_bad_window () =
  Alcotest.(check bool) "bad window rejected" true
    (match Cursor.Reader.of_bytes ~off:2 ~len:10 (Bytes.create 4) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_writer_overflow () =
  let w = Cursor.Writer.create 2 in
  Cursor.Writer.u16 w 1;
  Alcotest.(check bool) "raises past capacity" true
    (match Cursor.Writer.u8 w 1 with
    | () -> false
    | exception Cursor.Out_of_bounds _ -> true);
  (* Two bytes of room left after offset 6 of an 8-byte buffer. *)
  let exactly n k =
    Cursor.Writer.writes_exactly
      (Cursor.Writer.over ~off:6 (Bytes.create 8))
      n
      (fun w -> for _ = 1 to k do Cursor.Writer.u8 w 0 done)
  in
  Alcotest.(check (list bool)) "writes_exactly: short, exact, past the end"
    [ false; true; false ]
    [ exactly 2 1; exactly 2 2; exactly 3 3 ]

let test_writer_length_tracks () =
  let w = Cursor.Writer.create 16 in
  Alcotest.(check int) "empty" 0 (Cursor.Writer.length w);
  Cursor.Writer.u24 w 7;
  Alcotest.(check int) "after u24" 3 (Cursor.Writer.length w);
  let buf = Bytes.make 8 'x' in
  let w = Cursor.Writer.over ~off:5 buf in
  Alcotest.(check int) "empty at an offset" 0 (Cursor.Writer.length w);
  Cursor.Writer.u16 w 0x4142;
  Alcotest.(check int) "after u16 at an offset" 2 (Cursor.Writer.length w);
  Alcotest.(check string) "written in place" "xxxxxABx" (Bytes.to_string buf);
  Alcotest.(check string) "contents from the offset" "AB"
    (Bytes.to_string (Cursor.Writer.contents w))

let test_checksum_known_vector () =
  (* Classic RFC 1071 example: checksum of 0x0001 0xf203 0xf4f5 0xf6f7. *)
  let w = Cursor.Writer.create 8 in
  List.iter (Cursor.Writer.u16 w) [ 0x0001; 0xf203; 0xf4f5; 0xf6f7 ];
  let raw = Cursor.Writer.contents w in
  Alcotest.(check int) "checksum" 0x220d (Cursor.checksum raw ~off:0 ~len:8)

let test_checksum_odd_length () =
  let raw = Bytes.of_string "\x01\x02\x03" in
  let c = Cursor.checksum raw ~off:0 ~len:3 in
  (* sum = 0x0102 + 0x0300 = 0x0402 -> complement 0xFBFD *)
  Alcotest.(check int) "odd-length checksum" 0xFBFD c

let test_checksum_verifies_to_zero () =
  let w = Cursor.Writer.create 8 in
  List.iter (Cursor.Writer.u16 w) [ 0x1234; 0x0000; 0xABCD; 0x7fff ] ;
  let raw = Cursor.Writer.contents w in
  let c = Cursor.checksum raw ~off:0 ~len:8 in
  Bytes.set_uint16_be raw 2 c;
  Alcotest.(check int) "embeds to zero" 0 (Cursor.checksum raw ~off:0 ~len:8)

let qcheck_u64_roundtrip =
  QCheck.Test.make ~name:"u64 roundtrip" ~count:500 QCheck.int64 (fun v ->
      let w = Cursor.Writer.create 8 in
      Cursor.Writer.u64 w v;
      Cursor.Reader.u64 (Cursor.Reader.of_bytes (Cursor.Writer.contents w)) = v)

let qcheck_checksum_zero_embed =
  QCheck.Test.make ~name:"embedded checksum verifies to zero" ~count:300
    QCheck.(list_of_size (Gen.int_range 4 64) (int_range 0 255))
    (fun byte_values ->
      let n = List.length byte_values in
      let buf = Bytes.create (n + 2) in
      List.iteri (fun i v -> Bytes.set buf (i + 2) (Char.chr v)) byte_values;
      Bytes.set_uint16_be buf 0 0;
      let c = Cursor.checksum buf ~off:0 ~len:(n + 2) in
      Bytes.set_uint16_be buf 0 c;
      Cursor.checksum buf ~off:0 ~len:(n + 2) = 0)

let suite =
  [
    Alcotest.test_case "roundtrip all widths" `Quick test_roundtrip_all_widths;
    Alcotest.test_case "big endian layout" `Quick test_big_endian_layout;
    Alcotest.test_case "value truncation" `Quick test_truncation_wraps_values;
    Alcotest.test_case "reader window" `Quick test_reader_window;
    Alcotest.test_case "reader out of bounds" `Quick test_reader_out_of_bounds;
    Alcotest.test_case "reader bad window" `Quick test_reader_bad_window;
    Alcotest.test_case "reader virtual tail" `Quick test_reader_virtual_tail;
    Alcotest.test_case "writer overflow" `Quick test_writer_overflow;
    Alcotest.test_case "writer length" `Quick test_writer_length_tracks;
    Alcotest.test_case "checksum known vector" `Quick test_checksum_known_vector;
    Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "checksum self-verifies" `Quick test_checksum_verifies_to_zero;
    QCheck_alcotest.to_alcotest qcheck_u64_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_checksum_zero_embed;
  ]
