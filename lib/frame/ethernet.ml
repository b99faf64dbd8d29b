module Cursor = Mmt_wire.Cursor

type t = { dst : Addr.Mac.t; src : Addr.Mac.t; ethertype : int }

let header_size = 14
let ethertype_ipv4 = 0x0800
let ethertype_mmt = 0x88B5

let write w t =
  let mac48 m =
    let raw = Addr.Mac.to_int64 m in
    Cursor.Writer.u16 w (Int64.to_int (Int64.shift_right_logical raw 32));
    Cursor.Writer.u32 w (Int64.to_int32 raw)
  in
  mac48 t.dst;
  mac48 t.src;
  Cursor.Writer.u16 w t.ethertype

let set_mac buf at m =
  let raw = Addr.Mac.to_int64 m in
  Bytes.set_uint16_be buf at (Int64.to_int (Int64.shift_right_logical raw 32));
  Bytes.set_int32_be buf (at + 2) (Int64.to_int32 raw)

let write_at buf ~off ~dst ~src ~ethertype =
  if off < 0 || Bytes.length buf - off < header_size then
    invalid_arg "Ethernet.write_at: buffer too short";
  set_mac buf off dst;
  set_mac buf (off + 6) src;
  Bytes.set_uint16_be buf (off + 12) ethertype

let read r =
  let mac48 () =
    let high = Int64.of_int (Cursor.Reader.u16 r) in
    let low = Int64.logand (Int64.of_int32 (Cursor.Reader.u32 r)) 0xFFFFFFFFL in
    Addr.Mac.of_int64 (Int64.logor (Int64.shift_left high 32) low)
  in
  let dst = mac48 () in
  let src = mac48 () in
  let ethertype = Cursor.Reader.u16 r in
  { dst; src; ethertype }

let equal a b =
  Addr.Mac.equal a.dst b.dst && Addr.Mac.equal a.src b.src
  && a.ethertype = b.ethertype

let pp fmt t =
  Format.fprintf fmt "eth{%a -> %a, type 0x%04x}" Addr.Mac.pp t.src Addr.Mac.pp
    t.dst t.ethertype
