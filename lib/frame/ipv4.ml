module Cursor = Mmt_wire.Cursor

type t = {
  dscp : int;
  ttl : int;
  protocol : int;
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  payload_length : int;
}

let header_size = 20
let protocol_udp = 17
let protocol_mmt = 0xFD

(* RFC 1071 sum, folded to 16 bits.  The header is written and read one
   field at a time, so both sides sum the field values as 16-bit words
   instead of checksumming a copy of the bytes. *)
let rec fold sum = if sum > 0xFFFF then fold ((sum land 0xFFFF) + (sum lsr 16)) else sum

let[@inline] words v = (v lsr 16) + (v land 0xFFFF)
let ip_int ip = Int32.to_int (Addr.Ip.to_int32 ip) land 0xFFFF_FFFF

(* The header checksum of the fields a sender sets: identification 0,
   flags DF, offset 0. *)
let checksum ~tos ~total_length ~ttl ~protocol ~src ~dst =
  lnot
    (fold
       (((0x45 lsl 8) lor tos) + total_length + 0x4000
       + ((ttl lsl 8) lor protocol)
       + words (ip_int src) + words (ip_int dst)))
  land 0xFFFF

let write w t =
  let tos = (t.dscp land 0x3F) lsl 2 in
  let total_length = (header_size + t.payload_length) land 0xFFFF in
  let ttl = t.ttl land 0xFF and protocol = t.protocol land 0xFF in
  Cursor.Writer.u8 w 0x45; (* version 4, IHL 5 *)
  Cursor.Writer.u8 w tos;
  Cursor.Writer.u16 w total_length;
  Cursor.Writer.u16 w 0; (* identification *)
  Cursor.Writer.u16 w 0x4000; (* DF set, offset 0 *)
  Cursor.Writer.u8 w ttl;
  Cursor.Writer.u8 w protocol;
  Cursor.Writer.u16 w
    (checksum ~tos ~total_length ~ttl ~protocol ~src:t.src ~dst:t.dst);
  Cursor.Writer.u32 w (Addr.Ip.to_int32 t.src);
  Cursor.Writer.u32 w (Addr.Ip.to_int32 t.dst)

let write_at buf ~off ~dscp ~ttl ~protocol ~src ~dst ~payload_length =
  if off < 0 || Bytes.length buf - off < header_size then
    invalid_arg "Ipv4.write_at: buffer too short";
  let tos = (dscp land 0x3F) lsl 2 in
  let total_length = (header_size + payload_length) land 0xFFFF in
  let ttl = ttl land 0xFF and protocol = protocol land 0xFF in
  Bytes.set_uint16_be buf off ((0x45 lsl 8) lor tos);
  Bytes.set_uint16_be buf (off + 2) total_length;
  Bytes.set_uint16_be buf (off + 4) 0;
  Bytes.set_uint16_be buf (off + 6) 0x4000;
  Bytes.set_uint16_be buf (off + 8) ((ttl lsl 8) lor protocol);
  Bytes.set_uint16_be buf (off + 10)
    (checksum ~tos ~total_length ~ttl ~protocol ~src ~dst);
  Bytes.set_int32_be buf (off + 12) (Addr.Ip.to_int32 src);
  Bytes.set_int32_be buf (off + 16) (Addr.Ip.to_int32 dst)

(* The checks of a received header, in order, from its ones'-complement
   sum and the two fields they look at. *)
let problem ~sum ~version_ihl ~flags_offset =
  if fold sum <> 0xFFFF then Some "Ipv4.read: bad checksum"
  else if version_ihl lsr 4 <> 4 then Some "Ipv4.read: not IPv4"
  else if version_ihl land 0xF <> 5 then Some "Ipv4.read: options unsupported"
  else if flags_offset land 0x3FFF <> 0 || flags_offset land 0x2000 <> 0 then
    Some "Ipv4.read: fragmentation unsupported"
  else None

let read r =
  (* Every field is read before any check, so a truncated header raises
     [Out_of_bounds] whatever its contents. *)
  let version_ihl = Cursor.Reader.u8 r in
  let tos = Cursor.Reader.u8 r in
  let total_length = Cursor.Reader.u16 r in
  let identification = Cursor.Reader.u16 r in
  let flags_offset = Cursor.Reader.u16 r in
  let ttl = Cursor.Reader.u8 r in
  let protocol = Cursor.Reader.u8 r in
  let checksum = Cursor.Reader.u16 r in
  let src = Cursor.Reader.u32_int r in
  let dst = Cursor.Reader.u32_int r in
  let sum =
    ((version_ihl lsl 8) lor tos) + total_length + identification
    + flags_offset + ((ttl lsl 8) lor protocol) + checksum + words src
    + words dst
  in
  Option.iter failwith (problem ~sum ~version_ihl ~flags_offset);
  {
    dscp = tos lsr 2;
    ttl;
    protocol;
    src = Addr.Ip.of_int32 (Int32.of_int src);
    dst = Addr.Ip.of_int32 (Int32.of_int dst);
    payload_length = total_length - header_size;
  }

let word frame at = Bytes.get_uint16_be frame at

let header_error frame ~off =
  let sum =
    word frame off + word frame (off + 2) + word frame (off + 4)
    + word frame (off + 6) + word frame (off + 8) + word frame (off + 10)
    + word frame (off + 12) + word frame (off + 14) + word frame (off + 16)
    + word frame (off + 18)
  in
  problem ~sum
    ~version_ihl:(Char.code (Bytes.get frame off))
    ~flags_offset:(word frame (off + 6))

let equal a b =
  a.dscp = b.dscp && a.ttl = b.ttl && a.protocol = b.protocol
  && Addr.Ip.equal a.src b.src && Addr.Ip.equal a.dst b.dst
  && a.payload_length = b.payload_length

let pp fmt t =
  Format.fprintf fmt "ipv4{%a -> %a, proto %d, ttl %d, payload %dB}" Addr.Ip.pp
    t.src Addr.Ip.pp t.dst t.protocol t.ttl t.payload_length
