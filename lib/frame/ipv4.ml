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

let write w t =
  let tos = (t.dscp land 0x3F) lsl 2 in
  let total_length = (header_size + t.payload_length) land 0xFFFF in
  let ttl = t.ttl land 0xFF and protocol = t.protocol land 0xFF in
  let src = ip_int t.src and dst = ip_int t.dst in
  (* identification 0; flags DF, offset 0 *)
  let sum =
    ((0x45 lsl 8) lor tos) + total_length + 0x4000 + ((ttl lsl 8) lor protocol)
    + words src + words dst
  in
  Cursor.Writer.u8 w 0x45; (* version 4, IHL 5 *)
  Cursor.Writer.u8 w tos;
  Cursor.Writer.u16 w total_length;
  Cursor.Writer.u16 w 0; (* identification *)
  Cursor.Writer.u16 w 0x4000; (* DF set, offset 0 *)
  Cursor.Writer.u8 w ttl;
  Cursor.Writer.u8 w protocol;
  Cursor.Writer.u16 w (lnot (fold sum) land 0xFFFF);
  Cursor.Writer.u32 w (Addr.Ip.to_int32 t.src);
  Cursor.Writer.u32 w (Addr.Ip.to_int32 t.dst)

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
  if fold sum <> 0xFFFF then failwith "Ipv4.read: bad checksum";
  if version_ihl lsr 4 <> 4 then failwith "Ipv4.read: not IPv4";
  if version_ihl land 0xF <> 5 then failwith "Ipv4.read: options unsupported";
  if flags_offset land 0x3FFF <> 0 || flags_offset land 0x2000 <> 0 then
    failwith "Ipv4.read: fragmentation unsupported";
  {
    dscp = tos lsr 2;
    ttl;
    protocol;
    src = Addr.Ip.of_int32 (Int32.of_int src);
    dst = Addr.Ip.of_int32 (Int32.of_int dst);
    payload_length = total_length - header_size;
  }

let equal a b =
  a.dscp = b.dscp && a.ttl = b.ttl && a.protocol = b.protocol
  && Addr.Ip.equal a.src b.src && Addr.Ip.equal a.dst b.dst
  && a.payload_length = b.payload_length

let pp fmt t =
  Format.fprintf fmt "ipv4{%a -> %a, proto %d, ttl %d, payload %dB}" Addr.Ip.pp
    t.src Addr.Ip.pp t.dst t.protocol t.ttl t.payload_length
