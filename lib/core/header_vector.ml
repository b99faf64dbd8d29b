open Mmt_frame
module Packet = Mmt_sim.Packet

type encap = Raw | Ethernet | Ipv4 | Ethernet_ipv4

(* Which parser state stopped, or [Parsed].  Constant constructors: the
   parser records a failure without allocating, and only [error] turns
   it into text. *)
type status =
  | Parsed
  | Empty
  | Ipv4_truncated
  | Ipv4_invalid
  | Ipv4_not_mmt
  | Ethernet_truncated
  | Inner_truncated
  | Inner_invalid
  | Inner_not_mmt
  | Ethertype_not_mmt
  | Header_invalid

type t = {
  mutable packet : Packet.t;
  mutable frame : bytes;
  mutable gen : int;
  mutable status : status;
  mutable encap : encap;
  mutable mac_src : int;
  mutable mac_dst : int;
  mutable ip_src : int;
  mutable ip_dst : int;  (* -1 unless the frame rides IPv4 *)
  mutable dscp : int;
  mutable ttl : int;
  mutable mmt_offset : int;
  view : Header.View.t;
  mutable parses : int;
  mutable refreshes : int;
}

let create () =
  {
    packet = Packet.none;
    frame = Bytes.empty;
    gen = 0;
    status = Empty;
    encap = Raw;
    mac_src = 0;
    mac_dst = 0;
    ip_src = 0;
    ip_dst = -1;
    dscp = 0;
    ttl = 0;
    mmt_offset = 0;
    view = Header.View.blank ();
    parses = 0;
    refreshes = 0;
  }

let u32 frame at = Int32.to_int (Bytes.get_int32_be frame at) land 0xFFFF_FFFF
let mac frame at = (Bytes.get_uint16_be frame at lsl 32) lor u32 frame (at + 2)

(* The transport header after the encapsulation states. *)
let header t frame off =
  t.mmt_offset <- off;
  t.status <-
    (if Header.View.parse_into t.view frame ~off then Parsed else Header_invalid)

(* An IPv4 header at [off]: the checks of [Ipv4.read] unless the
   header was just written by the caller ([trusted]), then the
   protocol. *)
let ipv4 t frame off ~trusted ~encap ~truncated ~invalid ~not_mmt =
  if Bytes.length frame - off < Ipv4.header_size then t.status <- truncated
  else
    match if trusted then None else Ipv4.header_error frame ~off with
    | Some _ -> t.status <- invalid
    | None ->
        if Char.code (Bytes.get frame (off + 9)) <> Ipv4.protocol_mmt then
          t.status <- not_mmt
        else begin
          t.encap <- encap;
          t.dscp <- Char.code (Bytes.get frame (off + 1)) lsr 2;
          t.ttl <- Char.code (Bytes.get frame (off + 8));
          t.ip_src <- u32 frame (off + 12);
          t.ip_dst <- u32 frame (off + 16);
          header t frame (off + Ipv4.header_size)
        end

let parse_bytes ~trusted t frame =
  t.frame <- frame;
  t.ip_dst <- -1;
  let len = Bytes.length frame in
  if len = 0 then t.status <- Empty
  else
    match Char.code (Bytes.get frame 0) with
    | 0x01 ->
        t.encap <- Raw;
        header t frame 0
    | 0x45 ->
        ipv4 t frame 0 ~trusted ~encap:Ipv4 ~truncated:Ipv4_truncated
          ~invalid:Ipv4_invalid ~not_mmt:Ipv4_not_mmt
    | _ ->
        if len < Ethernet.header_size then t.status <- Ethernet_truncated
        else begin
          t.mac_dst <- mac frame 0;
          t.mac_src <- mac frame 6;
          let ethertype = Bytes.get_uint16_be frame 12 in
          if ethertype = Ethernet.ethertype_mmt then begin
            t.encap <- Ethernet;
            header t frame Ethernet.header_size
          end
          else if ethertype = Ethernet.ethertype_ipv4 then
            ipv4 t frame Ethernet.header_size ~trusted ~encap:Ethernet_ipv4
              ~truncated:Inner_truncated ~invalid:Inner_invalid
              ~not_mmt:Inner_not_mmt
          else t.status <- Ethertype_not_mmt
        end

let aim ~trusted t packet =
  t.packet <- packet;
  t.gen <- packet.Packet.gen;
  parse_bytes ~trusted t packet.Packet.frame

let parse_frame t frame =
  t.packet <- Packet.none;
  parse_bytes ~trusted:false t frame

let parse t packet =
  t.parses <- t.parses + 1;
  aim ~trusted:false t packet

(* The element that replaced the frame wrote its encapsulation (a
   re-encapsulation, or the old prefix with a fresh IPv4 length and
   checksum), so its IPv4 header needs no second check. *)
let refresh t packet =
  t.refreshes <- t.refreshes + 1;
  aim ~trusted:true t packet

let holds t packet =
  t.packet == packet
  && t.frame == packet.Packet.frame
  && t.gen = packet.Packet.gen

(* The vector a switch pass has entered, per domain: domains run whole
   simulations side by side, each with its own switches.  Outside a
   pass, [active] is the domain's scratch vector, which is never
   trusted to still describe a packet. *)
type slot = { mutable active : t; scratch : t }

let slot =
  Domain.DLS.new_key (fun () ->
      let scratch = create () in
      { active = scratch; scratch })

let of_packet packet =
  let s = Domain.DLS.get slot in
  let t = s.active in
  if t != s.scratch && holds t packet then t
  else begin
    parse t packet;
    t
  end

let enter t =
  let s = Domain.DLS.get slot in
  let outer = s.active in
  s.active <- t;
  outer

let leave outer = (Domain.DLS.get slot).active <- outer
let parsed t = t.status = Parsed
let located t = t.status = Parsed || t.status = Header_invalid

let error t =
  match t.status with
  | Parsed -> invalid_arg "Header_vector.error: the frame parsed"
  | Empty -> "empty frame"
  | Ipv4_truncated -> "truncated IPv4 header"
  | Inner_truncated -> "truncated inner IPv4"
  | Ipv4_invalid | Inner_invalid -> (
      let off = if t.status = Ipv4_invalid then 0 else Ethernet.header_size in
      match Ipv4.header_error t.frame ~off with Some e -> e | None -> assert false)
  | Ipv4_not_mmt ->
      Printf.sprintf "IPv4 protocol %d is not MMT" (Char.code (Bytes.get t.frame 9))
  | Inner_not_mmt -> "inner IPv4 protocol is not MMT"
  | Ethernet_truncated -> "truncated Ethernet header"
  | Ethertype_not_mmt ->
      Printf.sprintf "ethertype 0x%04x is not MMT" (Bytes.get_uint16_be t.frame 12)
  | Header_invalid -> Header.View.parse_error t.view

let encap t = t.encap
let mmt_offset t = t.mmt_offset
let view t = t.view
let kind t = Header.View.kind t.view
let ip_dst t = t.ip_dst
let ip_of_int v = Addr.Ip.of_int32 (Int32.of_int v)
let dst t = ip_of_int t.ip_dst
let src t = ip_of_int t.ip_src
let dscp t = t.dscp
let ttl t = t.ttl
let mac_src t = Addr.Mac.of_int64 (Int64.of_int t.mac_src)
let mac_dst t = Addr.Mac.of_int64 (Int64.of_int t.mac_dst)
let parses t = t.parses
let refreshes t = t.refreshes
