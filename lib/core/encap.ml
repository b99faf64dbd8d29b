open Mmt_frame
module Cursor = Mmt_wire.Cursor

type t =
  | Raw
  | Over_ethernet of { src : Addr.Mac.t; dst : Addr.Mac.t }
  | Over_ipv4 of { src : Addr.Ip.t; dst : Addr.Ip.t; dscp : int; ttl : int }

let overhead = function
  | Raw -> 0
  | Over_ethernet _ -> Ethernet.header_size
  | Over_ipv4 _ -> Ipv4.header_size

let wrap_into t ~mmt_length out =
  match t with
  | Raw -> ()
  | Over_ethernet { src; dst } ->
      Ethernet.write_at out ~off:0 ~dst ~src ~ethertype:Ethernet.ethertype_mmt
  | Over_ipv4 { src; dst; dscp; ttl } ->
      Ipv4.write_at out ~off:0 ~dscp ~ttl ~protocol:Ipv4.protocol_mmt ~src ~dst
        ~payload_length:mmt_length

let wrap t mmt_frame =
  match t with
  | Raw -> mmt_frame
  | _ ->
      let off = overhead t in
      let out = Bytes.create (off + Bytes.length mmt_frame) in
      wrap_into t ~mmt_length:(Bytes.length mmt_frame) out;
      Bytes.blit mmt_frame 0 out off (Bytes.length mmt_frame);
      out

(* A ring frame of the final length, its encapsulation written; the
   caller writes the [header_size]-byte transport header after it. *)
let acquire env ~padding t ~header_size ~length =
  let off = overhead t in
  let mmt_length = header_size + length in
  let packet =
    Mmt_sim.Ring.in_packet env.Mmt_runtime.Env.ring ~padding
      ~id:(env.Mmt_runtime.Env.fresh_id ())
      ~born:(Mmt_runtime.Env.now env) (off + mmt_length)
  in
  wrap_into t ~mmt_length:(mmt_length + padding) (Mmt_sim.Packet.frame packet);
  packet

let fill_payload env packet ~off ~length write =
  let w = Cursor.Writer.over ~off (Mmt_sim.Packet.frame packet) in
  if Cursor.Writer.writes_exactly w length write then packet
  else begin
    (* Short or long, the pool frame would carry bytes nobody wrote. *)
    Mmt_sim.Ring.in_packet_done env.Mmt_runtime.Env.ring packet;
    invalid_arg
      (Printf.sprintf "Encap.packet: writer did not fill exactly %d bytes"
         length)
  end

let packet env ?(padding = 0) t header ~length write =
  let header_size = Header.size header in
  let packet = acquire env ~padding t ~header_size ~length in
  let off = overhead t in
  Header.encode_into (Cursor.Writer.over ~off (Mmt_sim.Packet.frame packet)) header;
  fill_payload env packet ~off:(off + header_size) ~length write

let packet_of_template env ?(padding = 0) t template ~deadline ~length write =
  let header_size = Header.Template.size template in
  let packet = acquire env ~padding t ~header_size ~length in
  let off = overhead t in
  Header.Template.write template (Mmt_sim.Packet.frame packet) ~at:off
    ~sequence:0 ~deadline ~last_touch:(Mmt_runtime.Env.now env);
  fill_payload env packet ~off:(off + header_size) ~length write

let locate frame =
  let v = Header_vector.create () in
  Header_vector.parse_frame v frame;
  if not (Header_vector.located v) then Error (Header_vector.error v)
  else
    let encap =
      match Header_vector.encap v with
      | Header_vector.Raw -> Raw
      | Header_vector.Ethernet ->
          Over_ethernet
            { src = Header_vector.mac_src v; dst = Header_vector.mac_dst v }
      | Header_vector.Ipv4 | Header_vector.Ethernet_ipv4 ->
          Over_ipv4
            {
              src = Header_vector.src v;
              dst = Header_vector.dst v;
              dscp = Header_vector.dscp v;
              ttl = Header_vector.ttl v;
            }
    in
    Ok (encap, Header_vector.mmt_offset v)

let parse frame =
  Result.bind (locate frame) (fun (_encap, off) ->
      let r = Cursor.Reader.of_bytes ~off frame in
      Result.map (fun header -> (header, r)) (Header.decode r))

let rewrap_into ~old_frame ~mmt_offset ~mmt_length out =
  Bytes.blit old_frame 0 out 0 mmt_offset;
  (* Fix the IPv4 total length + checksum if an IPv4 header ends exactly
     at the transport offset. *)
  let ip_off =
    if mmt_offset = Ipv4.header_size then Some 0
    else if mmt_offset = Ethernet.header_size + Ipv4.header_size then
      Some Ethernet.header_size
    else None
  in
  match ip_off with
  | Some off when Char.code (Bytes.get out off) = 0x45 ->
      Bytes.set_uint16_be out (off + 2) (Ipv4.header_size + mmt_length);
      Bytes.set_uint16_be out (off + 10) 0;
      let csum = Cursor.checksum out ~off ~len:Ipv4.header_size in
      Bytes.set_uint16_be out (off + 10) csum
  | _ -> ()

let rewrap ~old_frame ~mmt_offset new_mmt =
  let out = Bytes.create (mmt_offset + Bytes.length new_mmt) in
  Bytes.blit new_mmt 0 out mmt_offset (Bytes.length new_mmt);
  rewrap_into ~old_frame ~mmt_offset ~mmt_length:(Bytes.length new_mmt) out;
  out

let describe = function
  | Raw -> "raw"
  | Over_ethernet { src; dst } ->
      Printf.sprintf "ethernet(%s -> %s)" (Addr.Mac.to_string src)
        (Addr.Mac.to_string dst)
  | Over_ipv4 { src; dst; _ } ->
      Printf.sprintf "ipv4(%s -> %s)" (Addr.Ip.to_string src)
        (Addr.Ip.to_string dst)
