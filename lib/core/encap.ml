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
      let w = Cursor.Writer.over out in
      Ethernet.write w { Ethernet.src; dst; ethertype = Ethernet.ethertype_mmt }
  | Over_ipv4 { src; dst; dscp; ttl } ->
      let w = Cursor.Writer.over out in
      Ipv4.write w
        {
          Ipv4.dscp;
          ttl;
          protocol = Ipv4.protocol_mmt;
          src;
          dst;
          payload_length = mmt_length;
        }

let wrap t mmt_frame =
  match t with
  | Raw -> mmt_frame
  | _ ->
      let off = overhead t in
      let out = Bytes.create (off + Bytes.length mmt_frame) in
      wrap_into t ~mmt_length:(Bytes.length mmt_frame) out;
      Bytes.blit mmt_frame 0 out off (Bytes.length mmt_frame);
      out

let packet env ?(padding = 0) t header ~length write =
  let off = overhead t in
  let mmt_length = Header.size header + length in
  let ring = env.Mmt_runtime.Env.ring in
  let packet =
    Mmt_sim.Ring.in_packet ring ~padding
      ~id:(env.Mmt_runtime.Env.fresh_id ())
      ~born:(Mmt_runtime.Env.now env) (off + mmt_length)
  in
  let frame = Mmt_sim.Packet.frame packet in
  wrap_into t ~mmt_length:(mmt_length + padding) frame;
  let w = Cursor.Writer.over ~off frame in
  Header.encode_into w header;
  if Cursor.Writer.writes_exactly w length write then packet
  else begin
    (* Short or long, the pool frame would carry bytes nobody wrote. *)
    Mmt_sim.Ring.in_packet_done ring packet;
    invalid_arg
      (Printf.sprintf "Encap.packet: writer did not fill exactly %d bytes"
         length)
  end

let locate frame =
  if Bytes.length frame = 0 then Error "empty frame"
  else
    match Char.code (Bytes.get frame 0) with
    | 0x01 -> Ok (Raw, 0)
    | 0x45 -> (
        match Ipv4.read (Cursor.Reader.of_bytes frame) with
        | exception Cursor.Out_of_bounds _ -> Error "truncated IPv4 header"
        | exception Failure e -> Error e
        | ip ->
            if ip.Ipv4.protocol <> Ipv4.protocol_mmt then
              Error (Printf.sprintf "IPv4 protocol %d is not MMT" ip.Ipv4.protocol)
            else
              Ok
                ( Over_ipv4
                    {
                      src = ip.Ipv4.src;
                      dst = ip.Ipv4.dst;
                      dscp = ip.Ipv4.dscp;
                      ttl = ip.Ipv4.ttl;
                    },
                  Ipv4.header_size ))
    | _ -> (
        match Ethernet.read (Cursor.Reader.of_bytes frame) with
        | exception Cursor.Out_of_bounds _ -> Error "truncated Ethernet header"
        | eth ->
            if eth.Ethernet.ethertype = Ethernet.ethertype_mmt then
              Ok
                ( Over_ethernet { src = eth.Ethernet.src; dst = eth.Ethernet.dst },
                  Ethernet.header_size )
            else if eth.Ethernet.ethertype = Ethernet.ethertype_ipv4 then
              match
                Ipv4.read (Cursor.Reader.of_bytes ~off:Ethernet.header_size frame)
              with
              | exception Cursor.Out_of_bounds _ -> Error "truncated inner IPv4"
              | exception Failure e -> Error e
              | ip ->
                  if ip.Ipv4.protocol <> Ipv4.protocol_mmt then
                    Error "inner IPv4 protocol is not MMT"
                  else
                    Ok
                      ( Over_ipv4
                          {
                            src = ip.Ipv4.src;
                            dst = ip.Ipv4.dst;
                            dscp = ip.Ipv4.dscp;
                            ttl = ip.Ipv4.ttl;
                          },
                        Ethernet.header_size + Ipv4.header_size )
            else
              Error
                (Printf.sprintf "ethertype 0x%04x is not MMT" eth.Ethernet.ethertype))

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
