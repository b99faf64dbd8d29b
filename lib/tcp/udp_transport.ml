open Mmt_util
open Mmt_frame
module Cursor = Mmt_wire.Cursor

type sender_stats = { datagrams_sent : int; bytes_sent : int }

type sender = {
  engine : Mmt_sim.Engine.t;
  ring : Mmt_sim.Ring.t;
  fresh_id : unit -> int;
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  src_port : int;
  dst_port : int;
  tx : Mmt_sim.Packet.t -> unit;
  padding : int;
  mutable datagrams_sent : int;
  mutable bytes_sent : int;
}

let create_sender ~engine ~ring ~fresh_id ~src ~dst ~src_port ~dst_port ~tx
    ?(padding = 0) () =
  {
    engine;
    ring;
    fresh_id;
    src;
    dst;
    src_port;
    dst_port;
    tx;
    padding;
    datagrams_sent = 0;
    bytes_sent = 0;
  }

let send (t : sender) payload =
  let udp_len = Udp.header_size + Bytes.length payload in
  let packet =
    Mmt_sim.Ring.in_packet t.ring ~padding:t.padding ~id:(t.fresh_id ())
      ~born:(Mmt_sim.Engine.now t.engine) (Ipv4.header_size + udp_len)
  in
  let w = Cursor.Writer.over (Mmt_sim.Packet.frame packet) in
  Ipv4.write w
    {
      Ipv4.dscp = 0;
      ttl = 64;
      protocol = Ipv4.protocol_udp;
      src = t.src;
      dst = t.dst;
      payload_length = udp_len;
    };
  Udp.write w
    {
      Udp.src_port = t.src_port;
      dst_port = t.dst_port;
      payload_length = Bytes.length payload;
    };
  Cursor.Writer.bytes w payload;
  t.datagrams_sent <- t.datagrams_sent + 1;
  t.bytes_sent <- t.bytes_sent + Units.Size.to_bytes (Mmt_sim.Packet.wire_size packet);
  t.tx packet

let sender_stats (t : sender) : sender_stats =
  { datagrams_sent = t.datagrams_sent; bytes_sent = t.bytes_sent }

type receiver_stats = {
  datagrams_received : int;
  bytes_received : int;
  corrupted : int;
  decode_failures : int;
}

type receiver = {
  ring : Mmt_sim.Ring.t;
  deliver : src:Addr.Ip.t -> src_port:int -> Cursor.Reader.t -> unit;
  mutable datagrams_received : int;
  mutable bytes_received : int;
  mutable corrupted : int;
  mutable decode_failures : int;
}

let create_receiver ~ring ~deliver () =
  {
    ring;
    deliver;
    datagrams_received = 0;
    bytes_received = 0;
    corrupted = 0;
    decode_failures = 0;
  }

let consume (t : receiver) packet =
  if packet.Mmt_sim.Packet.corrupted then t.corrupted <- t.corrupted + 1
  else begin
    let frame = Mmt_sim.Packet.frame packet in
    match
      let r = Cursor.Reader.of_bytes frame in
      let ip = Ipv4.read r in
      let udp = Udp.read r in
      ( ip,
        udp,
        Cursor.Reader.of_bytes ~off:(Cursor.Reader.position r)
          ~len:udp.Udp.payload_length frame )
    with
    | exception _ -> t.decode_failures <- t.decode_failures + 1
    | ip, udp, payload ->
        if ip.Ipv4.protocol <> Ipv4.protocol_udp then
          t.decode_failures <- t.decode_failures + 1
        else begin
          t.datagrams_received <- t.datagrams_received + 1;
          t.bytes_received <-
            t.bytes_received + Units.Size.to_bytes (Mmt_sim.Packet.wire_size packet);
          t.deliver ~src:ip.Ipv4.src ~src_port:udp.Udp.src_port payload
        end
  end

let on_packet (t : receiver) packet =
  consume t packet;
  (* [deliver]'s payload view dies with the call. *)
  Mmt_sim.Ring.in_packet_done t.ring packet

let receiver_stats (t : receiver) : receiver_stats =
  {
    datagrams_received = t.datagrams_received;
    bytes_received = t.bytes_received;
    corrupted = t.corrupted;
    decode_failures = t.decode_failures;
  }

let receiver_goodput t ~over =
  Units.Rate.of_size_per_time (Units.Size.bytes t.bytes_received) over
