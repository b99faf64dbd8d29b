open Mmt_frame

type stats = {
  naks_received : int;
  frames_resent : int;
  escalated : int;
  unserviceable : int;
  buffer : Retx_buffer.stats;
}

type t = {
  env : Mmt_runtime.Env.t;
  buffer : Retx_buffer.t;
  upstream : Addr.Ip.t option;
  mutable naks_received : int;
  mutable frames_resent : int;
  mutable escalated : int;
  mutable unserviceable : int;
}

let create ~env ~capacity ?upstream () =
  {
    env;
    buffer = Retx_buffer.create ~capacity;
    upstream;
    naks_received = 0;
    frames_resent = 0;
    escalated = 0;
    unserviceable = 0;
  }

let store t ~seq ~born frame = Retx_buffer.store t.buffer ~seq ~born frame

let store_packet t ~seq packet =
  Retx_buffer.store t.buffer ~seq ~born:packet.Mmt_sim.Packet.born
    ~padding:packet.Mmt_sim.Packet.padding (Mmt_sim.Packet.frame packet)

let resend t ~requester (entry : Retx_buffer.entry) =
  (* Preserve the original birth time: a recovered message's latency is
     end-to-end, not resend-to-delivery. *)
  let len = entry.Retx_buffer.len in
  let packet =
    Mmt_sim.Ring.in_packet t.env.Mmt_runtime.Env.ring
      ~padding:entry.Retx_buffer.padding
      ~id:(t.env.Mmt_runtime.Env.fresh_id ())
      ~born:entry.Retx_buffer.born len
  in
  Bytes.blit entry.Retx_buffer.chunk entry.Retx_buffer.off
    (Mmt_sim.Packet.frame packet) 0 len;
  t.frames_resent <- t.frames_resent + 1;
  t.env.Mmt_runtime.Env.send requester packet

let escalate t ~requester seqs =
  match (t.upstream, seqs) with
  | _, [] -> ()
  | None, seqs -> t.unserviceable <- t.unserviceable + List.length seqs
  | Some upstream, seqs ->
      t.escalated <- t.escalated + List.length seqs;
      let nak =
        {
          Control.Nak.requester;
          ranges = Control.Nak.ranges_of_sorted (List.sort compare seqs);
        }
      in
      Control.send t.env ~dst:upstream Feature.Kind.Nak (Control.Nak.encode nak)

let handle_nak t nak =
  t.naks_received <- t.naks_received + 1;
  let missing = ref [] in
  List.iter
    (fun (first, last) ->
      for seq = first to last do
        match Retx_buffer.fetch t.buffer ~seq with
        | Some entry -> resend t ~requester:nak.Control.Nak.requester entry
        | None -> missing := seq :: !missing
      done)
    nak.Control.Nak.ranges;
  escalate t ~requester:nak.Control.Nak.requester (List.rev !missing)

let on_packet t packet =
  (if not packet.Mmt_sim.Packet.corrupted then
     match Encap.parse (Mmt_sim.Packet.frame packet) with
     | Ok (header, payload) when header.Header.kind = Feature.Kind.Nak -> (
         match Control.Nak.decode (Mmt_wire.Cursor.Reader.rest payload) with
         | Error _ -> ()
         | Ok nak -> handle_nak t nak)
     | Ok _ | Error _ -> ());
  (* The buffer host consumes whatever reaches it (NAKs and strays). *)
  Mmt_runtime.Env.retire t.env packet

let advert t ~rtt_hint =
  {
    Control.Buffer_advert.buffer = t.env.Mmt_runtime.Env.local_ip;
    capacity = Retx_buffer.capacity t.buffer;
    rtt_hint;
  }

let stats t =
  {
    naks_received = t.naks_received;
    frames_resent = t.frames_resent;
    escalated = t.escalated;
    unserviceable = t.unserviceable;
    buffer = Retx_buffer.stats t.buffer;
  }
