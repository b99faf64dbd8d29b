open Mmt_util
open Mmt_frame

type stats = {
  adverts_sent : int;
  adverts_received : int;
  gossip_forwarded : int;
}

type t = {
  env : Mmt_runtime.Env.t;
  period : Units.Time.t;
  peers : Addr.Ip.t list;
  map : Resource_map.t;
  mutable providers : (unit -> Mmt.Control.Buffer_advert.t option) list;
  mutable running : bool;
  mutable blackholed : bool;
  mutable adverts_sent : int;
  mutable adverts_received : int;
  mutable gossip_forwarded : int;
  (* buffers whose advert this node has re-gossiped: each is forwarded
     once, even if it expires and is learned again *)
  gossiped : (Addr.Ip.t, unit) Hashtbl.t;
}

let create ~env ~period ~peers () =
  {
    env;
    period;
    peers;
    map = Resource_map.create ~ttl:(Units.Time.scale period 4.) ();
    providers = [];
    running = false;
    blackholed = false;
    adverts_sent = 0;
    adverts_received = 0;
    gossip_forwarded = 0;
    gossiped = Hashtbl.create 8;
  }

let add_local t provider = t.providers <- provider :: t.providers

let send_advert t ~dst advert =
  Mmt.Control.send t.env ~dst Mmt.Feature.Kind.Buffer_advert
    (Mmt.Control.Buffer_advert.encode advert)

let broadcast t advert =
  List.iter
    (fun peer ->
      t.adverts_sent <- t.adverts_sent + 1;
      send_advert t ~dst:peer advert)
    t.peers

let rec round t =
  if t.running then begin
    let now = Mmt_runtime.Env.now t.env in
    (* Advertise local resources; refresh them in our own map too.
       A blackholed control plane sends and learns nothing — but time
       still passes, so soft state genuinely expires below. *)
    if not t.blackholed then
      List.iter
        (fun provider ->
          match provider () with
          | Some advert ->
              Resource_map.learn t.map ~now advert;
              broadcast t advert
          | None -> ())
        t.providers;
    ignore (Resource_map.expire t.map ~now);
    ignore (Mmt_runtime.Env.after t.env t.period (fun () -> round t))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    round t
  end

let stop t = t.running <- false
let set_blackholed t blackholed = t.blackholed <- blackholed
let blackholed t = t.blackholed

let on_packet t packet =
  if (not packet.Mmt_sim.Packet.corrupted) && not t.blackholed then
    match Mmt.Encap.parse (Mmt_sim.Packet.frame packet) with
    | Ok (header, payload)
      when header.Mmt.Header.kind = Mmt.Feature.Kind.Buffer_advert -> (
        match
          Mmt.Control.Buffer_advert.decode (Mmt_wire.Cursor.Reader.rest payload)
        with
        | Error _ -> ()
        | Ok advert ->
            t.adverts_received <- t.adverts_received + 1;
            let now = Mmt_runtime.Env.now t.env in
            let key = advert.Mmt.Control.Buffer_advert.buffer in
            let fresh = Resource_map.lookup t.map key = None in
            Resource_map.learn t.map ~now advert;
            (* Re-gossip a newly learned resource, one hop. *)
            if fresh && not (Hashtbl.mem t.gossiped key) then begin
              Hashtbl.replace t.gossiped key ();
              t.gossip_forwarded <- t.gossip_forwarded + 1;
              broadcast t advert
            end)
    | Ok _ | Error _ -> ()

let map t = t.map

let best_buffer t =
  Resource_map.best_buffer t.map ~now:(Mmt_runtime.Env.now t.env)

let stats t =
  {
    adverts_sent = t.adverts_sent;
    adverts_received = t.adverts_received;
    gossip_forwarded = t.gossip_forwarded;
  }
