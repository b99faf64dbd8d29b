open Mmt_util
open Mmt_frame

type config = {
  sum_adc_threshold : int;
  subscribers : Addr.Ip.t list;
  min_gap : Units.Time.t;
}

type stats = {
  inspected : int;
  triggers_seen : int;
  alerts_emitted : int;
}

type t = {
  env : Mmt_runtime.Env.t;
  config : config;
  mutable inspected : int;
  mutable triggers_seen : int;
  mutable alerts_emitted : int;
  mutable last_alert : Units.Time.t option;
  mutable next_alert_id : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "alert-generator";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "kind";
        Op.Payload_access "fragment header + trigger primitives";
        Op.Compare "sum_adc";
        Op.Emit_digest "multi-domain-alert";
      ];
  }

let send_alert t ~(source : Mmt_daq.Fragment.t) ~total_charge =
  let now = Mmt_runtime.Env.now t.env in
  let alert_fragment =
    {
      Mmt_daq.Fragment.run = source.Mmt_daq.Fragment.run;
      trigger = source.Mmt_daq.Fragment.trigger;
      timestamp = now;
      experiment = source.Mmt_daq.Fragment.experiment;
      detector =
        Mmt_daq.Fragment.Telescope_alert
          {
            alert_id = t.next_alert_id;
            (* Placeholder sky coordinates derived from the trigger; a
               real deployment would reconstruct direction offline. *)
            ra_udeg = source.Mmt_daq.Fragment.trigger * 997 mod 0xFFFFFF;
            dec_udeg = source.Mmt_daq.Fragment.trigger * 991 mod 0xFFFFFF;
            severity = min 255 (total_charge / 10_000);
          };
      payload = Bytes.empty;
    }
  in
  t.next_alert_id <- t.next_alert_id + 1;
  let header =
    Mmt.Header.create ~experiment:source.Mmt_daq.Fragment.experiment ()
  in
  let length = Mmt_daq.Fragment.total_size alert_fragment in
  List.iter
    (fun subscriber ->
      let packet =
        Mmt.Encap.packet t.env
          (Mmt.Encap.Over_ipv4
             {
               src = t.env.Mmt_runtime.Env.local_ip;
               dst = subscriber;
               dscp = 46;
               ttl = 64;
             })
          header ~length
          (fun w -> Mmt_daq.Fragment.write w alert_fragment)
      in
      t.alerts_emitted <- t.alerts_emitted + 1;
      t.env.Mmt_runtime.Env.send subscriber packet)
    t.config.subscribers;
  t.last_alert <- Some now

let rate_limited t =
  match t.last_alert with
  | None -> false
  | Some last ->
      Units.Time.(
        Units.Time.diff (Mmt_runtime.Env.now t.env) last < t.config.min_gap)

let fragment_charge fragment =
  match Mmt_daq.Lartpc.deserialize_hits fragment.Mmt_daq.Fragment.payload with
  | Some hits ->
      Some
        (List.fold_left
           (fun acc (h : Mmt_daq.Lartpc.hit) -> acc + h.Mmt_daq.Lartpc.sum_adc)
           0 hits)
  | None -> None

let process t ~now:_ packet =
  let hv = Mmt.Header_vector.of_packet packet in
  (if
     Mmt.Header_vector.parsed hv
     && Mmt.Header_vector.kind hv = Mmt.Feature.Kind.Data
   then
     let payload_offset =
       Mmt.Header_vector.mmt_offset hv
       + Mmt.Header.View.size (Mmt.Header_vector.view hv)
     in
     match
       Mmt_daq.Fragment.read
         (Mmt_wire.Cursor.Reader.of_bytes ~off:payload_offset
            (Mmt_sim.Packet.frame packet))
     with
     | Error _ -> ()
     | Ok fragment -> (
         t.inspected <- t.inspected + 1;
         match fragment_charge fragment with
         | Some charge when charge >= t.config.sum_adc_threshold ->
             t.triggers_seen <- t.triggers_seen + 1;
             if not (rate_limited t) then
               send_alert t ~source:fragment ~total_charge:charge
         | Some _ | None -> ()));
  Element.Forward packet

let create ~env config =
  let rec t =
    {
      env;
      config;
      inspected = 0;
      triggers_seen = 0;
      alerts_emitted = 0;
      last_alert = None;
      next_alert_id = 0;
      element =
        lazy
          {
            Element.name = "alert-generator";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element

let stats t =
  {
    inspected = t.inspected;
    triggers_seen = t.triggers_seen;
    alerts_emitted = t.alerts_emitted;
  }
