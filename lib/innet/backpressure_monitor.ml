open Mmt_util

type config = {
  high_watermark : Units.Size.t;
  low_watermark : Units.Size.t;
  advised_pace_mbps : int;
  min_signal_gap : Units.Time.t;
}

type stats = { signals_sent : int; clears_sent : int; congested : bool }

type t = {
  env : Mmt_runtime.Env.t;
  config : config;
  queue_depth : unit -> Units.Size.t;
  mutable congested : bool;
  mutable last_signal : Units.Time.t option;
  mutable signals_sent : int;
  mutable clears_sent : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "backpressure-monitor";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "features.backpressured";
        Op.Extract "backpressure_to";
        Op.Register_read "queue_depth";
        Op.Compare "watermark";
        Op.Register_read "last_signal";
        Op.Register_write "last_signal";
        Op.Emit_digest "backpressure";
      ];
  }

let send_signal t ~dst ~severity =
  let message =
    {
      Mmt.Control.Backpressure.origin = t.env.Mmt_runtime.Env.local_ip;
      advised_pace_mbps = t.config.advised_pace_mbps;
      severity;
    }
  in
  Mmt.Control.send t.env ~dst Mmt.Feature.Kind.Backpressure
    (Mmt.Control.Backpressure.encode message)

let rate_limited t now =
  match t.last_signal with
  | None -> false
  | Some last -> Units.Time.(Units.Time.diff now last < t.config.min_signal_gap)

let process t ~now packet =
  let hv = Mmt.Header_vector.of_packet packet in
  let view = Mmt.Header_vector.view hv in
  if
    Mmt.Header_vector.parsed hv
    && Mmt.Header.View.has view Mmt.Feature.Backpressured
  then begin
    let control_addr = Mmt.Header.View.backpressure_to view in
    let depth = Units.Size.to_bytes (t.queue_depth ()) in
    let high = Units.Size.to_bytes t.config.high_watermark in
    let low = Units.Size.to_bytes t.config.low_watermark in
    if depth > high && not (rate_limited t now) then begin
      let severity = min 255 (100 + (100 * (depth - high) / max 1 high)) in
      send_signal t ~dst:control_addr ~severity;
      t.signals_sent <- t.signals_sent + 1;
      t.congested <- true;
      t.last_signal <- Some now
    end
    else if t.congested && depth < low then begin
      send_signal t ~dst:control_addr ~severity:0;
      t.clears_sent <- t.clears_sent + 1;
      t.congested <- false;
      t.last_signal <- Some now
    end
  end;
  Element.Forward packet

let create ~env config ~queue_depth () =
  if Units.Size.compare config.low_watermark config.high_watermark > 0 then
    invalid_arg "Backpressure_monitor.create: low watermark above high";
  let rec t =
    {
      env;
      config;
      queue_depth;
      congested = false;
      last_signal = None;
      signals_sent = 0;
      clears_sent = 0;
      element =
        lazy
          {
            Element.name = "backpressure-monitor";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element

let stats t =
  { signals_sent = t.signals_sent; clears_sent = t.clears_sent; congested = t.congested }
