open Mmt_util
module Cursor = Mmt_wire.Cursor

type detector =
  | Wib_ethernet of {
      crate : int;
      slot : int;
      fiber : int;
      first_channel : int;
      channel_count : int;
    }
  | Photon_detector of { module_id : int; sipm_count : int; gain : int }
  | Beam_instrument of { device : int; sample_rate_khz : int; adc_bits : int }
  | Telescope_alert of {
      alert_id : int;
      ra_udeg : int;
      dec_udeg : int;
      severity : int;
    }

type header = {
  run : int;
  trigger : int;
  timestamp : Units.Time.t;
  experiment : Mmt.Experiment_id.t;
  detector : detector;
  payload_length : int;
}

type t = {
  run : int;
  trigger : int;
  timestamp : Units.Time.t;
  experiment : Mmt.Experiment_id.t;
  detector : detector;
  payload : bytes;
}

let magic = 0xDA01
let header_size = 28
let subheader_size = 12

let total_size t = header_size + subheader_size + Bytes.length t.payload

let detector_kind_code = function
  | Wib_ethernet _ -> 1
  | Photon_detector _ -> 2
  | Beam_instrument _ -> 3
  | Telescope_alert _ -> 4

let encode_subheader w detector =
  match detector with
  | Wib_ethernet { crate; slot; fiber; first_channel; channel_count } ->
      Cursor.Writer.u8 w crate;
      Cursor.Writer.u8 w slot;
      Cursor.Writer.u8 w fiber;
      Cursor.Writer.u8 w 0;
      Cursor.Writer.u16 w first_channel;
      Cursor.Writer.u16 w channel_count;
      Cursor.Writer.u32 w 0l
  | Photon_detector { module_id; sipm_count; gain } ->
      Cursor.Writer.u16 w module_id;
      Cursor.Writer.u16 w sipm_count;
      Cursor.Writer.u32_int w gain;
      Cursor.Writer.u32 w 0l
  | Beam_instrument { device; sample_rate_khz; adc_bits } ->
      Cursor.Writer.u16 w device;
      Cursor.Writer.u16 w sample_rate_khz;
      Cursor.Writer.u8 w adc_bits;
      Cursor.Writer.u8 w 0;
      Cursor.Writer.u16 w 0;
      Cursor.Writer.u32 w 0l
  | Telescope_alert { alert_id; ra_udeg; dec_udeg; severity } ->
      Cursor.Writer.u32_int w alert_id;
      Cursor.Writer.u24 w (ra_udeg land 0xFFFFFF);
      Cursor.Writer.u24 w (dec_udeg land 0xFFFFFF);
      Cursor.Writer.u8 w severity;
      Cursor.Writer.u8 w 0

let decode_subheader r code =
  match code with
  | 1 ->
      let crate = Cursor.Reader.u8 r in
      let slot = Cursor.Reader.u8 r in
      let fiber = Cursor.Reader.u8 r in
      let _reserved = Cursor.Reader.u8 r in
      let first_channel = Cursor.Reader.u16 r in
      let channel_count = Cursor.Reader.u16 r in
      let _pad = Cursor.Reader.u32 r in
      Ok (Wib_ethernet { crate; slot; fiber; first_channel; channel_count })
  | 2 ->
      let module_id = Cursor.Reader.u16 r in
      let sipm_count = Cursor.Reader.u16 r in
      let gain = Cursor.Reader.u32_int r in
      let _pad = Cursor.Reader.u32 r in
      Ok (Photon_detector { module_id; sipm_count; gain })
  | 3 ->
      let device = Cursor.Reader.u16 r in
      let sample_rate_khz = Cursor.Reader.u16 r in
      let adc_bits = Cursor.Reader.u8 r in
      let _r1 = Cursor.Reader.u8 r in
      let _r2 = Cursor.Reader.u16 r in
      let _pad = Cursor.Reader.u32 r in
      Ok (Beam_instrument { device; sample_rate_khz; adc_bits })
  | 4 ->
      let alert_id = Cursor.Reader.u32_int r in
      let ra_udeg = Cursor.Reader.u24 r in
      let dec_udeg = Cursor.Reader.u24 r in
      let severity = Cursor.Reader.u8 r in
      let _pad = Cursor.Reader.u8 r in
      Ok (Telescope_alert { alert_id; ra_udeg; dec_udeg; severity })
  | other -> Error (Printf.sprintf "unknown detector kind %d" other)

let write ?(padding = 0) w t =
  Cursor.Writer.u16 w magic;
  Cursor.Writer.u8 w 1 (* format version *);
  Cursor.Writer.u8 w (detector_kind_code t.detector);
  Cursor.Writer.u32_int w t.run;
  Cursor.Writer.u32_int w t.trigger;
  Cursor.Writer.u64 w (Units.Time.to_int64_ns t.timestamp);
  Cursor.Writer.u32 w (Mmt.Experiment_id.to_int32 t.experiment);
  Cursor.Writer.u32_int w (Bytes.length t.payload + padding);
  encode_subheader w t.detector;
  Cursor.Writer.bytes w t.payload

let encode t =
  let buf = Bytes.create (total_size t) in
  write (Cursor.Writer.over buf) t;
  buf

let read_header r =
  match
    let seen_magic = Cursor.Reader.u16 r in
    if seen_magic <> magic then Error "bad fragment magic"
    else begin
      let version = Cursor.Reader.u8 r in
      if version <> 1 then Error (Printf.sprintf "unknown fragment version %d" version)
      else begin
        let kind_code = Cursor.Reader.u8 r in
        let run = Cursor.Reader.u32_int r in
        let trigger = Cursor.Reader.u32_int r in
        let timestamp = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
        let experiment = Mmt.Experiment_id.of_int32 (Cursor.Reader.u32 r) in
        let payload_length = Cursor.Reader.u32_int r in
        match decode_subheader r kind_code with
        | Error _ as e -> e
        | Ok detector ->
            if Cursor.Reader.remaining r < payload_length then
              Error "fragment payload truncated"
            else
              Ok
                ({ run; trigger; timestamp; experiment; detector; payload_length }
                  : header)
      end
    end
  with
  | result -> result
  | exception Cursor.Out_of_bounds _ -> Error "truncated fragment"

let read r =
  Result.bind (read_header r) (fun (h : header) ->
      match Cursor.Reader.take r h.payload_length with
      | payload ->
          Ok
            {
              run = h.run;
              trigger = h.trigger;
              timestamp = h.timestamp;
              experiment = h.experiment;
              detector = h.detector;
              payload;
            }
      | exception Cursor.Out_of_bounds _ -> Error "fragment payload is virtual")

let decode buf = read (Cursor.Reader.of_bytes buf)

let equal a b =
  a.run = b.run && a.trigger = b.trigger
  && Units.Time.equal a.timestamp b.timestamp
  && Mmt.Experiment_id.equal a.experiment b.experiment
  && a.detector = b.detector
  && Bytes.equal a.payload b.payload

let pp fmt t =
  let detector_name =
    match t.detector with
    | Wib_ethernet _ -> "wib-ethernet"
    | Photon_detector _ -> "photon-detector"
    | Beam_instrument _ -> "beam-instrument"
    | Telescope_alert _ -> "telescope-alert"
  in
  Format.fprintf fmt "fragment{run %d, trigger %d, %a, %s, %dB}" t.run t.trigger
    Mmt.Experiment_id.pp t.experiment detector_name (Bytes.length t.payload)
