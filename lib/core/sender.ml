open Mmt_util
open Mmt_frame
module Cursor = Mmt_wire.Cursor

type config = {
  experiment : Experiment_id.t;
  destination : Addr.Ip.t;
  encap : Encap.t;
  deadline_budget : (Units.Time.t * Addr.Ip.t) option;
}

type stats = {
  messages_sent : int;
  bytes_sent : int;
  backpressure_received : int;
  deadline_notices_received : int;
  current_pace : Units.Rate.t option;
  queued : int;
}

type t = {
  env : Mmt_runtime.Env.t;
  config : config;
  header : Header.Template.t Lazy.t;
      (* every message's header, compiled at the first send *)
  queue : (bytes * int) Queue.t;  (* written messages and their padding *)
  mutable pace : Units.Rate.t option;
  mutable drain_scheduled : bool;
  mutable next_departure : Units.Time.t;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable backpressure_received : int;
  mutable deadline_notices_received : int;
}

(* The header every message carries; only a timely deadline changes
   from one message to the next. *)
let header_for config ~now =
  let header = Header.mode0 ~experiment:config.experiment in
  match config.deadline_budget with
  | None -> header
  | Some (budget, notify) ->
      Header.with_timely header
        { Header.deadline = Units.Time.add now budget; notify }

let create ~env config =
  {
    env;
    config;
    header = lazy (Header.Template.make (header_for config ~now:Units.Time.zero));
    queue = Queue.create ();
    pace = None;
    drain_scheduled = false;
    next_departure = Units.Time.zero;
    messages_sent = 0;
    bytes_sent = 0;
    backpressure_received = 0;
    deadline_notices_received = 0;
  }

let transmit t ~padding ~length write =
  let deadline =
    match t.config.deadline_budget with
    | Some (budget, _) -> Units.Time.add (Mmt_runtime.Env.now t.env) budget
    | None -> Units.Time.zero
  in
  let packet =
    Encap.packet_of_template t.env ~padding t.config.encap (Lazy.force t.header)
      ~deadline
      ~length write
  in
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <-
    t.bytes_sent + Units.Size.to_bytes (Mmt_sim.Packet.wire_size packet);
  t.env.Mmt_runtime.Env.send t.config.destination packet

let transmit_queued t (payload, padding) =
  transmit t ~padding ~length:(Bytes.length payload) (fun w ->
      Cursor.Writer.bytes w payload)

let message_wire_size t (payload, padding) =
  (* The pacer's view of one message on the wire. *)
  let header_size = Header.Template.size (Lazy.force t.header) in
  Units.Size.bytes
    (Encap.overhead t.config.encap + header_size + Bytes.length payload + padding)

let rec drain t =
  t.drain_scheduled <- false;
  match Queue.peek_opt t.queue with
  | None -> ()
  | Some message -> (
      let now = Mmt_runtime.Env.now t.env in
      match t.pace with
      | None ->
          (* Pace was removed while queued: flush everything. *)
          Queue.iter (transmit_queued t) t.queue;
          Queue.clear t.queue
      | Some pace ->
          if Units.Time.(t.next_departure <= now) then begin
            ignore (Queue.pop t.queue);
            transmit_queued t message;
            let gap = Units.Rate.transmission_time pace (message_wire_size t message) in
            t.next_departure <- Units.Time.add now gap
          end;
          if not (Queue.is_empty t.queue) then schedule_drain t)

and schedule_drain t =
  if not t.drain_scheduled then begin
    t.drain_scheduled <- true;
    let now = Mmt_runtime.Env.now t.env in
    let delay = Units.Time.diff t.next_departure now in
    ignore (Mmt_runtime.Env.after t.env delay (fun () -> drain t))
  end

let send_with t ?(padding = 0) ~length write =
  match t.pace with
  | None when Queue.is_empty t.queue -> transmit t ~padding ~length write
  | _ ->
      (* The message waits: write it into its own buffer now, so
         nothing the caller lent is read after this call returns. *)
      let payload = Bytes.create length in
      if not (Cursor.Writer.writes_exactly (Cursor.Writer.over payload) length write)
      then
        invalid_arg
          (Printf.sprintf
             "Sender.send_with: writer did not fill exactly %d bytes" length);
      Queue.push (payload, padding) t.queue;
      schedule_drain t

let send t payload =
  send_with t ~length:(Bytes.length payload) (fun w ->
      Cursor.Writer.bytes w payload)

let on_control t header payload =
  match header.Header.kind with
  | Feature.Kind.Backpressure -> (
      match Control.Backpressure.decode payload with
      | Error _ -> ()
      | Ok bp ->
          t.backpressure_received <- t.backpressure_received + 1;
          if bp.Control.Backpressure.severity = 0 then t.pace <- None
          else
            t.pace <-
              Some
                (Units.Rate.mbps
                   (float_of_int bp.Control.Backpressure.advised_pace_mbps)))
  | Feature.Kind.Deadline_exceeded ->
      t.deadline_notices_received <- t.deadline_notices_received + 1
  | Feature.Kind.Data | Feature.Kind.Nak | Feature.Kind.Buffer_advert -> ()

let stats t =
  {
    messages_sent = t.messages_sent;
    bytes_sent = t.bytes_sent;
    backpressure_received = t.backpressure_received;
    deadline_notices_received = t.deadline_notices_received;
    current_pace = t.pace;
    queued = Queue.length t.queue;
  }

let config t = t.config
