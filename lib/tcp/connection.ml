open Mmt_util

type config = {
  mss : int;
  initial_window : int;
  max_window : int;
  algorithm : Congestion.algorithm;
  min_rto : Units.Time.t;
  max_rto : Units.Time.t;
}

let default_config =
  {
    mss = 1448;
    initial_window = 4 * 1448;
    max_window = 64 * 1024;
    algorithm = Congestion.Reno;
    min_rto = Units.Time.ms 200.;
    max_rto = Units.Time.seconds 60.;
  }

let tuned_config ~bdp =
  let mss = 8948 (* jumbo frames *) in
  {
    mss;
    initial_window = 10 * mss;
    max_window = max (64 * 1024) (2 * Units.Size.to_bytes bdp);
    algorithm = Congestion.Cubic;
    min_rto = Units.Time.ms 20.;
    max_rto = Units.Time.seconds 10.;
  }

type stats = {
  bytes_written : int;
  bytes_acked : int;
  bytes_delivered : int;
  segments_sent : int;
  retransmits : int;
  fast_retransmits : int;
  timeouts : int;
  duplicate_acks : int;
  out_of_order_segments : int;
  srtt : Units.Time.t option;
  cwnd : int;
  completed_at : Units.Time.t option;
}

(* Unacknowledged segments, oldest first, in a growable circular buffer
   of parallel int arrays, so a segment in flight owns no heap block.  A
   record and a queue cell per segment would each live an RTT; a
   DTN-tuned window holds tens of thousands of them, which overflows the
   major GC's mark stack, and the overflow handling depends on addresses,
   so GC work and the heap peak would vary from run to run. *)
module Unacked = struct
  type t = {
    mutable seq : int array;
    mutable len : int array;
    mutable sent_at : Units.Time.t array;
    mutable retx : int array;
    (* the connection's retransmit counter when (re)sent; RTT samples
       are only taken when no retransmission happened in between
       (extended Karn rule), since cumulative ACKs released by a
       hole-fill would otherwise yield wildly stale samples *)
    mutable retx_epoch : int array;
    mutable head : int; (* index of the oldest segment *)
    mutable length : int;
  }

  let create () =
    {
      seq = Array.make 16 0;
      len = Array.make 16 0;
      sent_at = Array.make 16 Units.Time.zero;
      retx = Array.make 16 0;
      retx_epoch = Array.make 16 0;
      head = 0;
      length = 0;
    }

  let is_empty u = u.length = 0

  let[@inline] wrap u i =
    if i >= Array.length u.seq then i - Array.length u.seq else i

  (* Full: unroll into arrays twice the size. *)
  let grow u =
    let cap = Array.length u.seq in
    let unroll a =
      let b = Array.make (2 * cap) a.(0) in
      Array.blit a u.head b 0 (cap - u.head);
      Array.blit a 0 b (cap - u.head) u.head;
      b
    in
    u.seq <- unroll u.seq;
    u.len <- unroll u.len;
    u.sent_at <- unroll u.sent_at;
    u.retx <- unroll u.retx;
    u.retx_epoch <- unroll u.retx_epoch;
    u.head <- 0

  let push u ~seq ~len ~sent_at ~retx_epoch =
    if u.length = Array.length u.seq then grow u;
    let i = wrap u (u.head + u.length) in
    u.seq.(i) <- seq;
    u.len.(i) <- len;
    u.sent_at.(i) <- sent_at;
    u.retx.(i) <- 0;
    u.retx_epoch.(i) <- retx_epoch;
    u.length <- u.length + 1

  let drop_head u =
    u.head <- wrap u (u.head + 1);
    u.length <- u.length - 1
end

type t = {
  engine : Mmt_sim.Engine.t;
  ring : Mmt_sim.Ring.t;
  fresh_id : unit -> int;
  config : config;
  port : int;
  tx : Mmt_sim.Packet.t -> unit;
  deliver : int -> unit;
  cc : Congestion.t;
  (* sender state *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable write_total : int;  (* bytes the app has written *)
  mutable finished : bool;
  unacked : Unacked.t;
  mutable dupacks : int;
  mutable recover : int;  (* fast-recovery high-water mark *)
  mutable in_recovery : bool;
  mutable peer_window : int;
  (* RTT estimation (RFC 6298) *)
  mutable srtt : float option;  (* seconds *)
  mutable rttvar : float;
  mutable rto : Units.Time.t;
  mutable rto_timer : Mmt_sim.Engine.handle;
  mutable on_rto : unit -> unit;  (* preallocated; set in create *)
  (* receiver state *)
  mutable rcv_nxt : int;
  ooo : (int, int) Hashtbl.t;  (* out-of-order: seq -> len *)
  (* accounting *)
  mutable bytes_delivered : int;
  mutable segments_sent : int;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable duplicate_acks : int;
  mutable out_of_order_segments : int;
  mutable completed_at : Units.Time.t option;
}

let now t = Mmt_sim.Engine.now t.engine

(* A header-only ring frame: the logical payload length rides in the
   packet's padding, so segments never materialize content bytes. *)
let segment t ~seq ~padding =
  let packet =
    Mmt_sim.Ring.in_packet t.ring ~padding ~id:(t.fresh_id ()) ~born:(now t)
      Segment.header_size
  in
  Segment.write (Mmt_sim.Packet.frame packet) ~flags:Segment.ack_only
    ~src_port:t.port ~dst_port:t.port ~seq ~ack:t.rcv_nxt
    ~window:t.config.max_window ~length:0;
  packet

let send_segment t ~seq ~len ~retransmission =
  let packet = segment t ~seq ~padding:len in
  t.segments_sent <- t.segments_sent + 1;
  if retransmission then t.retransmits <- t.retransmits + 1;
  t.tx packet

let send_pure_ack t = t.tx (segment t ~seq:0 ~padding:0)

(* RTO management ------------------------------------------------------ *)

let cancel_rto t =
  Mmt_sim.Engine.cancel t.engine t.rto_timer;
  t.rto_timer <- Mmt_sim.Engine.null

let update_rto_estimate t ~sample_s =
  (match t.srtt with
  | None ->
      t.srtt <- Some sample_s;
      t.rttvar <- sample_s /. 2.
  | Some srtt ->
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (srtt -. sample_s));
      t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. sample_s)));
  let srtt = Option.value ~default:sample_s t.srtt in
  let raw = srtt +. Float.max 0.001 (4. *. t.rttvar) in
  t.rto <-
    Units.Time.max t.config.min_rto
      (Units.Time.min t.config.max_rto (Units.Time.seconds raw))

(* Resend the oldest unacknowledged segment; there must be one. *)
let resend_head t =
  let u = t.unacked in
  let h = u.head in
  u.retx.(h) <- u.retx.(h) + 1;
  u.sent_at.(h) <- now t;
  send_segment t ~seq:u.seq.(h) ~len:u.len.(h) ~retransmission:true;
  u.retx_epoch.(h) <- t.retransmits

let rec arm_rto t =
  cancel_rto t;
  if not (Unacked.is_empty t.unacked) then
    t.rto_timer <- Mmt_sim.Engine.schedule_after t.engine ~delay:t.rto t.on_rto

and on_rto t =
  t.rto_timer <- Mmt_sim.Engine.null;
  if not (Unacked.is_empty t.unacked) then begin
    t.timeouts <- t.timeouts + 1;
    resend_head t;
    Congestion.on_timeout t.cc ~now:(now t);
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    t.rto <- Units.Time.min t.config.max_rto (Units.Time.scale t.rto 2.);
    t.dupacks <- 0;
    arm_rto t
  end

let create ~engine ~ring ~fresh_id ~config ?(port = 1) ~tx
    ?(deliver = fun _ -> ()) () =
  let t =
    {
      engine;
      ring;
      fresh_id;
      config;
      port;
      tx;
      deliver;
      cc =
        Congestion.create config.algorithm ~mss:config.mss
          ~initial_window:config.initial_window ~max_window:config.max_window;
      snd_una = 0;
      snd_nxt = 0;
      write_total = 0;
      finished = false;
      unacked = Unacked.create ();
      dupacks = 0;
      recover = 0;
      in_recovery = false;
      peer_window = config.max_window;
      srtt = None;
      rttvar = 0.;
      rto = config.min_rto;
      rto_timer = Mmt_sim.Engine.null;
      on_rto = ignore;
      rcv_nxt = 0;
      ooo = Hashtbl.create 64;
      bytes_delivered = 0;
      segments_sent = 0;
      retransmits = 0;
      fast_retransmits = 0;
      timeouts = 0;
      duplicate_acks = 0;
      out_of_order_segments = 0;
      completed_at = None;
    }
  in
  t.on_rto <- (fun () -> on_rto t);
  t

(* Sender pump --------------------------------------------------------- *)

let in_flight t = t.snd_nxt - t.snd_una

let effective_window t = min (Congestion.window t.cc) t.peer_window

let rec pump t =
  let available = t.write_total - t.snd_nxt in
  if available > 0 && in_flight t < effective_window t then begin
    let len = min t.config.mss available in
    let len = min len (effective_window t - in_flight t) in
    if len > 0 then begin
      let seq = t.snd_nxt in
      send_segment t ~seq ~len ~retransmission:false;
      Unacked.push t.unacked ~seq ~len ~sent_at:(now t)
        ~retx_epoch:t.retransmits;
      t.snd_nxt <- t.snd_nxt + len;
      if t.rto_timer = Mmt_sim.Engine.null then arm_rto t;
      pump t
    end
  end

let write t n =
  if n < 0 then invalid_arg "Connection.write: negative length";
  t.write_total <- t.write_total + n;
  pump t

let finish t =
  t.finished <- true;
  if t.snd_una = t.write_total && t.completed_at = None then
    t.completed_at <- Some (now t)

(* ACK processing (sender side) ---------------------------------------- *)

let retransmit_head t =
  if not (Unacked.is_empty t.unacked) then resend_head t

let fast_retransmit t =
  t.fast_retransmits <- t.fast_retransmits + 1;
  retransmit_head t;
  Congestion.on_fast_retransmit t.cc ~now:(now t);
  t.in_recovery <- true;
  t.recover <- t.snd_nxt

let handle_ack t ~ack ~window =
  t.peer_window <- window;
  if ack > t.snd_una then begin
    let acked = ack - t.snd_una in
    t.snd_una <- ack;
    t.dupacks <- 0;
    (* Retire covered segments; sample RTT from a never-retransmitted
       one (Karn's rule). *)
    let u = t.unacked in
    let rtt_sample = ref None in
    while
      (not (Unacked.is_empty u))
      && u.seq.(u.head) + u.len.(u.head) <= ack
    do
      let h = u.head in
      if u.retx.(h) = 0 && u.retx_epoch.(h) = t.retransmits then begin
        let sample =
          Units.Time.to_float_s (Units.Time.diff (now t) u.sent_at.(h))
        in
        if sample > 0. then begin
          update_rto_estimate t ~sample_s:sample;
          rtt_sample := Some sample
        end
      end;
      Unacked.drop_head u
    done;
    (* NewReno partial ACK: still inside the recovery window means the
       next hole starts at the new head — retransmit it immediately
       rather than waiting out an RTO per hole. *)
    if t.in_recovery then begin
      if ack >= t.recover then t.in_recovery <- false
      else begin
        retransmit_head t
      end
    end;
    Congestion.on_ack ?rtt_sample:!rtt_sample t.cc ~acked ~now:(now t);
    if Unacked.is_empty t.unacked then cancel_rto t else arm_rto t;
    if t.finished && t.snd_una = t.write_total && t.completed_at = None then
      t.completed_at <- Some (now t);
    pump t
  end
  else if ack = t.snd_una && t.snd_nxt > t.snd_una then begin
    t.duplicate_acks <- t.duplicate_acks + 1;
    t.dupacks <- t.dupacks + 1;
    (* NewReno-style guard: one fast retransmit per window of data. *)
    if t.dupacks = 3 && ack >= t.recover then fast_retransmit t
  end

(* Data processing (receiver side) -------------------------------------- *)

let drain_ooo t =
  let progressed = ref true in
  while !progressed do
    match Hashtbl.find_opt t.ooo t.rcv_nxt with
    | Some len ->
        Hashtbl.remove t.ooo t.rcv_nxt;
        t.rcv_nxt <- t.rcv_nxt + len;
        t.bytes_delivered <- t.bytes_delivered + len;
        t.deliver len
    | None -> progressed := false
  done

let handle_data t ~seq ~len =
  if len > 0 then begin
    if seq = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + len;
      t.bytes_delivered <- t.bytes_delivered + len;
      t.deliver len;
      drain_ooo t
    end
    else if seq > t.rcv_nxt then begin
      t.out_of_order_segments <- t.out_of_order_segments + 1;
      if not (Hashtbl.mem t.ooo seq) then Hashtbl.replace t.ooo seq len
    end;
    (* else: duplicate of already-delivered data; just re-ACK. *)
    send_pure_ack t
  end

let consume t packet =
  let frame = Mmt_sim.Packet.frame packet in
  if not packet.Mmt_sim.Packet.corrupted then
    match Segment.check frame with
    | Error _ -> ()
    | Ok () when Segment.dst_port frame = t.port ->
        let len = packet.Mmt_sim.Packet.padding in
        if len > 0 then handle_data t ~seq:(Segment.seq frame) ~len
        else if (Segment.flags frame).Segment.ack then
          handle_ack t ~ack:(Segment.ack frame) ~window:(Segment.window frame)
    | Ok () -> ()

let on_packet t packet =
  consume t packet;
  (* Nothing the connection keeps points into the frame. *)
  Mmt_sim.Ring.in_packet_done t.ring packet

let dispatch ~ring connections =
  let by_port = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace by_port c.port c) connections;
  fun packet ->
    let frame = Mmt_sim.Packet.frame packet in
    match Segment.check frame with
    | Ok () -> (
        match Hashtbl.find by_port (Segment.dst_port frame) with
        | c -> on_packet c packet
        | exception Not_found -> Mmt_sim.Ring.in_packet_done ring packet)
    | Error _ -> Mmt_sim.Ring.in_packet_done ring packet

let stats t =
  {
    bytes_written = t.write_total;
    bytes_acked = t.snd_una;
    bytes_delivered = t.bytes_delivered;
    segments_sent = t.segments_sent;
    retransmits = t.retransmits;
    fast_retransmits = t.fast_retransmits;
    timeouts = t.timeouts;
    duplicate_acks = t.duplicate_acks;
    out_of_order_segments = t.out_of_order_segments;
    srtt = Option.map Units.Time.seconds t.srtt;
    cwnd = Congestion.window t.cc;
    completed_at = t.completed_at;
  }

let config t = t.config
let rto t = t.rto
