open Mmt_util
open Mmt_frame
module Cursor = Mmt_wire.Cursor
module Gauge = Mmt_telemetry.Gauge

type config = {
  experiment : Experiment_id.t;
  nak_delay : Units.Time.t;
  nak_retry_timeout : Units.Time.t;
  max_nak_retries : int;
  expected_total : int option;
}

type meta = {
  sequence : int option;
  arrival : Units.Time.t;
  transport_latency : Units.Time.t;
  recovered : bool;
  late : bool;
  aged : bool;
  age_us : int option;
}

type stats = {
  delivered : int;
  delivered_bytes : int;
  duplicates : int;
  corrupted : int;
  checksum_failed : int;
  implausible : int;
  unsequenced : int;
  gaps_detected : int;
  recovered : int;
  lost : int;
  unrecoverable : int;
  naks_sent : int;
  nak_sequences_requested : int;
  late : int;
  aged : int;
  deadline_notices_sent : int;
  out_of_order : int;
  source_updates : int;  (* retargeted by buffer advertisements *)
  resurrected : int;
      (* abandoned gaps a straggler retransmission delivered anyway *)
  first_arrival : Units.Time.t option;
  last_arrival : Units.Time.t option;
  completion : Units.Time.t option;
  still_missing : int;
  nak_state_high_water : int;
}

type gap = { mutable retries : int; mutable last_nak : Units.Time.t option }

(* Plausibility bound on the per-packet gap span.  A sequence number is
   attacker- (or bit-flip-) controlled input: accepting one far beyond
   the frontier would open millions of tracked gaps and NAK them all.
   Nothing reorders by anywhere near this much in practice, so a frame
   implying a wider jump is discarded as corrupt and, if it was real,
   recovered like any other loss once honest frames advance the
   frontier. *)
let max_gap_span = 1 lsl 16

type t = {
  env : Mmt_runtime.Env.t;
  config : config;
  deliver : meta -> Cursor.Reader.t -> unit;
  hv : Header_vector.t Lazy.t;
      (* its own vector, made at the first packet: nothing the data path
         calls out to re-aims it *)
  received : (int, unit) Hashtbl.t;
  missing : (int, gap) Hashtbl.t;
  nak_state : Gauge.t;
      (* occupancy of [missing]: the receiver's recovery soft state *)
  given_up : (int, unit) Hashtbl.t;
  mutable next_expected : int option;
  mutable retransmit_source : Addr.Ip.t option;
  mutable flush_scheduled : bool;
  mutable tail_timer : Mmt_sim.Engine.handle;
  latencies : Stats.Summary.t;
  ages : Stats.Summary.t;
  mutable delivered : int;
  mutable delivered_bytes : int;
  mutable duplicates : int;
  mutable corrupted : int;
  mutable checksum_failed : int;
  mutable implausible : int;
  mutable unsequenced : int;
  mutable gaps_detected : int;
  mutable recovered : int;
  mutable lost : int;
  mutable unrecoverable : int;
  mutable naks_sent : int;
  mutable nak_sequences_requested : int;
  mutable late : int;
  mutable aged : int;
  mutable deadline_notices_sent : int;
  mutable out_of_order : int;
  mutable source_updates : int;
  mutable resurrected : int;
  mutable first_arrival : Units.Time.t option;
  mutable last_arrival : Units.Time.t option;
  mutable completion : Units.Time.t option;
}

let create ~env config ~deliver =
  {
    env;
    config;
    deliver;
    hv = lazy (Header_vector.create ());
    received = Hashtbl.create 64;
    missing = Hashtbl.create 64;
    nak_state = Gauge.create ();
    given_up = Hashtbl.create 16;
    next_expected = None;
    retransmit_source = None;
    flush_scheduled = false;
    tail_timer = Mmt_sim.Engine.null;
    latencies = Stats.Summary.create ();
    ages = Stats.Summary.create ();
    delivered = 0;
    delivered_bytes = 0;
    duplicates = 0;
    corrupted = 0;
    checksum_failed = 0;
    implausible = 0;
    unsequenced = 0;
    gaps_detected = 0;
    recovered = 0;
    lost = 0;
    unrecoverable = 0;
    naks_sent = 0;
    nak_sequences_requested = 0;
    late = 0;
    aged = 0;
    deadline_notices_sent = 0;
    out_of_order = 0;
    source_updates = 0;
    resurrected = 0;
    first_arrival = None;
    last_arrival = None;
    completion = None;
  }

(* NAK machinery ------------------------------------------------------- *)

let sample_nak_state t = Gauge.set t.nak_state (Hashtbl.length t.missing)

let rec flush_naks t =
  t.flush_scheduled <- false;
  let now = Mmt_runtime.Env.now t.env in
  (* Retire hopeless gaps, collect the ones due for a (re-)NAK. *)
  let due = ref [] in
  let abandoned = ref [] in
  Hashtbl.iter
    (fun seq gap ->
      let nak_due =
        match gap.last_nak with
        | None -> true
        | Some last -> Units.Time.(Units.Time.diff now last >= t.config.nak_retry_timeout)
      in
      if nak_due then
        if gap.retries >= t.config.max_nak_retries then abandoned := seq :: !abandoned
        else due := seq :: !due)
    t.missing;
  List.iter
    (fun seq ->
      Hashtbl.remove t.missing seq;
      Hashtbl.replace t.given_up seq ();
      t.lost <- t.lost + 1)
    !abandoned;
  (match (!due, t.retransmit_source) with
  | [], _ -> ()
  | seqs, None ->
      (* No buffer named in any header seen so far: nothing to NAK. *)
      List.iter
        (fun seq ->
          Hashtbl.remove t.missing seq;
          t.unrecoverable <- t.unrecoverable + 1)
        seqs
  | seqs, Some buffer ->
      let sorted = List.sort compare seqs in
      let ranges = Control.Nak.ranges_of_sorted sorted in
      let nak =
        { Control.Nak.requester = t.env.Mmt_runtime.Env.local_ip; ranges }
      in
      Control.send t.env ~experiment:t.config.experiment ~dst:buffer
        Feature.Kind.Nak (Control.Nak.encode nak);
      t.naks_sent <- t.naks_sent + 1;
      t.nak_sequences_requested <-
        t.nak_sequences_requested + Control.Nak.sequence_count nak;
      List.iter
        (fun seq ->
          match Hashtbl.find_opt t.missing seq with
          | None -> ()
          | Some gap ->
              gap.retries <- gap.retries + 1;
              gap.last_nak <- Some now)
        sorted);
  sample_nak_state t;
  if Hashtbl.length t.missing > 0 then schedule_flush t t.config.nak_retry_timeout

and schedule_flush t delay =
  if not t.flush_scheduled then begin
    t.flush_scheduled <- true;
    ignore (Mmt_runtime.Env.after t.env delay (fun () -> flush_naks t))
  end

(* Tail-loss detection --------------------------------------------------

   A gap is only visible when a later sequence arrives; losses at the
   very end of a stream would go unnoticed.  When the expected total is
   known, a quiescence timer re-armed on every arrival declares the
   unseen tail missing and NAKs it. *)

let tail_timeout t =
  Units.Time.max t.config.nak_retry_timeout (Units.Time.scale t.config.nak_delay 4.)

let rec arm_tail_check t =
  Mmt_sim.Engine.cancel t.env.Mmt_runtime.Env.engine t.tail_timer;
  t.tail_timer <- Mmt_sim.Engine.null;
  match (t.config.expected_total, t.completion) with
  | Some _, None ->
      t.tail_timer <-
        Mmt_runtime.Env.after t.env (tail_timeout t) (fun () ->
            t.tail_timer <- Mmt_sim.Engine.null;
            tail_check t)
  | _ -> ()

and tail_check t =
  match (t.config.expected_total, t.completion, t.next_expected) with
  | Some total, None, Some next_expected ->
      let unseen =
        total - t.delivered - Hashtbl.length t.missing - Hashtbl.length t.given_up
      in
      if unseen > 0 then begin
        for seq = next_expected to next_expected + unseen - 1 do
          if not (Hashtbl.mem t.received seq) && not (Hashtbl.mem t.given_up seq)
          then begin
            Hashtbl.replace t.missing seq { retries = 0; last_nak = None };
            t.gaps_detected <- t.gaps_detected + 1
          end
        done;
        sample_nak_state t;
        t.next_expected <- Some (next_expected + unseen);
        schedule_flush t t.config.nak_delay
      end
  | _ -> ()

(* Data path ----------------------------------------------------------- *)

let check_completion t now =
  match (t.config.expected_total, t.completion) with
  | Some total, None when t.delivered >= total -> t.completion <- Some now
  | _ -> ()

let timeliness_check t view now =
  (* Returns (late, aged, final_age_us) and emits notifications. *)
  let late =
    if not (Header.View.has view Feature.Timely) then false
    else
      let deadline = Header.View.deadline_ns view in
      let notify = Header.View.notify view in
      if Units.Time.(now > deadline) then begin
        let sequence =
          if Header.View.has view Feature.Sequenced then Header.View.sequence view
          else 0xFFFFFFFF
        in
        let notice =
          { Control.Deadline_exceeded.sequence; deadline; observed = now }
        in
        if not (Addr.Ip.is_any notify) then begin
          Control.send t.env ~experiment:t.config.experiment ~dst:notify
            Feature.Kind.Deadline_exceeded
            (Control.Deadline_exceeded.encode notice);
          t.deadline_notices_sent <- t.deadline_notices_sent + 1
        end;
        true
      end
      else false
  in
  let aged, age_us =
    if not (Header.View.has view Feature.Age_tracked) then (false, None)
    else
      (* Final accumulation: the destination is the last "element". *)
      let elapsed_ns =
        Units.Time.to_ns (Units.Time.diff now (Header.View.last_touch_ns view))
      in
      let final_age = Header.View.age_us view + (elapsed_ns / 1_000) in
      ( Header.View.aged view || final_age > Header.View.budget_us view,
        Some final_age )
  in
  if late then t.late <- t.late + 1;
  if aged then t.aged <- t.aged + 1;
  Option.iter (fun a -> Stats.Summary.add t.ages (float_of_int a)) age_us;
  (late, aged, age_us)

let deliver_message t packet view payload ~recovered =
  let now = Mmt_runtime.Env.now t.env in
  let sequence =
    if Header.View.has view Feature.Sequenced then Some (Header.View.sequence view)
    else None
  in
  let late, aged, age_us = timeliness_check t view now in
  let transport_latency = Units.Time.diff now packet.Mmt_sim.Packet.born in
  Stats.Summary.add t.latencies (Units.Time.to_float_s transport_latency);
  t.delivered <- t.delivered + 1;
  t.delivered_bytes <-
    t.delivered_bytes + Units.Size.to_bytes (Mmt_sim.Packet.wire_size packet);
  if t.first_arrival = None then t.first_arrival <- Some now;
  t.last_arrival <- Some now;
  check_completion t now;
  arm_tail_check t;
  t.deliver
    { sequence; arrival = now; transport_latency; recovered; late; aged; age_us }
    payload

let implausible_seq t seq =
  let frontier = match t.next_expected with None -> 0 | Some e -> e in
  seq < 0
  || seq - frontier > max_gap_span
  ||
  match t.config.expected_total with
  | Some total -> seq >= total
  | None -> false

let handle_sequenced t packet view payload seq =
  if implausible_seq t seq then begin
    t.corrupted <- t.corrupted + 1;
    t.implausible <- t.implausible + 1
  end
  else begin
  if Header.View.has view Feature.Reliable then
    t.retransmit_source <- Some (Header.View.retransmit_from view);
  if Hashtbl.mem t.received seq then t.duplicates <- t.duplicates + 1
  else begin
    Hashtbl.replace t.received seq ();
    match t.next_expected with
    | None ->
        t.next_expected <- Some (seq + 1);
        (* Streams are sequenced from zero (PROTOCOL.md § 5): anything
           below the first arrival is head loss, recoverable like any
           other gap. *)
        if seq > 0 then begin
          for gap_seq = 0 to seq - 1 do
            Hashtbl.replace t.missing gap_seq { retries = 0; last_nak = None };
            t.gaps_detected <- t.gaps_detected + 1
          done;
          sample_nak_state t;
          schedule_flush t t.config.nak_delay
        end;
        deliver_message t packet view payload ~recovered:false
    | Some expected ->
        if seq >= expected then begin
          if seq > expected then begin
            for gap_seq = expected to seq - 1 do
              if not (Hashtbl.mem t.received gap_seq) then begin
                Hashtbl.replace t.missing gap_seq { retries = 0; last_nak = None };
                t.gaps_detected <- t.gaps_detected + 1
              end
            done;
            sample_nak_state t;
            schedule_flush t t.config.nak_delay
          end;
          t.next_expected <- Some (seq + 1);
          deliver_message t packet view payload ~recovered:false
        end
        else begin
          (* Before the frontier: either recovery of a known gap or
             plain reordering. *)
          t.out_of_order <- t.out_of_order + 1;
          let recovered = Hashtbl.mem t.missing seq in
          if recovered then begin
            Hashtbl.remove t.missing seq;
            sample_nak_state t;
            t.recovered <- t.recovered + 1
          end
          else if Hashtbl.mem t.given_up seq then begin
            (* A straggler arrived after we abandoned the gap: it now
               has two terminal states, which the accounting must
               know about or a chaos run's books will not balance. *)
            Hashtbl.remove t.given_up seq;
            t.resurrected <- t.resurrected + 1
          end;
          deliver_message t packet view payload ~recovered
        end
  end
  end

let consume t packet =
  let frame = Mmt_sim.Packet.frame packet in
  if packet.Mmt_sim.Packet.corrupted then t.corrupted <- t.corrupted + 1
  else begin
    let hv = Lazy.force t.hv in
    Header_vector.parse hv packet;
    let view = Header_vector.view hv in
    if not (Header_vector.parsed hv) then t.corrupted <- t.corrupted + 1
    else if not (Header.View.verify view) then begin
      (* Real corruption detection: the stored header checksum no
         longer sums clean over the received bytes. *)
      t.corrupted <- t.corrupted + 1;
      t.checksum_failed <- t.checksum_failed + 1
    end
    else
      let payload_off = Header_vector.mmt_offset hv + Header.View.size view in
      match Header.View.kind view with
      | Feature.Kind.Data ->
          let payload =
            Cursor.Reader.of_bytes ~off:payload_off
              ~tail:packet.Mmt_sim.Packet.padding frame
          in
          if Header.View.has view Feature.Sequenced then
            handle_sequenced t packet view payload (Header.View.sequence view)
          else begin
            t.unsequenced <- t.unsequenced + 1;
            deliver_message t packet view payload ~recovered:false
          end
      | Feature.Kind.Buffer_advert -> (
          (* The control plane retargeting recovery: a buffer
             advertisement pushed downstream (e.g. after a failover)
             updates where NAKs go, even when no new data arrives to
             carry the change. *)
          let payload =
            Bytes.sub frame payload_off (Bytes.length frame - payload_off)
          in
          match Control.Buffer_advert.decode payload with
          | Error _ -> ()
          | Ok advert ->
              t.retransmit_source <- Some advert.Control.Buffer_advert.buffer;
              t.source_updates <- t.source_updates + 1;
              (* Re-aim pending recovery at the new buffer now: an
                 explicit retarget flushes immediately rather than
                 waiting out the retry timer. *)
              if Hashtbl.length t.missing > 0 then begin
                Hashtbl.iter (fun _seq gap -> gap.last_nak <- None) t.missing;
                flush_naks t
              end)
      | Feature.Kind.Nak | Feature.Kind.Deadline_exceeded
      | Feature.Kind.Backpressure ->
          (* Control traffic not for the data sink. *)
          ()
  end

let on_packet t packet =
  consume t packet;
  (* The receiver is the end of the line on every path — delivery,
     duplicate, corruption, control — and nothing it keeps points into
     the frame: [deliver]'s payload reader is dead once the callback
     returns, and stats are scalars. *)
  Mmt_runtime.Env.retire t.env packet

let stats t =
  {
    delivered = t.delivered;
    delivered_bytes = t.delivered_bytes;
    duplicates = t.duplicates;
    corrupted = t.corrupted;
    checksum_failed = t.checksum_failed;
    implausible = t.implausible;
    unsequenced = t.unsequenced;
    gaps_detected = t.gaps_detected;
    recovered = t.recovered;
    lost = t.lost;
    unrecoverable = t.unrecoverable;
    naks_sent = t.naks_sent;
    nak_sequences_requested = t.nak_sequences_requested;
    late = t.late;
    aged = t.aged;
    deadline_notices_sent = t.deadline_notices_sent;
    out_of_order = t.out_of_order;
    source_updates = t.source_updates;
    resurrected = t.resurrected;
    first_arrival = t.first_arrival;
    last_arrival = t.last_arrival;
    completion = t.completion;
    still_missing = Hashtbl.length t.missing;
    nak_state_high_water = Gauge.high_water t.nak_state;
  }

let latency_summary t = t.latencies
let age_summary t = t.ages

let goodput t =
  match (t.first_arrival, t.last_arrival) with
  | Some first, Some last when Units.Time.(last > first) ->
      Units.Rate.of_size_per_time
        (Units.Size.bytes t.delivered_bytes)
        (Units.Time.diff last first)
  | _ -> Units.Rate.zero
