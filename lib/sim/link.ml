open Mmt_util

type event =
  | Sent
  | Queue_dropped
  | Transmitted
  | Loss_dropped
  | Corrupted
  | Delivered
  | Fault_dropped

type stats = {
  offered : int;
  transmitted : int;
  delivered : int;
  queue_drops : int;
  loss_drops : int;
  corrupted : int;
  fault_drops : int;
  tampered : int;
  delivered_bytes : int;
  busy : Units.Time.t;
}

(* Links whose propagation is at least this long are "boundary" links:
   their deliveries are scheduled in the engine's boundary sequence
   lane under a (cut-edge id, FIFO seq) key instead of the global
   scheduling counter, which fixes how same-instant WAN deliveries
   tie-break against everything else. *)
let cut_threshold = Units.Time.ms 1.

let dummy_packet = Packet.create ~id:(-1) ~born:Units.Time.zero Pool.retired

(* Default observer: a shared sentinel, compared physically, so call
   sites on untraced links skip the indirect call entirely.  Topology
   only installs a real observer when tracing is on, making this the
   common case. *)
let no_observer (_ : event) (_ : Packet.t) = ()

type t = {
  engine : Engine.t;
  name : string;
  mutable rate : Units.Rate.t;
  propagation : Units.Time.t;
  loss : Loss.t;
  queue : Queue_model.t;
  ring : Ring.t;
  observer : event -> Packet.t -> unit;
  deliver : Packet.t -> unit;
  boundary : int; (* cut-edge id, or -1 for an ordinary link *)
  mutable next_eseq : int; (* per-edge FIFO sequence for boundary keys *)
  mutable transmitting : bool;
  mutable serializing : Packet.t; (* the packet on the transmitter *)
  mutable on_serialized : unit -> unit; (* preallocated; set in create *)
  mutable on_propagated : unit -> unit; (* preallocated; set in create *)
  (* In-flight circular FIFO.  Propagation is constant per link and
     engine time is monotonic, so deliveries complete in the order
     serializations complete: the delivery closures can be one shared
     preallocated closure popping this queue instead of a fresh
     closure capturing each packet. *)
  mutable flight : Packet.t array;
  mutable flight_head : int;
  mutable flight_len : int;
  mutable up : bool;
  mutable tamper : (Packet.t -> bool) option;
  mutable offered : int;
  mutable transmitted : int;
  mutable delivered : int;
  mutable loss_drops : int;
  mutable corrupted : int;
  mutable fault_drops : int;
  mutable tampered : int;
  mutable delivered_bytes : int;
  mutable busy : Units.Time.t;
  (* Serialization-time memo.  Traffic on a link is overwhelmingly
     same-sized frames at an unchanged rate, so the float divide +
     round inside [Units.Rate.transmission_time] is paid once per
     (rate, size) change instead of per packet.  Purely a cache: the
     memoized value is exactly what the computation would return. *)
  mutable tt_rate : float;
  mutable tt_bits : int;
  mutable tt_time : Units.Time.t;
}

(* The link was the packet's last holder: recycle the slot + frame. *)
let retire t packet = Ring.in_packet_done t.ring packet

let[@inline] observe link ev packet =
  if link.observer != no_observer then link.observer ev packet

(* Index wrap by compare-and-subtract, as in [Queue_model]'s FIFO: the
   operands stay in [0, 2*cap) and the branch predicts, where [mod] is
   an integer division on the per-packet path. *)
let flight_push t packet =
  let cap = Array.length t.flight in
  if t.flight_len = cap then begin
    let grown = Array.make (cap * 2) dummy_packet in
    for i = 0 to t.flight_len - 1 do
      let src = t.flight_head + i in
      grown.(i) <- t.flight.(if src >= cap then src - cap else src)
    done;
    t.flight <- grown;
    t.flight_head <- 0
  end;
  let cap = Array.length t.flight in
  let tail = t.flight_head + t.flight_len in
  t.flight.(if tail >= cap then tail - cap else tail) <- packet;
  t.flight_len <- t.flight_len + 1

let flight_pop t =
  let packet = t.flight.(t.flight_head) in
  t.flight.(t.flight_head) <- dummy_packet;
  let next = t.flight_head + 1 in
  t.flight_head <- (if next >= Array.length t.flight then 0 else next);
  t.flight_len <- t.flight_len - 1;
  packet

let propagated t =
  let packet = flight_pop t in
  t.delivered <- t.delivered + 1;
  t.delivered_bytes <-
    t.delivered_bytes + Units.Size.to_bytes (Packet.wire_size packet);
  packet.Packet.hops <- packet.Packet.hops + 1;
  observe t Delivered packet;
  t.deliver packet

let deliver_after_propagation t packet =
  if t.boundary < 0 then begin
    flight_push t packet;
    ignore (Engine.schedule_after t.engine ~delay:t.propagation t.on_propagated)
  end
  else begin
    (* Boundary link: the delivery key is (cut-edge id, per-edge FIFO
       sequence), so same-instant deliveries fire ahead of ordinary
       events, in edge-creation order. *)
    let at = Units.Time.add (Engine.now t.engine) t.propagation in
    let key = (t.boundary lsl 40) lor t.next_eseq in
    t.next_eseq <- t.next_eseq + 1;
    flight_push t packet;
    ignore (Engine.schedule_boundary t.engine ~at ~key t.on_propagated)
  end

let serialization_time t packet =
  let size = Packet.wire_size packet in
  let bits = Units.Size.to_bits size in
  if bits = t.tt_bits && Float.equal t.tt_rate (t.rate :> float) then t.tt_time
  else begin
    let time = Units.Rate.transmission_time t.rate size in
    t.tt_rate <- (t.rate :> float);
    t.tt_bits <- bits;
    t.tt_time <- time;
    time
  end

let start_serializing t packet =
  t.transmitting <- true;
  t.serializing <- packet;
  let serialization = serialization_time t packet in
  t.busy <- Units.Time.add t.busy serialization;
  ignore (Engine.schedule_after t.engine ~delay:serialization t.on_serialized)

let transmit_next t =
  let packet =
    Queue_model.poll t.queue ~ring:t.ring ~now:(Engine.now t.engine)
  in
  if packet == Queue_model.empty then t.transmitting <- false
  else start_serializing t packet

let serialized t =
  let packet = t.serializing in
  t.serializing <- dummy_packet;
  t.transmitted <- t.transmitted + 1;
  observe t Transmitted packet;
  (if not t.up then begin
     (* A downed link destroys whatever leaves its transmitter, like an
        unplugged fibre. *)
     t.fault_drops <- t.fault_drops + 1;
     observe t Fault_dropped packet;
     retire t packet
   end
   else
     match Loss.decide t.loss with
     | Loss.Drop ->
         t.loss_drops <- t.loss_drops + 1;
         observe t Loss_dropped packet;
         retire t packet
     | Loss.Corrupt ->
         packet.Packet.corrupted <- true;
         t.corrupted <- t.corrupted + 1;
         observe t Corrupted packet;
         deliver_after_propagation t packet
     | Loss.Deliver -> (
         match t.tamper with
         | Some tamper when tamper packet ->
             (* Real bits were flipped in the frame: the packet still
                arrives; detection is the receiver's problem
                (checksums, not oracles). *)
             t.tampered <- t.tampered + 1;
             observe t Corrupted packet;
             deliver_after_propagation t packet
         | Some _ | None -> deliver_after_propagation t packet));
  transmit_next t

let create ~engine ~name ~rate ~propagation ?(loss = Loss.perfect)
    ?(queue = Queue_model.droptail ~capacity:(Units.Size.mib 4) ())
    ~ring ?(observer = no_observer) ?(boundary = -1) ~deliver () =
  let t =
    {
      engine;
      name;
      rate;
      propagation;
      loss;
      queue;
      ring;
      observer;
      deliver;
      boundary;
      next_eseq = 0;
      transmitting = false;
      serializing = dummy_packet;
      on_serialized = ignore;
      on_propagated = ignore;
      flight = Array.make 16 dummy_packet;
      flight_head = 0;
      flight_len = 0;
      up = true;
      tamper = None;
      offered = 0;
      transmitted = 0;
      delivered = 0;
      loss_drops = 0;
      corrupted = 0;
      fault_drops = 0;
      tampered = 0;
      delivered_bytes = 0;
      busy = Units.Time.zero;
      tt_rate = 0.;
      tt_bits = -1;
      tt_time = Units.Time.zero;
    }
  in
  t.on_serialized <- (fun () -> serialized t);
  t.on_propagated <- (fun () -> propagated t);
  t

let send t packet =
  t.offered <- t.offered + 1;
  observe t Sent packet;
  if not t.up then begin
    t.fault_drops <- t.fault_drops + 1;
    observe t Fault_dropped packet;
    retire t packet
  end
  else if (not t.transmitting) && Queue_model.passes_when_empty t.queue packet
  then
    (* Idle transmitter, empty FIFO, packet fits: the enqueue would be
       followed by an immediate poll returning this very packet, with
       no observable step in between — skip the round-trip. *)
    start_serializing t packet
  else begin
    let now = Engine.now t.engine in
    match Queue_model.enqueue t.queue ~now packet with
    | `Dropped ->
        observe t Queue_dropped packet;
        retire t packet
    | `Accepted -> if not t.transmitting then transmit_next t
  end

let name t = t.name
let rate t = t.rate
let propagation t = t.propagation
let queue t = t.queue
let is_up t = t.up
let set_up t up = t.up <- up
let set_rate t rate = t.rate <- rate
let set_tamper t tamper = t.tamper <- tamper

let stats t =
  {
    offered = t.offered;
    transmitted = t.transmitted;
    delivered = t.delivered;
    queue_drops = Queue_model.overflow_drops t.queue;
    loss_drops = t.loss_drops;
    corrupted = t.corrupted;
    fault_drops = t.fault_drops;
    tampered = t.tampered;
    delivered_bytes = t.delivered_bytes;
    busy = t.busy;
  }

let utilization t ~over =
  let window = Units.Time.to_float_s over in
  if window <= 0. then 0. else Units.Time.to_float_s t.busy /. window
