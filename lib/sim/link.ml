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
  mutable transmitting : bool;
  mutable serializing : Packet.t; (* the packet on the transmitter *)
  mutable on_serialized : unit -> unit; (* preallocated; set in create *)
  mutable on_propagated : unit -> unit; (* preallocated; set in create *)
  (* In-flight FIFO.  Propagation is constant per link and engine time
     is monotonic, so deliveries complete in the order serializations
     complete: the delivery closures can be one shared preallocated
     closure popping this queue instead of a fresh closure capturing
     each packet. *)
  flight : Packet.Fifo.t;
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

let propagated t =
  let packet = Packet.Fifo.pop t.flight in
  t.delivered <- t.delivered + 1;
  t.delivered_bytes <-
    t.delivered_bytes + Units.Size.to_bytes (Packet.wire_size packet);
  packet.Packet.hops <- packet.Packet.hops + 1;
  observe t Delivered packet;
  t.deliver packet

let deliver_after_propagation t packet =
  Packet.Fifo.push t.flight packet;
  ignore (Engine.schedule_after t.engine ~delay:t.propagation t.on_propagated)

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
  if packet == Packet.none then t.transmitting <- false
  else start_serializing t packet

let serialized t =
  let packet = t.serializing in
  t.serializing <- Packet.none;
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
    ~ring ?(observer = no_observer) ~deliver () =
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
      transmitting = false;
      serializing = Packet.none;
      on_serialized = ignore;
      on_propagated = ignore;
      flight = Packet.Fifo.create ();
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
