open Mmt_util

(* EDF heap as parallel arrays (SoA, mirroring the engine heap) so an
   enqueue allocates no entry record.  [deadlines] holds raw ns;
   deadline-free packets carry [no_deadline] = [max_int], which both
   sorts them after every deadline-bearing packet and makes the
   tie-break fall through to [seqs] — exactly the option semantics the
   record version had. *)
let no_deadline = max_int

type edf = {
  mutable packets : Packet.t array;
  mutable deadlines : int array;
  mutable seqs : int array;
  mutable size : int;
  drop_expired : bool;
  deadline_of : Packet.t -> Units.Time.t option;
}

type discipline = Fifo of Packet.Fifo.t | Edf of edf

type t = {
  capacity : Units.Size.t;
  discipline : discipline;
  mutable bytes : int;
  mutable next_seq : int;
  mutable overflow_drops : int;
  mutable expired_drops : int;
}

let droptail ~capacity () =
  {
    capacity;
    discipline = Fifo (Packet.Fifo.create ());
    bytes = 0;
    next_seq = 0;
    overflow_drops = 0;
    expired_drops = 0;
  }

let deadline_aware ~capacity ~drop_expired ~deadline_of () =
  {
    capacity;
    discipline =
      Edf
        {
          packets = Array.make 64 Packet.none;
          deadlines = Array.make 64 no_deadline;
          seqs = Array.make 64 (-1);
          size = 0;
          drop_expired;
          deadline_of;
        };
    bytes = 0;
    next_seq = 0;
    overflow_drops = 0;
    expired_drops = 0;
  }

(* EDF ordering: deadline-bearing packets first (earliest wins), then
   deadline-free packets in arrival order. *)
let entry_before edf i j =
  let di = edf.deadlines.(i) and dj = edf.deadlines.(j) in
  if di <> dj then di < dj else edf.seqs.(i) < edf.seqs.(j)

let swap edf i j =
  let p = edf.packets.(i) in
  edf.packets.(i) <- edf.packets.(j);
  edf.packets.(j) <- p;
  let d = edf.deadlines.(i) in
  edf.deadlines.(i) <- edf.deadlines.(j);
  edf.deadlines.(j) <- d;
  let s = edf.seqs.(i) in
  edf.seqs.(i) <- edf.seqs.(j);
  edf.seqs.(j) <- s

let heap_push edf packet deadline seq =
  if edf.size = Array.length edf.packets then begin
    let cap = 2 * edf.size in
    let packets = Array.make cap Packet.none in
    let deadlines = Array.make cap no_deadline in
    let seqs = Array.make cap (-1) in
    Array.blit edf.packets 0 packets 0 edf.size;
    Array.blit edf.deadlines 0 deadlines 0 edf.size;
    Array.blit edf.seqs 0 seqs 0 edf.size;
    edf.packets <- packets;
    edf.deadlines <- deadlines;
    edf.seqs <- seqs
  end;
  edf.packets.(edf.size) <- packet;
  edf.deadlines.(edf.size) <- deadline;
  edf.seqs.(edf.size) <- seq;
  edf.size <- edf.size + 1;
  let i = ref (edf.size - 1) in
  while !i > 0 && entry_before edf !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap edf !i parent;
    i := parent
  done

(* Pops the root into the caller's hands: packet + deadline. *)
(* The caller reads [edf.deadlines.(0)] before popping — returning a
   (packet, deadline) pair here would be a tuple per dequeue. *)
let heap_pop edf =
  let packet = edf.packets.(0) in
  edf.size <- edf.size - 1;
  edf.packets.(0) <- edf.packets.(edf.size);
  edf.deadlines.(0) <- edf.deadlines.(edf.size);
  edf.seqs.(0) <- edf.seqs.(edf.size);
  edf.packets.(edf.size) <- Packet.none;
  edf.deadlines.(edf.size) <- no_deadline;
  edf.seqs.(edf.size) <- -1;
  let rec sift i =
    let left = (2 * i) + 1 in
    let right = left + 1 in
    let smallest = ref i in
    if left < edf.size && entry_before edf left !smallest then smallest := left;
    if right < edf.size && entry_before edf right !smallest then
      smallest := right;
    if !smallest <> i then begin
      swap edf i !smallest;
      sift !smallest
    end
  in
  if edf.size > 0 then sift 0;
  packet

(* True when handing [packet] to an [enqueue] immediately followed by a
   [poll] would return exactly this packet with no other observable
   effect — an empty FIFO that the packet fits into.  The link uses
   this to bypass the queue entirely when its transmitter is idle:
   nothing can run between the enqueue and the poll (no event boundary,
   no callback), so skipping the round-trip is invisible.  EDF queues
   never qualify: a poll may expire the freshly enqueued packet
   ([drop_expired] with a deadline already in the past), which is a
   real decision the bypass must not skip. *)
let passes_when_empty t packet =
  match t.discipline with
  | Fifo f ->
      Packet.Fifo.length f = 0
      && Units.Size.to_bytes (Packet.wire_size packet)
         <= Units.Size.to_bytes t.capacity
  | Edf _ -> false

let enqueue t ~now:_ packet =
  let size = Units.Size.to_bytes (Packet.wire_size packet) in
  if t.bytes + size > Units.Size.to_bytes t.capacity then begin
    t.overflow_drops <- t.overflow_drops + 1;
    `Dropped
  end
  else begin
    t.bytes <- t.bytes + size;
    (match t.discipline with
    | Fifo f -> Packet.Fifo.push f packet
    | Edf edf ->
        let deadline =
          match edf.deadline_of packet with
          | Some d -> Units.Time.to_ns d
          | None -> no_deadline
        in
        let seq = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        heap_push edf packet deadline seq);
    `Accepted
  end

let rec poll t ~ring ~now =
  match t.discipline with
  | Fifo f ->
      let packet = Packet.Fifo.pop f in
      if packet != Packet.none then
        t.bytes <- t.bytes - Units.Size.to_bytes (Packet.wire_size packet);
      packet
  | Edf edf ->
      if edf.size = 0 then Packet.none
      else begin
        let deadline = edf.deadlines.(0) in
        let packet = heap_pop edf in
        t.bytes <- t.bytes - Units.Size.to_bytes (Packet.wire_size packet);
        if
          edf.drop_expired && deadline <> no_deadline
          && deadline < Units.Time.to_ns now
        then begin
          t.expired_drops <- t.expired_drops + 1;
          Ring.in_packet_done ring packet;
          poll t ~ring ~now
        end
        else packet
      end

let length t =
  match t.discipline with Fifo f -> Packet.Fifo.length f | Edf edf -> edf.size

let queued_bytes t = Units.Size.bytes t.bytes
let overflow_drops t = t.overflow_drops
let expired_drops t = t.expired_drops

let describe t =
  match t.discipline with
  | Fifo _ -> Printf.sprintf "droptail(%s)" (Units.Size.to_string t.capacity)
  | Edf { drop_expired; _ } ->
      Printf.sprintf "edf(%s%s)"
        (Units.Size.to_string t.capacity)
        (if drop_expired then ", drop-expired" else "")
