open Mmt_util
module Gauge = Mmt_telemetry.Gauge

type stats = {
  stored : int;
  evicted : int;
  hits : int;
  misses : int;
  occupancy : Units.Size.t;
  entries : int;
  occupancy_high_water : Units.Size.t;
  entries_high_water : int;
}

type entry = {
  chunk : bytes;
  off : int;
  len : int;
  padding : int;
  born : Units.Time.t;
}

let wire_size entry = entry.len + entry.padding

(* Frames are copied end to end into chunks the buffer owns, so a stored
   frame costs no block of its own.  The first chunk holds the first
   frame exactly and each later one doubles, up to [max_chunk] (or the
   frame, if larger): a buffer that stores little keeps little, and one
   that stores a lot keeps few large blocks.  A chunk is garbage once it
   is no longer being filled and no entry points into it. *)
let max_chunk = 1 lsl 20

type t = {
  capacity : int;
  frames : (int, entry) Hashtbl.t;
  order : int Queue.t; (* insertion order of sequence numbers *)
  superseded : (int, int) Hashtbl.t;
      (* per sequence, how many of its [order] entries an overwrite left
         stale; they all sit ahead of the live one *)
  bytes : Gauge.t;
  entries : Gauge.t;
  mutable chunk : bytes;  (* the chunk being filled *)
  mutable fill : int;  (* bytes of [chunk] in use *)
  mutable stored : int;
  mutable evicted : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  {
    capacity = Units.Size.to_bytes capacity;
    frames = Hashtbl.create 64;
    order = Queue.create ();
    superseded = Hashtbl.create 8;
    bytes = Gauge.create ();
    entries = Gauge.create ();
    chunk = Bytes.empty;
    fill = 0;
    stored = 0;
    evicted = 0;
    hits = 0;
    misses = 0;
  }

let evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some seq -> (
      match (Hashtbl.find_opt t.superseded seq, Hashtbl.find_opt t.frames seq) with
      | Some stale, _ ->
          (* Left behind by an overwrite: the live frame is queued later. *)
          if stale = 1 then Hashtbl.remove t.superseded seq
          else Hashtbl.replace t.superseded seq (stale - 1)
      | None, None -> ()
      | None, Some entry ->
          Hashtbl.remove t.frames seq;
          Gauge.add t.bytes (-wire_size entry);
          Gauge.add t.entries (-1);
          t.evicted <- t.evicted + 1)

(* Copy [frame] into the chunk being filled, opening a new chunk when it
   does not fit; returns the frame's offset in [t.chunk]. *)
let copy_in t frame =
  let len = Bytes.length frame in
  if t.fill + len > Bytes.length t.chunk then begin
    let grown =
      if Bytes.length t.chunk = 0 then len
      else Int.min max_chunk (2 * Bytes.length t.chunk)
    in
    t.chunk <- Bytes.create (Int.max len grown);
    t.fill <- 0
  end;
  let off = t.fill in
  Bytes.blit frame 0 t.chunk off len;
  t.fill <- off + len;
  off

let store t ~seq ~born ?(padding = 0) frame =
  let len = Bytes.length frame in
  let size = len + padding in
  t.stored <- t.stored + 1;
  if size > t.capacity then t.evicted <- t.evicted + 1
  else begin
    (match Hashtbl.find_opt t.frames seq with
    | Some old ->
        Gauge.add t.bytes (-wire_size old);
        Gauge.add t.entries (-1);
        Hashtbl.remove t.frames seq;
        let stale = Option.value ~default:0 (Hashtbl.find_opt t.superseded seq) in
        Hashtbl.replace t.superseded seq (stale + 1)
    | None -> ());
    while Gauge.value t.bytes + size > t.capacity do
      evict_one t
    done;
    let off = copy_in t frame in
    Hashtbl.replace t.frames seq { chunk = t.chunk; off; len; padding; born };
    Queue.push seq t.order;
    Gauge.add t.bytes size;
    Gauge.add t.entries 1
  end

let fetch t ~seq =
  match Hashtbl.find_opt t.frames seq with
  | Some entry ->
      t.hits <- t.hits + 1;
      Some entry
  | None ->
      t.misses <- t.misses + 1;
      None

let contains t ~seq = Hashtbl.mem t.frames seq

let stats t =
  {
    stored = t.stored;
    evicted = t.evicted;
    hits = t.hits;
    misses = t.misses;
    occupancy = Units.Size.bytes (Gauge.value t.bytes);
    entries = Hashtbl.length t.frames;
    occupancy_high_water = Units.Size.bytes (Gauge.high_water t.bytes);
    entries_high_water = Gauge.high_water t.entries;
  }

let capacity t = Units.Size.bytes t.capacity
