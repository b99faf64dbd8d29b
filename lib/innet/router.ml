open Mmt_frame

type sink = Mmt_sim.Packet.t -> unit

(* Open addressing with linear probing over a power-of-two array kept
   at most half full.  A free slot holds the key -1, which is also the
   key of a frame that does not ride IPv4, so no entry can take it. *)
type t = {
  mutable keys : int array;
  mutable sinks : sink array;
  mutable entries : int;
  default : sink option;
  ring : Mmt_sim.Ring.t;
  mutable unrouted : int;
}

let free = -1
let arrays capacity = (Array.make capacity free, Array.make capacity ignore)

let create ?default ~ring size =
  let rec capacity c = if c >= 2 * size then c else capacity (2 * c) in
  let keys, sinks = arrays (capacity 8) in
  { keys; sinks; entries = 0; default; ring; unrouted = 0 }

(* The addresses of one block differ only in their low bits: mix them. *)
let hash key =
  let h = (key lxor (key lsr 16)) * 0x45d9f3b in
  h lxor (h lsr 16)

(* The slot holding [key], else the free slot where it would go. *)
let rec probe keys key i =
  let k = keys.(i) in
  if k = key || k = free then i
  else probe keys key ((i + 1) land (Array.length keys - 1))

let slot keys key = probe keys key (hash key land (Array.length keys - 1))

let rec insert t key sink =
  if 2 * (t.entries + 1) > Array.length t.keys then begin
    let keys = t.keys and sinks = t.sinks in
    let grown_keys, grown_sinks = arrays (2 * Array.length keys) in
    t.keys <- grown_keys;
    t.sinks <- grown_sinks;
    t.entries <- 0;
    Array.iteri (fun j k -> if k <> free then insert t k sinks.(j)) keys
  end;
  let i = slot t.keys key in
  if t.keys.(i) <> key then begin
    t.keys.(i) <- key;
    t.entries <- t.entries + 1
  end;
  t.sinks.(i) <- sink

let add t ip sink = insert t (Addr.Ip.to_int ip) sink

let forward t key packet =
  let i = slot t.keys key in
  if key <> free && t.keys.(i) = key then begin
    t.sinks.(i) packet;
    true
  end
  else
    match t.default with
    | Some sink ->
        sink packet;
        true
    | None ->
        t.unrouted <- t.unrouted + 1;
        Mmt_sim.Ring.in_packet_done t.ring packet;
        false

let send t ip packet = ignore (forward t (Addr.Ip.to_int ip) packet)
let unrouted t = t.unrouted
let ring t = t.ring

let env t ~engine ~fresh_id ~local_ip =
  { Mmt_runtime.Env.engine; local_ip; send = send t; fresh_id; ring = t.ring }
