open Mmt_util

type stats = {
  capacity : int;
  in_use : int;
  acquired : int;
  retired : int;
  double_done : int;
  overflow : int;
}

type t = {
  pool : Pool.t;
  max_slots : int;
  mutable slots : Packet.t array;
  mutable live : bool array;
  mutable free : int array;
  mutable free_top : int;
  mutable acquired : int;
  mutable retired_count : int;
  mutable double_done : int;
  mutable overflow : int;
}

let fresh_slot i =
  let p = Packet.create ~id:(-1) ~born:Units.Time.zero Pool.retired in
  p.Packet.slot <- i;
  p

let create ?(slots = 1024) ?(max_slots = 1 lsl 16) () =
  if slots < 1 then invalid_arg "Ring.create: slots < 1";
  let max_slots = max max_slots slots in
  {
    pool = Pool.create ();
    max_slots;
    slots = Array.init slots fresh_slot;
    live = Array.make slots false;
    (* Reverse order so slot 0 pops first. *)
    free = Array.init slots (fun i -> slots - 1 - i);
    free_top = slots;
    acquired = 0;
    retired_count = 0;
    double_done = 0;
    overflow = 0;
  }

let pool t = t.pool

let grow t =
  let old_cap = Array.length t.slots in
  let new_cap = min t.max_slots (old_cap * 2) in
  if new_cap > old_cap then begin
    let slots =
      Array.init new_cap (fun i ->
          if i < old_cap then t.slots.(i) else fresh_slot i)
    in
    let live = Array.make new_cap false in
    Array.blit t.live 0 live 0 old_cap;
    let free = Array.make new_cap 0 in
    let added = new_cap - old_cap in
    for k = 0 to added - 1 do
      free.(k) <- new_cap - 1 - k
    done;
    t.slots <- slots;
    t.live <- live;
    t.free <- free;
    t.free_top <- added
  end

let install p ~id ~padding ~born frame =
  p.Packet.id <- id;
  p.Packet.frame <- frame;
  p.Packet.padding <- padding;
  p.Packet.born <- born;
  p.Packet.corrupted <- false;
  p.Packet.hops <- 0;
  p

(* No option on the acquire path: a [Some] box per packet would defeat
   the whole point of the ring. *)
let alloc t ?(padding = 0) ~id ~born frame =
  if padding < 0 then invalid_arg "Ring.alloc: negative padding";
  t.acquired <- t.acquired + 1;
  if t.free_top = 0 && Array.length t.slots < t.max_slots then grow t;
  if t.free_top = 0 then begin
    t.overflow <- t.overflow + 1;
    Packet.create ~padding ~id ~born frame
  end
  else begin
    t.free_top <- t.free_top - 1;
    let i = t.free.(t.free_top) in
    t.live.(i) <- true;
    install t.slots.(i) ~id ~padding ~born frame
  end

let in_packet t ?(padding = 0) ~id ~born len =
  alloc t ~padding ~id ~born (Pool.acquire t.pool len)

let clone t src ~id =
  let len = Bytes.length src.Packet.frame in
  let p =
    in_packet t ~padding:src.Packet.padding ~id ~born:src.Packet.born len
  in
  Bytes.blit src.Packet.frame 0 p.Packet.frame 0 len;
  p.Packet.corrupted <- src.Packet.corrupted;
  p.Packet.hops <- src.Packet.hops;
  p

let in_packet_done t p =
  let s = p.Packet.slot in
  if s < 0 then begin
    (* Disarm a floating packet but leave its frame to the GC: the ring
       may never have handed that frame out (a [Packet.create] over a
       caller's buffer), so pooling it could overwrite bytes the caller
       still holds. *)
    if p.Packet.frame != Pool.retired && Bytes.length p.Packet.frame > 0 then begin
      t.retired_count <- t.retired_count + 1;
      p.Packet.frame <- Pool.retired;
      p.Packet.gen <- p.Packet.gen + 1
    end
  end
  else if s < Array.length t.slots && t.live.(s) && t.slots.(s) == p then begin
    t.retired_count <- t.retired_count + 1;
    Pool.release_packet t.pool p;
    t.live.(s) <- false;
    t.free.(t.free_top) <- s;
    t.free_top <- t.free_top + 1
  end
  else t.double_done <- t.double_done + 1

let stats t =
  {
    capacity = Array.length t.slots;
    in_use = Array.length t.slots - t.free_top;
    acquired = t.acquired;
    retired = t.retired_count;
    double_done = t.double_done;
    overflow = t.overflow;
  }
