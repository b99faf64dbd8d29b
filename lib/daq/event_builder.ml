open Mmt_util

type event = {
  run : int;
  trigger : int;
  slices : int list;
  opened_at : Units.Time.t;
  completed_at : Units.Time.t;
}

type stats = {
  complete : int;
  timed_out : int;
  duplicates : int;
  fragments_seen : int;
  pending : int;
}

type pending = { p_opened_at : Units.Time.t; mutable seen : int list }

type t = {
  slices : int list;
  timeout : Units.Time.t;
  open_events : (int * int, pending) Hashtbl.t; (* keyed by (run, trigger) *)
  mutable complete : int;
  mutable timed_out : int;
  mutable duplicates : int;
  mutable fragments_seen : int;
}

let create ~slices ~timeout =
  if slices = [] then invalid_arg "Event_builder.create: no slices";
  {
    slices = List.sort_uniq compare slices;
    timeout;
    open_events = Hashtbl.create 256;
    complete = 0;
    timed_out = 0;
    duplicates = 0;
    fragments_seen = 0;
  }

let add t ~now ~run ~trigger ~slice =
  t.fragments_seen <- t.fragments_seen + 1;
  let key = (run, trigger) in
  let pending =
    match Hashtbl.find_opt t.open_events key with
    | Some pending -> pending
    | None ->
        let pending = { p_opened_at = now; seen = [] } in
        Hashtbl.replace t.open_events key pending;
        pending
  in
  if List.mem slice pending.seen then begin
    t.duplicates <- t.duplicates + 1;
    None
  end
  else begin
    pending.seen <- slice :: pending.seen;
    if List.for_all (fun s -> List.mem s pending.seen) t.slices then begin
      Hashtbl.remove t.open_events key;
      t.complete <- t.complete + 1;
      Some
        {
          run;
          trigger;
          slices = t.slices;
          opened_at = pending.p_opened_at;
          completed_at = now;
        }
    end
    else None
  end

let sweep t ~now =
  let stale =
    Hashtbl.fold
      (fun key pending acc ->
        if Units.Time.(Units.Time.diff now pending.p_opened_at > t.timeout) then
          key :: acc
        else acc)
      t.open_events []
  in
  List.iter (Hashtbl.remove t.open_events) stale;
  t.timed_out <- t.timed_out + List.length stale;
  List.length stale

let stats t =
  {
    complete = t.complete;
    timed_out = t.timed_out;
    duplicates = t.duplicates;
    fragments_seen = t.fragments_seen;
    pending = Hashtbl.length t.open_events;
  }
