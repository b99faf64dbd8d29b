(** Registry of every table/figure reproduction. *)

type entry = {
  id : string;  (** DESIGN.md experiment id, e.g. "E-F3" *)
  title : string;
  run : unit -> string * bool;
      (** rendered output and whether every shape check passed *)
}

val all : entry list
val find : string -> entry option
(** Case-insensitive lookup by id (with or without the "E-" prefix). *)

val run_collect :
  ?jobs:int -> unit -> (entry * (string * bool) * float) list
(** Run every experiment and return [(entry, (output, ok), wall_s)] in
    registry order.  The experiments run through
    {!Mmt_util.Parallel.init} on up to [jobs] domains (default 1;
    [0] asks for the machine's recommended count); each is a
    self-contained deterministic simulation (own engine, own seeded
    Rng), so the results are identical at any [jobs]. *)

val run_all : ?jobs:int -> unit -> bool
(** Run every experiment, then print each report in registry order;
    [true] when every shape check in every experiment passed.  The
    output is byte-identical at any [jobs]. *)
