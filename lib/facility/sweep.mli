(** The E-F5 flow-count sweep.

    Runs the same facility scenario at log-spaced flow counts.  Each
    point is a self-contained deterministic simulation (own engine,
    topology and seeded generators), so points parallelize over the
    shared {!Mmt_util.Task_pool} with results collected into
    point-order slots — the sweep's output is byte-identical whether
    run sequentially or with [--jobs N]. *)

val log_points : ?lo:int -> ?hi:int -> unit -> int list
(** The 1-3-10 log series clipped to [[lo, hi]], e.g. 10, 30, 100,
    300, 1000 for the defaults. *)

val run :
  ?jobs:int ->
  base:Scenario.config ->
  points:int list ->
  unit ->
  (int * Scenario.result) list
(** One scenario per point, [base] with [flows] overridden.  [jobs]
    (default 1) caps the extra domains engaged; 0 asks for the
    machine's recommended count. *)
