(** In-network stream duplication (§ 5.1, Fig. 3 point 5).

    "Streams can be duplicated in the network to reach several
    downstream researchers directly, ensuring that they get rapid
    access to fresh data" — e.g. Vera Rubin's alert stream fanning out
    to telescopes and astronomers.  Copies get the [Duplicated] feature
    bit and are sent toward each subscribed consumer through the
    environment; the original continues unchanged. *)

open Mmt_frame

type stats = {
  duplicated : int;  (** originals that were fanned out *)
  copies_sent : int;
  passed : int;
}

type t

val create :
  env:Mmt_runtime.Env.t ->
  consumers:Addr.Ip.t list ->
  unit ->
  t
(** Consumer copies are slot-allocated from the environment's ring
    (records and frames both recycled); the internal marked scratch
    frame comes from the ring's pool and returns to it after the
    fan-out. *)

val element : t -> Element.t
val stats : t -> stats
