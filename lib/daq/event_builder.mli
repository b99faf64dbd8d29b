(** Event building: assembling fragments into physics events.

    The first processing stage after the DAQ network (Fig. 1 stage A):
    fragments from every instrument slice that share a trigger number
    are combined into one event.  Incomplete events time out after a
    configurable window — with a lossless DAQ network they complete;
    losses upstream show up here as incomplete events, making this the
    natural integration check for transport reliability (Req 4).

    The builder records which slices of each (run, trigger) have
    arrived, not the fragments themselves: it keeps no payload, so a
    receiver can feed it from {!Fragment.read_header} over the frame it
    is about to retire. *)

open Mmt_util

type event = {
  run : int;
  trigger : int;
  slices : int list;  (** every slice the event covers, in slice order *)
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

type t

val create : slices:int list -> timeout:Units.Time.t -> t
(** [slices] is the set of slice numbers every event must cover.
    @raise Invalid_argument on an empty slice list. *)

val add :
  t -> now:Units.Time.t -> run:int -> trigger:int -> slice:int -> event option
(** Record that the fragment of [slice] for ([run], [trigger]) arrived,
    e.g. from a {!Fragment.header}'s [run], [trigger] and the slice of
    its [experiment].  Returns the completed event when this fragment
    was the last one missing; a slice seen twice counts as a
    duplicate. *)

val sweep : t -> now:Units.Time.t -> int
(** Time out pending events older than the window; returns how many
    were abandoned. *)

val stats : t -> stats
