(** One parallel map for sweeps of whole, independent simulations. *)

val init : jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f], computed on up to
    [min jobs (Domain.recommended_domain_count ()) n] domains, counting
    the calling one; [jobs <= 0] asks for the recommended count.  With
    one domain, [f] runs on the caller in index order.  Otherwise
    helper domains are spawned for the call, indices are handed out in
    any order and each result is stored at its index, so [f] must not
    share mutable state across calls.  If any call of [f] raises, one
    of the exceptions is re-raised once every domain has stopped.
    Calls may nest.
    @raise Invalid_argument if [n < 0]. *)
