(** In-network header-checksum verification.

    Placed ahead of stateful elements (retransmission-buffer snoops,
    rewriters), it discards data frames whose fixed MMT header no
    longer sums clean under the Checksummed feature's RFC 1071
    ones'-complement checksum — so corrupted headers are dropped at
    the first programmable hop instead of poisoning buffer or receiver
    state.  It sits on paths whose planned mode seals every data frame,
    so a data frame {e without} the Checksummed bit is discarded too: a
    missing checksum means the feature bit itself was flipped, and
    nothing else in the header can be trusted.  Control frames without
    the bit, and non-MMT frames, pass untouched.

    The declared program is integer-only (extract, fold, compare) and
    passes {!Op.realizable} — § 5.3's "conservative, header-based
    processing": the checksum lives at a constant offset over
    fixed-width fields, exactly what a P4 [verify_checksum] stage
    computes. *)

type stats = {
  checked : int;
      (** MMT frames judged: sealed, unparseable, or data frames
          missing the checksum *)
  failed : int;
      (** discarded: mismatch, missing checksum or unparseable header *)
  passed : int;  (** non-MMT frames and unchecksummed control frames *)
}

type t

val create : unit -> t

val element : t -> Element.t
val stats : t -> stats
