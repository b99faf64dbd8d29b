(* End-of-run accounting for a sequenced stream under faults.

   The ledger watches the application-facing deliver callback; the
   final check reconciles it against what the rewriter emitted and
   what the receiver abandoned.  [resurrected] compensates for frames
   the receiver abandoned and a straggling retransmission later
   delivered anyway: they ended in a state, just two of them — the
   receiver reports them so the books still balance. *)

type ledger = {
  seen : (int, int) Hashtbl.t;
  mutable delivered : int;
  mutable duplicates : int;
}

let ledger () = { seen = Hashtbl.create 4096; delivered = 0; duplicates = 0 }

let delivered ledger ~seq =
  match Hashtbl.find_opt ledger.seen seq with
  | None ->
      Hashtbl.replace ledger.seen seq 1;
      ledger.delivered <- ledger.delivered + 1
  | Some n ->
      Hashtbl.replace ledger.seen seq (n + 1);
      ledger.duplicates <- ledger.duplicates + 1

type outcome = {
  emitted : int;
  delivered : int;
  duplicates : int;
  abandoned : int;
  resurrected : int;
  pending : int;
  terminated : bool;
}

let outcome ~emitted ~abandoned ~resurrected ~pending ~terminated
    (ledger : ledger) =
  {
    emitted;
    delivered = ledger.delivered;
    duplicates = ledger.duplicates;
    abandoned;
    resurrected;
    pending;
    terminated;
  }

(* One stable formatter for every consumer (chaos CLI, campaign
   reports, tests): key=value pairs in a fixed order, booleans as
   true/false, no padding — greppable and diffable. *)
let to_string o =
  Printf.sprintf
    "emitted=%d delivered=%d duplicates=%d abandoned=%d resurrected=%d \
     pending=%d terminated=%b"
    o.emitted o.delivered o.duplicates o.abandoned o.resurrected o.pending
    o.terminated

let to_json o =
  Printf.sprintf
    "{\"emitted\":%d,\"delivered\":%d,\"duplicates\":%d,\"abandoned\":%d,\
     \"resurrected\":%d,\"pending\":%d,\"terminated\":%b}"
    o.emitted o.delivered o.duplicates o.abandoned o.resurrected o.pending
    o.terminated

let check o =
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  if not o.terminated then violation "run did not terminate";
  if o.duplicates > 0 then
    violation "%d duplicate application deliveries" o.duplicates;
  if o.pending > 0 then
    violation "%d sequenced frames in limbo (neither delivered nor abandoned)"
      o.pending;
  let accounted = o.delivered + o.abandoned - o.resurrected in
  if accounted <> o.emitted then
    violation
      "accounting mismatch: emitted %d but delivered %d + abandoned %d - \
       resurrected %d = %d"
      o.emitted o.delivered o.abandoned o.resurrected accounted;
  List.rev !violations
