type stats = { checked : int; failed : int; passed : int }

type t = {
  mutable checked : int;
  mutable failed : int;
  mutable passed : int;
  element : Element.t Lazy.t;
}

(* Integer-only: parse the core, branch on the Checksummed bit, fold
   the fixed-size header through the ones'-complement adder, compare
   with zero.  Exactly the shape of a P4 verify_checksum stage. *)
let program =
  {
    Op.name = "checksum-verify";
    ops =
      [
        Op.Extract "config_id";
        Op.Extract "config_data";
        Op.Compare "features.checksummed";
        Op.Extract "checksum";
        Op.Add_to_field "sum.fold";
        Op.Compare "sum.zero";
      ];
  }

let process t ~now:_ packet =
  let hv = Mmt.Header_vector.of_packet packet in
  if not (Mmt.Header_vector.located hv) then begin
    (* Not an MMT frame: none of our business. *)
    t.passed <- t.passed + 1;
    Element.Forward packet
  end
  else if not (Mmt.Header_vector.parsed hv) then begin
    (* An unparseable header on a checksum-verifying path is treated as
       corruption: a flipped feature bit or config id looks exactly
       like this. *)
    t.checked <- t.checked + 1;
    t.failed <- t.failed + 1;
    Element.Discard ("checksum-verify: " ^ Mmt.Header_vector.error hv)
  end
  else
    let view = Mmt.Header_vector.view hv in
    if not (Mmt.Header.View.has view Mmt.Feature.Checksummed) then begin
      (* The planned mode seals every data frame, so a data frame
         without the bit IS corruption — the flip that erased the
         Checksummed feature bit would otherwise make every other
         flipped bit in the header unverifiable. *)
      if Mmt.Header.View.kind view = Mmt.Feature.Kind.Data then begin
        t.checked <- t.checked + 1;
        t.failed <- t.failed + 1;
        Element.Discard "checksum-verify: required checksum missing"
      end
      else begin
        t.passed <- t.passed + 1;
        Element.Forward packet
      end
    end
    else begin
      t.checked <- t.checked + 1;
      if Mmt.Header.View.verify view then Element.Forward packet
      else begin
        t.failed <- t.failed + 1;
        Element.Discard "checksum-verify: header checksum mismatch"
      end
    end

let create () =
  let rec t =
    {
      checked = 0;
      failed = 0;
      passed = 0;
      element =
        lazy
          {
            Element.name = "checksum-verify";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element
let stats t = { checked = t.checked; failed = t.failed; passed = t.passed }
