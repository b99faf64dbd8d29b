(* Decoder robustness: every wire decoder must return [Error] (never
   raise, never loop) on arbitrary input — in-network elements parse
   whatever arrives. *)

let arbitrary_bytes =
  QCheck.map Bytes.of_string QCheck.(string_of_size (QCheck.Gen.int_range 0 600))

let never_raises name decode =
  QCheck.Test.make ~name ~count:1000 arbitrary_bytes (fun buf ->
      match decode buf with _ -> true | exception _ -> false)

let qcheck_header = never_raises "Header.decode_bytes total" Mmt.Header.decode_bytes
let qcheck_encap = never_raises "Encap.locate total" Mmt.Encap.locate
let qcheck_parse = never_raises "Encap.parse total" Mmt.Encap.parse
let qcheck_fragment = never_raises "Fragment.decode total" Mmt_daq.Fragment.decode
let qcheck_segment = never_raises "Segment.decode total" Mmt_tcp.Segment.decode
let qcheck_nak = never_raises "Nak.decode total" Mmt.Control.Nak.decode

let qcheck_deadline =
  never_raises "Deadline_exceeded.decode total" Mmt.Control.Deadline_exceeded.decode

let qcheck_backpressure =
  never_raises "Backpressure.decode total" Mmt.Control.Backpressure.decode

let qcheck_advert =
  never_raises "Buffer_advert.decode total" Mmt.Control.Buffer_advert.decode

let qcheck_hits =
  never_raises "Lartpc.deserialize_hits total" Mmt_daq.Lartpc.deserialize_hits

(* Mutation fuzz: flip bytes of a VALID frame and feed the in-network
   elements; they must forward or discard, never crash. *)
let qcheck_element_mutation =
  let experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:0 in
  let base_frame =
    Mmt.Encap.wrap
      (Mmt.Encap.Over_ipv4
         {
           src = Mmt_frame.Addr.Ip.of_octets 10 0 0 1;
           dst = Mmt_frame.Addr.Ip.of_octets 10 0 0 2;
           dscp = 0;
           ttl = 64;
         })
      (Bytes.cat
         (Mmt.Header.encode
            (Mmt.Header.with_sequence (Mmt.Header.mode0 ~experiment) 5))
         (Bytes.make 64 'p'))
  in
  let mode =
    Mmt.Mode.make ~name:"fuzz" ~reliable:(Mmt_frame.Addr.Ip.of_octets 10 0 0 9)
      ~age_budget_us:100 ()
  in
  QCheck.Test.make ~name:"elements survive mutated frames" ~count:500
    QCheck.(pair (int_range 0 (Bytes.length base_frame - 1)) (int_range 0 255))
    (fun (position, value) ->
      let frame = Bytes.copy base_frame in
      Bytes.set frame position (Char.chr value);
      let packet =
        Mmt_sim.Packet.create ~id:0 ~born:Mmt_util.Units.Time.zero frame
      in
      let rewriter =
        Mmt_innet.Mode_rewriter.create ~pool:(Mmt_sim.Pool.create ()) ~mode ()
      in
      let tracker = Mmt_innet.Age_tracker.create () in
      let elements =
        [ Mmt_innet.Mode_rewriter.element rewriter;
          Mmt_innet.Age_tracker.element tracker ]
      in
      match
        Mmt_innet.Element.chain elements ~now:Mmt_util.Units.Time.zero packet
      with
      | Mmt_innet.Element.Forward _ | Mmt_innet.Element.Replicate _
      | Mmt_innet.Element.Discard _ ->
          true
      | exception _ -> false)

(* Receiver total on arbitrary packets. *)
let qcheck_receiver_total =
  QCheck.Test.make ~name:"receiver survives arbitrary packets" ~count:500
    arbitrary_bytes
    (fun buf ->
      let engine = Mmt_sim.Engine.create () in
      let env, _ = Mmt_runtime.Env.loopback engine in
      let receiver =
        Mmt.Receiver.create ~env
          {
            Mmt.Receiver.experiment = Mmt.Experiment_id.make ~experiment:1 ~slice:0;
            nak_delay = Mmt_util.Units.Time.ms 1.;
            nak_retry_timeout = Mmt_util.Units.Time.ms 5.;
            max_nak_retries = 1;
            expected_total = None;
          }
          ~deliver:(fun _ _ -> ())
      in
      let packet = Mmt_sim.Packet.create ~id:0 ~born:Mmt_util.Units.Time.zero buf in
      match
        Mmt.Receiver.on_packet receiver packet;
        Mmt_sim.Engine.run engine
      with
      | () -> true
      | exception _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_header;
      qcheck_encap;
      qcheck_parse;
      qcheck_fragment;
      qcheck_segment;
      qcheck_nak;
      qcheck_deadline;
      qcheck_backpressure;
      qcheck_advert;
      qcheck_hits;
      qcheck_element_mutation;
      qcheck_receiver_total;
    ]
