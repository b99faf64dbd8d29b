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
(* Fragments: [decode] never raises, and [read_header] accepts exactly
   what [read] accepts without raising either.  Arbitrary bytes rarely
   pass the magic, so half the inputs are a valid fragment of each
   detector kind with one byte overwritten, and half of those are cut
   short at a random length. *)
let fragment_inputs =
  let valid =
    List.map
      (fun detector ->
        Mmt_daq.Fragment.encode
          {
            Mmt_daq.Fragment.run = 3;
            trigger = 7;
            timestamp = Mmt_util.Units.Time.us 5.;
            experiment = Mmt.Experiment_id.make ~experiment:2 ~slice:1;
            detector;
            payload = Bytes.make 40 'f';
          })
      [
        Mmt_daq.Fragment.Wib_ethernet
          { crate = 1; slot = 2; fiber = 3; first_channel = 0; channel_count = 64 };
        Mmt_daq.Fragment.Photon_detector { module_id = 9; sipm_count = 48; gain = 7 };
        Mmt_daq.Fragment.Beam_instrument { device = 7; sample_rate_khz = 2000; adc_bits = 14 };
        Mmt_daq.Fragment.Telescope_alert
          { alert_id = 5; ra_udeg = 0x123456; dec_udeg = 0x0ABCDE; severity = 9 };
      ]
  in
  let mutated =
    QCheck.Gen.(
      map
        (fun ((frame, cut), (position, value, keep)) ->
          let buf = Bytes.copy frame in
          Bytes.set buf (position mod Bytes.length buf) (Char.chr value);
          if cut then Bytes.sub buf 0 (keep mod Bytes.length buf) else buf)
        (pair (pair (oneofl valid) bool) (triple nat (int_range 0 255) nat)))
  in
  QCheck.make
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    QCheck.Gen.(oneof [ QCheck.gen arbitrary_bytes; mutated ])

let qcheck_fragment =
  QCheck.Test.make ~name:"Fragment.decode total" ~count:1000 fragment_inputs
    (fun buf ->
      match
        ( Mmt_daq.Fragment.decode buf,
          Mmt_daq.Fragment.read_header (Mmt_wire.Cursor.Reader.of_bytes buf) )
      with
      | Ok _, Ok _ | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false
      | exception _ -> false)
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
