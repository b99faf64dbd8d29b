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
(* Half arbitrary bytes, half one of [valid] with one byte overwritten,
   half of those cut short: arbitrary bytes rarely pass a magic byte or
   a checksum. *)
let mutated_inputs valid =
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

(* Fragments: [decode] never raises, and [read_header] accepts exactly
   what [read] accepts without raising either, on a valid fragment of
   each detector kind. *)
let fragment_inputs =
  mutated_inputs
    (List.map
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
       ])

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

(* Segments: the in-place reader against a Cursor-based reference
   parse, field by field. *)
let segment_inputs =
  mutated_inputs
    (List.map Mmt_tcp.Segment.encode
       [
         Mmt_tcp.Segment.data ~src_port:3 ~dst_port:4 ~seq:1_000_000 ~ack:77
           ~window:65536 (Bytes.make 20 's');
         Mmt_tcp.Segment.pure_ack ~src_port:4 ~dst_port:4 ~ack:123_456_789
           ~window:(1 lsl 31);
       ])

let reference_segment buf =
  let module R = Mmt_wire.Cursor.Reader in
  match
    let r = R.of_bytes buf in
    if R.u8 r <> 0x54 then None
    else begin
      let flags = R.u8 r in
      let src_port = R.u16 r in
      let dst_port = R.u16 r in
      let seq = Int64.to_int (R.u64 r) in
      let ack = Int64.to_int (R.u64 r) in
      let window = R.u32_int r in
      let length = R.u16 r in
      if R.remaining r < length then None
      else Some (flags land 7, src_port, dst_port, seq, ack, window, R.take r length)
    end
  with
  | parsed -> parsed
  | exception Mmt_wire.Cursor.Out_of_bounds _ -> None

let qcheck_segment_reader =
  QCheck.Test.make ~name:"segment reader matches reference parse" ~count:1000
    segment_inputs (fun buf ->
      let module S = Mmt_tcp.Segment in
      match (S.check buf, S.decode buf, reference_segment buf) with
      | Error _, Error _, None -> true
      | Ok (), Ok decoded, Some (flags, src_port, dst_port, seq, ack, window, payload)
        ->
          let f = S.flags buf in
          flags
          = ((if f.S.syn then 1 else 0) lor (if f.S.ack then 2 else 0)
            lor if f.S.fin then 4 else 0)
          && S.src_port buf = src_port && S.dst_port buf = dst_port
          && S.seq buf = seq && S.ack buf = ack && S.window buf = window
          && S.payload_length buf = Bytes.length payload
          && Bytes.equal decoded.S.payload payload
          && decoded.S.seq = seq && decoded.S.flags = f
      | _ -> false
      | exception _ -> false)

(* The baseline endpoints consume whatever arrives: arbitrary or mangled
   frames, any padding, with data in flight so ACK processing runs.  They
   must neither raise nor leak the frame. *)
let qcheck_connection_total =
  QCheck.Test.make ~name:"connection survives arbitrary packets" ~count:500
    QCheck.(pair segment_inputs (int_range 0 20_000))
    (fun (buf, padding) ->
      let engine = Mmt_sim.Engine.create () in
      let ring = Mmt_sim.Ring.create () in
      let connection =
        Mmt_tcp.Connection.create ~engine ~ring ~fresh_id:(fun () -> 0)
          ~config:Mmt_tcp.Connection.default_config ~port:4
          ~tx:(Mmt_sim.Ring.in_packet_done ring)
          ()
      in
      Mmt_tcp.Connection.write connection 50_000;
      let packet =
        Mmt_sim.Ring.alloc ring ~padding ~id:0 ~born:Mmt_util.Units.Time.zero buf
      in
      match
        Mmt_tcp.Connection.on_packet connection packet;
        Mmt_sim.Engine.run ~until:(Mmt_util.Units.Time.seconds 1.) engine
      with
      | () -> (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use = 0
      | exception _ -> false)

let udp_inputs =
  let payload = Bytes.make 32 'u' in
  let w = Mmt_wire.Cursor.Writer.create 60 in
  Mmt_frame.Ipv4.write w
    {
      Mmt_frame.Ipv4.dscp = 0;
      ttl = 64;
      protocol = Mmt_frame.Ipv4.protocol_udp;
      src = Mmt_frame.Addr.Ip.of_octets 10 0 0 1;
      dst = Mmt_frame.Addr.Ip.of_octets 10 0 0 2;
      payload_length = Mmt_frame.Udp.header_size + Bytes.length payload;
    };
  Mmt_frame.Udp.write w
    { Mmt_frame.Udp.src_port = 1; dst_port = 2; payload_length = Bytes.length payload };
  Mmt_wire.Cursor.Writer.bytes w payload;
  mutated_inputs [ Mmt_wire.Cursor.Writer.contents w ]

let qcheck_udp_receiver_total =
  QCheck.Test.make ~name:"udp receiver survives arbitrary packets" ~count:500
    udp_inputs (fun buf ->
      let ring = Mmt_sim.Ring.create () in
      let receiver =
        Mmt_tcp.Udp_transport.create_receiver ~ring
          ~deliver:(fun ~src:_ ~src_port:_ payload ->
            ignore (Mmt_wire.Cursor.Reader.rest payload))
          ()
      in
      let packet =
        Mmt_sim.Ring.alloc ring ~id:0 ~born:Mmt_util.Units.Time.zero buf
      in
      match Mmt_tcp.Udp_transport.on_packet receiver packet with
      | () -> (Mmt_sim.Ring.stats ring).Mmt_sim.Ring.in_use = 0
      | exception _ -> false)
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
      qcheck_segment_reader;
      qcheck_connection_total;
      qcheck_udp_receiver_total;
      qcheck_nak;
      qcheck_deadline;
      qcheck_backpressure;
      qcheck_advert;
      qcheck_hits;
      qcheck_element_mutation;
      qcheck_receiver_total;
    ]
