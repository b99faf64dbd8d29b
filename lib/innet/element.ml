open Mmt_util

type outcome =
  | Forward of Mmt_sim.Packet.t
  | Replicate of Mmt_sim.Packet.t list
  | Discard of string

type t = {
  name : string;
  program : Op.program;
  process : now:Units.Time.t -> Mmt_sim.Packet.t -> outcome;
}

let passthrough =
  {
    name = "passthrough";
    program = { Op.name = "passthrough"; ops = [] };
    process = (fun ~now:_ packet -> Forward packet);
  }

let rec chain elements ~now packet =
  match elements with
  | [] -> Forward packet
  | element :: rest -> (
      match element.process ~now packet with
      | Discard _ as discard -> discard
      | Forward packet -> chain rest ~now packet
      | Replicate copies ->
          let survivors =
            List.concat_map
              (fun copy ->
                match chain rest ~now copy with
                | Forward p -> [ p ]
                | Replicate ps -> ps
                | Discard _ -> [])
              copies
          in
          Replicate survivors)
