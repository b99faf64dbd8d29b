type t = {
  engine : Engine.t;
  trace : Trace.t option;
  ring : Ring.t;
  mutable next_id : int;
  node_by_name : (string, Node.t) Hashtbl.t;
  mutable node_order : Node.t list; (* reversed *)
  mutable link_order : Link.t list; (* reversed *)
}

let create ~engine ?trace () =
  {
    engine;
    trace;
    ring = Ring.create ();
    next_id = 0;
    node_by_name = Hashtbl.create 16;
    node_order = [];
    link_order = [];
  }

let engine t = t.engine
let trace t = t.trace
let ring t = Some t.ring

let fresh_packet_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add_node t ~name =
  if Hashtbl.mem t.node_by_name name then
    invalid_arg ("Topology.add_node: duplicate node " ^ name);
  let node = Node.create ~name in
  Hashtbl.replace t.node_by_name name node;
  t.node_order <- node :: t.node_order;
  node

let find_node t name =
  match Hashtbl.find_opt t.node_by_name name with
  | Some node -> node
  | None -> raise Not_found

let connect t ~src ~dst ~rate ~propagation ?loss ?queue () =
  let name = Node.name src ^ "->" ^ Node.name dst in
  let observer =
    Option.map (fun trace -> Trace.observer trace ~engine:t.engine ~link:name) t.trace
  in
  let link =
    Link.create ~engine:t.engine ~name ~rate ~propagation ?loss ?queue
      ~ring:t.ring ?observer ~deliver:(Node.handle dst) ()
  in
  t.link_order <- link :: t.link_order;
  link

let duplex t ~a ~b ~rate ~propagation =
  let ab = connect t ~src:a ~dst:b ~rate ~propagation () in
  let ba = connect t ~src:b ~dst:a ~rate ~propagation () in
  (ab, ba)

let links t = List.rev t.link_order
let nodes t = List.rev t.node_order
