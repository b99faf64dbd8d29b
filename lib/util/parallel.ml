(* More domains than cores only slows a sweep down: simulations are
   allocation-heavy, and oversubscribed domains thrash the minor heap
   (4 domains on 1 core ran the registry 3x slower than sequential).
   Spawning and joining a domain costs about 2 ms, once per call, so
   helpers are not kept alive between calls. *)
let init ~jobs n f =
  let cores = Domain.recommended_domain_count () in
  let domains = min n (if jobs <= 0 then cores else min jobs cores) in
  if domains <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f i);
        work ()
      end
    in
    let helpers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
    let caller = try work (); None with e -> Some e in
    let joined =
      List.map (fun h -> try Domain.join h; None with e -> Some e) helpers
    in
    match List.find_map Fun.id (caller :: joined) with
    | Some e -> raise e
    | None -> Array.map Option.get results
  end
