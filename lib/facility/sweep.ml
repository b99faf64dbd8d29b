let log_points ?(lo = 10) ?(hi = 1000) () =
  let rec decades d acc =
    if d > hi then List.rev acc
    else
      let acc = if d >= lo then d :: acc else acc in
      let acc = if 3 * d >= lo && 3 * d <= hi then (3 * d) :: acc else acc in
      decades (10 * d) acc
  in
  decades 1 []

let effective_jobs jobs n =
  let cap = Mmt_util.Task_pool.recommended_jobs () in
  let requested = if jobs <= 0 then cap else min jobs cap in
  max 1 (min requested n)

let run ?(jobs = 1) ~base ~points () =
  let points = Array.of_list points in
  let n = Array.length points in
  let results = Array.make n None in
  let one i =
    let flows = points.(i) in
    results.(i) <-
      Some (flows, Scenario.run { base with Scenario.flows })
  in
  let jobs = effective_jobs jobs n in
  if jobs = 1 then
    for i = 0 to n - 1 do
      one i
    done
  else begin
    (* Work-stealing over an atomic index; slots keep point order so
       parallel output matches sequential byte for byte. *)
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        one i;
        worker ()
      end
    in
    Mmt_util.Task_pool.run (Mmt_util.Task_pool.shared ()) ~extra:(jobs - 1) worker
  end;
  Array.to_list results
  |> List.map (function Some r -> r | None -> assert false)
