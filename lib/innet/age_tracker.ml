type stats = { touched : int; aged_marked : int; untracked : int }

type t = {
  mutable touched : int;
  mutable aged_marked : int;
  mutable untracked : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "age-tracker";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "features.age_tracked";
        Op.Extract "age.last_touch";
        Op.Add_to_field "age.age_us";
        Op.Compare "age.budget_us";
        Op.Set_flag "age.aged";
        Op.Add_to_field "age.hop_count";
        Op.Set_field "age.last_touch";
      ];
  }

let process t ~now packet =
  let hv = Mmt.Header_vector.of_packet packet in
  let view = Mmt.Header_vector.view hv in
  if
    not
      (Mmt.Header_vector.parsed hv
      && Mmt.Header.View.has view Mmt.Feature.Age_tracked)
  then t.untracked <- t.untracked + 1
  else begin
    let was_aged = Mmt.Header.View.aged view in
    let _age_us, aged = Mmt.Header.View.touch_age view ~now in
    t.touched <- t.touched + 1;
    if aged && not was_aged then t.aged_marked <- t.aged_marked + 1
  end;
  Element.Forward packet

let create () =
  let rec t =
    {
      touched = 0;
      aged_marked = 0;
      untracked = 0;
      element =
        lazy
          {
            Element.name = "age-tracker";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element

let stats t =
  { touched = t.touched; aged_marked = t.aged_marked; untracked = t.untracked }
