(** Single-writer atomic snapshot with [n] components.

    [update i v] stores [v] in component [i]; [scan] returns the whole
    vector.  Deterministic, register-equivalent in power; included so
    that the locality experiments (Lemmas 7–8 / Prop. 9) exercise a
    type whose states are composite values. *)

let unknown other = invalid_arg ("snapshot: unknown operation " ^ other)

(* The component [update] writes, checked against the state's width. *)
let component components idx =
  let i = Value.to_int idx in
  if i < 0 || i >= List.length components then
    invalid_arg "snapshot: component index out of range"
  else i

let response q op =
  let components = Value.to_list q in
  match Op.name op, Op.args op with
  | "scan", [] -> q
  | "update", [ idx; _ ] ->
    ignore (component components idx);
    Value.unit
  | other, _ -> unknown other

let next q op =
  let components = Value.to_list q in
  match Op.name op, Op.args op with
  | "scan", [] -> q
  | "update", [ idx; v ] ->
    let i = component components idx in
    Value.list (List.mapi (fun j c -> if j = i then v else c) components)
  | other, _ -> unknown other

let spec ?(components = 2) ?(domain = [ 0; 1 ]) () =
  let updates =
    List.concat_map
      (fun i -> List.map (fun v -> Op.update ~index:i v) domain)
      (List.init components (fun i -> i))
  in
  Spec.deterministic ~name:"snapshot"
    ~initial:(Value.list (List.init components (fun _ -> Value.int 0)))
    ~response ~next ~all_ops:(Op.scan :: updates)
