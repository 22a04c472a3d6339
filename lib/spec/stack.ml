(** LIFO stack of integers.

    [push v] pushes; [pop] removes and returns the top, or the
    distinguished value [empty].  Deterministic, consensus number 2. *)

let empty_response = Value.str "empty"

let unknown other = invalid_arg ("stack: unknown operation " ^ other)

let response q op =
  let items = Value.to_list q in
  match Op.name op, Op.args op with
  | "push", [ _ ] -> Value.unit
  | "pop", [] -> ( match items with [] -> empty_response | hd :: _ -> hd)
  | other, _ -> unknown other

let next q op =
  let items = Value.to_list q in
  match Op.name op, Op.args op with
  | "push", [ v ] -> Value.list (v :: items)
  | "pop", [] -> ( match items with [] -> q | _ :: tl -> Value.list tl)
  | other, _ -> unknown other

let spec ?(domain = [ 0; 1; 2 ]) () =
  Spec.deterministic ~name:"stack" ~initial:(Value.list []) ~response ~next
    ~all_ops:(Op.pop :: List.map Op.push domain)
