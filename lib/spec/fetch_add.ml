(** Fetch&add: [fetch&add k] adds [k] and returns the old value — the
    k-ary generalization of fetch&increment ([fetch&inc] is accepted as
    an alias for [fetch&add 1]).  Same consensus power and the same
    "synchronization forever" character. *)

let fetch_add k = Op.make "fetch&add" ~args:[ Value.int k ]

let unknown other = invalid_arg ("fetch&add: unknown operation " ^ other)

let response q op =
  match Op.name op, Op.args op with
  | ("fetch&add", [ _ ]) | ("fetch&inc", []) | ("read", []) -> q
  | other, _ -> unknown other

let next q op =
  match Op.name op, Op.args op with
  | "fetch&add", [ k ] -> Value.int (Value.to_int q + Value.to_int k)
  | "fetch&inc", [] -> Value.int (Value.to_int q + 1)
  | "read", [] -> q
  | other, _ -> unknown other

let spec ?(initial = 0) ?(increments = [ 1; 2; 5 ]) () =
  Spec.deterministic ~name:"fetch&add" ~initial:(Value.int initial) ~response
    ~next
    ~all_ops:(List.map fetch_add increments)
