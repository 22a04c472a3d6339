(** FIFO queue of integers.

    [enq v] appends; [deq] removes and returns the head, or the
    distinguished value [empty] when there is none.  Deterministic,
    consensus number 2 — another "requires synchronization forever"
    type in the sense of the paper's paradox discussion. *)

let empty_response = Value.str "empty"

let unknown other = invalid_arg ("queue: unknown operation " ^ other)

let response q op =
  let items = Value.to_list q in
  match Op.name op, Op.args op with
  | "enq", [ _ ] -> Value.unit
  | "deq", [] -> ( match items with [] -> empty_response | hd :: _ -> hd)
  | other, _ -> unknown other

let next q op =
  let items = Value.to_list q in
  match Op.name op, Op.args op with
  | "enq", [ v ] -> Value.list (items @ [ v ])
  | "deq", [] -> ( match items with [] -> q | _ :: tl -> Value.list tl)
  | other, _ -> unknown other

let spec ?(domain = [ 0; 1; 2 ]) () =
  Spec.deterministic ~name:"queue" ~initial:(Value.list []) ~response ~next
    ~all_ops:(Op.deq :: List.map Op.enq domain)
