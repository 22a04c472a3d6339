(** Announce board: an append/read-all log object.

    State is the list of announced entries; [announce v] appends [v]
    and returns the number of earlier announcements; [read-log] returns
    the whole log.  This is a *history object*: linearizable
    implementations from single-writer registers exist in principle
    (each process appends to its own unbounded register array and
    readers collect, as in the appendix of the paper), so using one
    linearizable board as a base object stays within register-plus-
    synchronization substrates while keeping programmes short enough to
    model-check exhaustively. *)

let announce v = Op.make "announce" ~args:[ v ]
let read_log = Op.make "read-log"

let unknown other = invalid_arg ("announce-board: unknown operation " ^ other)

let response q op =
  let entries = Value.to_list q in
  match Op.name op, Op.args op with
  | "announce", [ _ ] -> Value.int (List.length entries)
  | "read-log", [] -> q
  | other, _ -> unknown other

let next q op =
  let entries = Value.to_list q in
  match Op.name op, Op.args op with
  | "announce", [ v ] -> Value.list (entries @ [ v ])
  | "read-log", [] -> q
  | other, _ -> unknown other

let spec ?(domain = [ 0; 1 ]) () =
  Spec.deterministic ~name:"announce-board" ~initial:(Value.list [])
    ~response ~next
    ~all_ops:(read_log :: List.map (fun v -> announce (Value.int v)) domain)
