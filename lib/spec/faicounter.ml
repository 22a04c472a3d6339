(** Fetch&increment counter.

    The paper's central example: "stores a natural number and provides
    a single operation, fetch&inc, which adds one to the value stored
    and returns the old value" (Section 3.2).  Deterministic, infinite
    state space, consensus number 2 — and the object for which eventual
    linearizability is provably as hard as linearizability (Prop. 18). *)

let unknown other = invalid_arg ("fetch&increment: unknown operation " ^ other)

(* [read] is a read-only probe; not part of the paper's minimal type but
   convenient for examples.  Excluded from [all_ops] so that
   theorem-level experiments use the pure one-operation type. *)
let response q op =
  match Op.name op with
  | "fetch&inc" -> Value.int (Value.to_int q)
  | "read" -> q
  | other -> unknown other

let next q op =
  match Op.name op with
  | "fetch&inc" -> Value.int (Value.to_int q + 1)
  | "read" -> q
  | other -> unknown other

let spec ?(initial = 0) () =
  Spec.deterministic ~name:"fetch&increment" ~initial:(Value.int initial)
    ~response ~next ~all_ops:[ Op.fetch_inc ]
