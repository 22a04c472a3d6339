(** Read/write register over integers.

    The canonical "simple linearizable object" of the paper: state is
    the last written value; [read] returns it; [write v] returns unit.
    Deterministic, consensus number 1. *)

let default_domain = [ 0; 1; 2 ]

let written op =
  match Op.args op with
  | [ v ] -> v
  | _ -> invalid_arg "register: write takes one argument"

let unknown other = invalid_arg ("register: unknown operation " ^ other)

let response q op =
  match Op.name op with
  | "read" -> q
  | "write" ->
    ignore (written op);
    Value.unit
  | other -> unknown other

let next q op =
  match Op.name op with
  | "read" -> q
  | "write" -> written op
  | other -> unknown other

let spec ?(initial = 0) ?(domain = default_domain) () =
  Spec.deterministic ~name:"register" ~initial:(Value.int initial) ~response
    ~next
    ~all_ops:(Op.read :: List.map Op.write domain)

(** Register over arbitrary values (e.g. the ⊥-initialized proposal
    registers of Proposition 16). *)
let spec_value ~initial ~domain () =
  Spec.deterministic ~name:"register" ~initial ~response ~next
    ~all_ops:(Op.read :: List.map Op.write_value domain)
