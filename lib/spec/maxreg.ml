(** Max register.

    [max-write v] raises the stored maximum; [max-read] returns it.
    A standard intermediate-strength type: like test&set it "calms
    down" once the maximum of all written values is reached, making it
    a useful extra probe for the triviality classifier and the
    eventual-linearizability experiments. *)

let default_domain = [ 0; 1; 2; 3 ]

let unknown other = invalid_arg ("max-register: unknown operation " ^ other)

let response q op =
  match Op.name op, Op.args op with
  | "max-read", [] -> q
  | "max-write", [ _ ] -> Value.unit
  | other, _ -> unknown other

let next q op =
  match Op.name op, Op.args op with
  | "max-read", [] -> q
  | "max-write", [ v ] -> Value.int (max (Value.to_int q) (Value.to_int v))
  | other, _ -> unknown other

let spec ?(initial = 0) ?(domain = default_domain) () =
  Spec.deterministic ~name:"max-register" ~initial:(Value.int initial)
    ~response ~next
    ~all_ops:(Op.max_read :: List.map Op.max_write domain)
