(** Compare&swap register.

    The hardware primitive of the paper's introduction.  [cas e d]
    returns the old value and installs [d] iff the old value was [e];
    [read] and [write] are also provided.  Deterministic, universal
    consensus number — our linearizable fetch&increment baseline
    (experiment B1) is built from it. *)

let default_domain = [ 0; 1; 2 ]

let unknown other = invalid_arg ("cas: unknown operation " ^ other)

let response q op =
  match Op.name op, Op.args op with
  | "read", [] -> q
  | "write", [ _ ] -> Value.unit
  | "cas", [ expected; _ ] -> Value.bool (Value.equal q expected)
  | other, _ -> unknown other

let next q op =
  match Op.name op, Op.args op with
  | "read", [] -> q
  | "write", [ v ] -> v
  | "cas", [ expected; desired ] ->
    if Value.equal q expected then desired else q
  | other, _ -> unknown other

let spec ?(initial = 0) ?(domain = default_domain) () =
  let cas_ops =
    List.concat_map
      (fun e -> List.map (fun d -> Op.cas ~expected:e ~desired:d) domain)
      domain
  in
  Spec.deterministic ~name:"compare&swap" ~initial:(Value.int initial)
    ~response ~next
    ~all_ops:((Op.read :: List.map Op.write domain) @ cas_ops)
