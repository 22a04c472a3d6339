(** Swap register: [swap v] atomically installs [v] and returns the old
    value; [read] included.  Consensus number 2 — a one-instruction
    cousin of test&set that, unlike test&set, stays "interesting
    forever" (every swap observes fresh state), putting it on the
    fetch&increment side of the paper's paradox. *)

let swap v = Op.make "swap" ~args:[ Value.int v ]

let unknown other = invalid_arg ("swap-register: unknown operation " ^ other)

let response q op =
  match Op.name op, Op.args op with
  | ("swap", [ _ ]) | ("read", []) -> q
  | other, _ -> unknown other

let next q op =
  match Op.name op, Op.args op with
  | "swap", [ v ] -> v
  | "read", [] -> q
  | other, _ -> unknown other

let spec ?(initial = 0) ?(domain = [ 0; 1; 2 ]) () =
  Spec.deterministic ~name:"swap-register" ~initial:(Value.int initial)
    ~response ~next
    ~all_ops:(Op.read :: List.map swap domain)
