(** Constant object — the paradigm of a trivial type (Definition 13).

    Every operation returns a value computed from the initial state
    only, and the state never changes; such a type "can be implemented
    without inter-process communication".  Used as the positive case of
    the Prop. 14 triviality classifier. *)

(* The response and the next state are both the state. *)
let response q op =
  match Op.name op with
  | "read" -> q
  | other -> invalid_arg ("constant: unknown operation " ^ other)

let next = response

let spec ?(value = 42) () =
  Spec.deterministic ~name:"constant" ~initial:(Value.int value) ~response
    ~next
    ~all_ops:[ Op.read ]
