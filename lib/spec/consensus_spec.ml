(** Consensus object.

    "Each propose operation returns the value used as the argument of
    the first propose operation to be linearized" (Section 4).  State
    is [None] before any proposal and [Some v] after; deterministic;
    one-shot in the sense that the state never changes after the first
    operation — which is exactly why it admits a trivial eventually
    linearizable implementation (Prop. 16). *)

let undecided = Value.str "undecided"

(* The response and the next state coincide: the decided value. *)
let response q op =
  match Op.name op, Op.args op with
  | "propose", [ v ] -> if Value.equal q undecided then v else q
  | other, _ -> invalid_arg ("consensus: unknown operation " ^ other)

let next = response

let spec ?(domain = [ 0; 1 ]) () =
  Spec.deterministic ~name:"consensus" ~initial:undecided ~response ~next
    ~all_ops:(List.map Op.propose domain)
