(** Read/write register over integers — the canonical "simple
    linearizable object" of the paper.  Deterministic, consensus
    number 1. *)

val default_domain : int list

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t

(** [spec ?initial ?domain ()] — [domain] populates [Spec.all_ops]. *)
val spec : ?initial:int -> ?domain:int list -> unit -> Spec.t

(** Register over arbitrary values (e.g. the ⊥-initialized proposal
    registers of Proposition 16). *)
val spec_value : initial:Value.t -> domain:Value.t list -> unit -> Spec.t
