(** Consensus object: each [propose] returns the argument of the first
    proposal to be linearized (Section 4).  The hardest object to
    implement linearizably (it is universal), and trivial to implement
    in an eventually linearizable way (Prop. 16). *)

(** The pre-decision state value. *)
val undecided : Value.t

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t

(** [spec ?domain ()] — [domain] populates [Spec.all_ops] with
    [propose v] invocations. *)
val spec : ?domain:int list -> unit -> Spec.t
