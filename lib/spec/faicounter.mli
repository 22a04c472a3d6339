(** Fetch&increment counter — the paper's central example
    (Section 3.2): one operation, [fetch&inc], returning the old value.
    Deterministic, infinite state space, consensus number 2, and the
    object for which eventual linearizability is provably as hard as
    linearizability (Prop. 18). *)

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> unit -> Spec.t
