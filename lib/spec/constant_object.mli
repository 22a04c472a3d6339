(** Constant object — the paradigm of a trivial type (Definition 13):
    every operation's response is computable from the initial state
    alone.  The positive case of the Prop. 14 classifier. *)

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?value:int -> unit -> Spec.t
