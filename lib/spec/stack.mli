(** LIFO stack of integers; [pop] on empty returns {!empty_response}.
    Consensus number 2. *)

val empty_response : Value.t

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?domain:int list -> unit -> Spec.t
