(** Fetch&add: the k-ary generalization of fetch&increment
    ([fetch&inc] accepted as an alias for [fetch&add 1]). *)

val fetch_add : int -> Op.t

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> ?increments:int list -> unit -> Spec.t
