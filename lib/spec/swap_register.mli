(** Swap register: [swap v] atomically installs [v] and returns the
    old value.  Consensus number 2; stays "interesting forever", like
    fetch&increment. *)

val swap : int -> Op.t

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> ?domain:int list -> unit -> Spec.t
