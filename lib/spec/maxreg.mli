(** Max register: [max-write v] raises the stored maximum, [max-read]
    returns it.  Register-equivalent in power; "calms down" once the
    maximal value is written. *)

val default_domain : int list

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> ?domain:int list -> unit -> Spec.t
