(** Compare&swap register — the hardware primitive of the paper's
    introduction.  [cas e d] returns whether the old value was [e]
    (installing [d] if so); [read]/[write] included.  Universal
    consensus number. *)

val default_domain : int list

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> ?domain:int list -> unit -> Spec.t
