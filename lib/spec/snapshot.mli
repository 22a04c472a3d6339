(** Atomic snapshot with [components] cells: [update i v] and [scan].
    Exercises composite state values in the locality experiments. *)

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?components:int -> ?domain:int list -> unit -> Spec.t
