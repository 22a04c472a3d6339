(** Plain counter (inc/read).  Unlike fetch&increment, [inc] returns no
    information, so the type is strictly weaker (consensus number 1);
    the natural object for the introduction's reference-counting
    scenario. *)

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> unit -> Spec.t
