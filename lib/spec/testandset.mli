(** Test&set bit — the paper's example of a long-lived type that is
    "interesting only in a finite prefix" of each execution, hence
    trivially eventually linearizable (Section 4). *)

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?initial:int -> unit -> Spec.t
