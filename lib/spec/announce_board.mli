(** Announce board: an append/read-all log object.  A history object
    buildable in principle from single-writer register arrays (as in
    the paper's appendix); used as the announcement substrate by the
    Figure-1 guard and the board-based fetch&increment
    implementations. *)

(** [announce v] appends [v] and returns the number of earlier
    announcements. *)
val announce : Value.t -> Op.t

(** [read_log] returns the whole log. *)
val read_log : Op.t

(** [response q op] and [next q op] — the unique transition from [q]
    on [op]. *)
val response : Value.t -> Op.t -> Value.t
val next : Value.t -> Op.t -> Value.t
val spec : ?domain:int list -> unit -> Spec.t
