(** Mutable fixed-width bitsets.

    The placed-operation set of the linearizability checkers' DFS:
    {!set} on placement and {!clear} on backtrack, in place, so a DFS
    node allocates no set of its own.  Indices range over [0, width);
    {!mem}, {!set} and {!clear} raise [Invalid_argument] out of
    range. *)

type t

(** [create width] — a fresh set with no members. *)
val create : int -> t

(** [mem t i] — membership. *)
val mem : t -> int -> bool

(** [set t i] — add [i] to [t] in place (no-op if present). *)
val set : t -> int -> unit

(** [clear t i] — remove [i] from [t] in place (no-op if absent). *)
val clear : t -> int -> unit

(** The backing words, for tables that store a set's contents
    unboxed: [word t k] for [k] in [0, word_count t).  Equal sets of
    equal width have equal words. *)
val word_count : t -> int

val word : t -> int -> int

val cardinal : t -> int
val is_empty : t -> bool

(** [is_full t] holds when every index in [0, width) is present. *)
val is_full : t -> bool

val equal : t -> t -> bool
val hash : t -> int

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list t] — members in increasing order. *)
val to_list : t -> int list

(** [of_list width xs] — a fresh set of [xs]. *)
val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit
