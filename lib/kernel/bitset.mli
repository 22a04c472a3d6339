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
    unboxed and for scans that walk the members word by word: [word t
    k] for [k] in [0, word_count t) holds members [k * bits_per_word]
    to [(k + 1) * bits_per_word - 1], member [k * bits_per_word + i]
    as bit [i].  Equal sets of equal width have equal words. *)
val word_count : t -> int

val word : t -> int -> int

(** Members per word: 62, so every word is a non-negative [int]. *)
val bits_per_word : int

(** [bit_index b] — [i] for the word [b = 1 lsl i], [0 <= i <
    bits_per_word]; unspecified for any other [b].  With [b = w land
    (-w)] it is the lowest member of a nonzero word [w], so a scan
    visits the members of [word t k] in ascending order by clearing
    [b] from [w] each step, without allocating. *)
val bit_index : int -> int

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
