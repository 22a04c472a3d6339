(** The failure memo shared by the DFS checkers: a set of keys
    (placed-operation set, per-object state vector), with state
    equality and hashing routed through [Value.equal] / [Value.hash].

    Keys are copied into flat arrays on insertion and compared in full
    on every hash match; lookups read the caller's live placed set and
    state vector and allocate nothing.  One table per search: a table
    is not safe to share between domains. *)

open Elin_kernel
open Elin_spec

type t

(** [create ~width ~arity] — an empty table for placed sets of
    [width] bits and state vectors of [arity] entries.  Small enough
    to live in the minor heap; it grows as the search needs it. *)
val create : width:int -> arity:int -> t

(** [mem t placed states] — is the key present?  [Invalid_argument]
    if the key's shape differs from the table's. *)
val mem : t -> Bitset.t -> Value.t array -> bool

(** [add t placed states] — insert a copy of the key; [true] iff it
    was absent.  Later changes to [placed] or [states] do not affect
    the table. *)
val add : t -> Bitset.t -> Value.t array -> bool

(** Number of keys. *)
val length : t -> int

(** [states t] — every key's state vector (fresh arrays), in
    insertion order. *)
val states : t -> Value.t array list

(** [hash placed states] — the hash the table files a key under;
    equal keys hash equal. *)
val hash : Bitset.t -> Value.t array -> int

(** [mem_hashed t placed states h] and [add_hashed t placed states h]
    are {!mem} and {!add} given [h = hash placed states], so a search
    that probes a key and later inserts it hashes it once.  Any other
    [h] makes the table's answers unspecified. *)
val mem_hashed : t -> Bitset.t -> Value.t array -> int -> bool

val add_hashed : t -> Bitset.t -> Value.t array -> int -> bool
