(** The failure memo shared by the DFS checkers: a set of keys
    (placed-operation set, per-object state vector), with state
    equality and hashing routed through [Value.equal] / [Value.hash].

    Keys are copied into flat arrays on insertion and compared in full
    on every hash match; lookups read the caller's live placed set and
    state vector and allocate nothing.  A table serves one search at a
    time and is not safe to share between domains: the checkers
    {!borrow} their domain's spare table for the length of a run. *)

open Elin_kernel
open Elin_spec

type t

(** [create ~width ~arity] — an empty table for placed sets of
    [width] bits and state vectors of [arity] entries.  Small enough
    to live in the minor heap; it grows as the search needs it.
    [Invalid_argument] if [width] is negative. *)
val create : width:int -> arity:int -> t

(** [borrow ~width ~arity f] — [f t] on an empty table [t] of that
    shape: the spare table of the calling domain when it has one of
    that shape, else a fresh one.  The table goes back to the domain,
    emptied, when [f] returns or raises, unless it has grown past a
    fixed retention bound (4 096 slots), in which case it is dropped.
    While [f] runs the domain has no spare, so a borrow nested inside
    [f] (from a [poll] hook) or made by another systhread of the
    domain gets a fresh table.  [t] must not be used after [f]
    returns. *)
val borrow : width:int -> arity:int -> (t -> 'a) -> 'a

(** [clear t] — remove every key, in time proportional to the number
    of keys, not the table's capacity, which it keeps. *)
val clear : t -> unit

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

(** [spare_slots ()] — the slot count of the spare table the calling
    domain holds, 0 if it holds none.  For tests. *)
val spare_slots : unit -> int
