(** Map from 64-bit fingerprints to [int]s, with keys and payloads
    stored unboxed: the model checker's per-level slot tables and the
    spill tier's hot set.

    Open addressing with linear probing over one [Bytes] buffer, 16
    bytes per slot (key, then payload, both little-endian [int64]).  A
    member costs no heap block of its own, so the major GC has nothing
    to mark per member and an insert adds no remembered-set entry.  The
    home slot of a key is read from the {e low} bits of
    {!Fingerprint.mix}; {!Shard_set.owner} reads the high bits of the
    same word, so the keys of one owner still spread over every slot.

    The all-zero key marks an empty slot; the fingerprint [0L] is
    nevertheless an ordinary member, held beside the slots.  The load
    stays at most one half: an insert that crosses it doubles the
    capacity.  Nothing ever shrinks the table, not even {!clear}.

    Not thread-safe: one domain owns a table. *)

type t

(** An empty table of a small fixed capacity (it grows as needed). *)
val create : unit -> t

(** Members. *)
val length : t -> int

val mem : t -> int64 -> bool

(** [add t k v] binds [k] to [v] and returns [true] if [k] was not a
    member; otherwise it changes nothing and returns [false].  One
    probe sequence either way. *)
val add : t -> int64 -> int -> bool

(** [replace t k v] binds [k] to [v], member or not. *)
val replace : t -> int64 -> int -> unit

(** [find t k] — [k]'s payload.  Raises [Not_found] if [k] is not a
    member. *)
val find : t -> int64 -> int

(** Every member once, in no particular order.  [f] must not change
    the table. *)
val iter : (int64 -> int -> unit) -> t -> unit

(** Removes every member, keeping the capacity.  Costs one pass over
    the slots when the table is not already empty. *)
val clear : t -> unit
