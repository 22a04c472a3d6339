(** Owner-partitioned set of 64-bit fingerprints: the search's visited
    set.  Each shard is a plain lock-free-because-single-owner
    [Hashtbl]; a fingerprint's shard is the pure function {!owner} of
    its value, and the caller's routing (SPSC handoff + barrier
    phases) guarantees only the owning domain ever touches a shard.
    The owner index reads the {e high} bits of {!Fingerprint.mix},
    leaving the low bits of the same mixed word uniform within every
    shard. *)

type t

(** [create ~shards ()] — [shards] (>= 1, typically the domain count;
    not rounded) empty shards. *)
val create : ?shards:int -> unit -> t

val shards : t -> int

(** [owner t fp] — the shard (hence domain) owning [fp]; uniform over
    shards and independent of the mixed word's low bits. *)
val owner : t -> int64 -> int

(** [add t ~shard fp] — [true] iff [fp] was not yet in [shard] (it is
    afterwards).  MUST be called from [shard]'s owning domain with
    [shard = owner t fp]; there is no lock to save you. *)
val add : t -> shard:int -> int64 -> bool

(** Same ownership discipline as {!add}. *)
val mem : t -> shard:int -> int64 -> bool

(** Members of one shard (owning domain, or quiescence). *)
val shard_cardinal : t -> int -> int

(** Total members; quiescent callers only (end-of-search stats). *)
val cardinal : t -> int
