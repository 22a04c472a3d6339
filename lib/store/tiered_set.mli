(** Two-tier visited set: an in-RAM hot tier, one
    {!Elin_kernel.Shard_set} shard per shard, that spills sealed,
    sorted {!Segment}s to disk when it reaches capacity.

    Dedup semantics are {e exactly} those of {!Elin_kernel.Shard_set}:
    a fingerprint is a member iff some
    earlier [add] inserted it, whether it now lives in RAM or on disk.
    Within a shard, the hot table never holds a fingerprint that is
    already on disk (an [add] probes disk before inserting), so the
    segments of one shard are pairwise disjoint and flushing is a pure
    representation change — verdicts, counts, and lex-min
    counterexamples are bit-identical across spill on/off.

    Sharding is the hot tier's own {!Elin_kernel.Shard_set.owner}
    (high bits of [Fingerprint.mix]), so in the search the tiered
    shard of a fingerprint coincides with its owning domain: every
    entry point is owner-discipline — one domain per shard — and takes
    no lock.

    Flushes trigger at {e exactly} [hot_capacity] entries in a shard —
    a deterministic function of the insertion sequence — so segment
    counts and on-disk bytes are reproducible run to run (and across
    kill/resume), and the resume path can gate on them. *)

type t

(** [create ~dir ~shards ~hot_capacity ()] — fresh set spilling into
    [dir] (created if missing).  [hot_capacity] is per shard. *)
val create : dir:string -> shards:int -> hot_capacity:int -> unit -> t

(** [open_existing ~dir ~shards ~hot_capacity ~segments ()] — attach
    the sealed segments named in [segments] (from a checkpoint
    manifest; names are [visited-s<shard>-<seq>.seg]).  Hot tiers
    start empty; per-shard sequence numbers continue after the
    attached segments.  Raises {!Segment.Corrupt} on any unreadable,
    truncated, or checksum-corrupt segment, and [Invalid_argument] if
    a name routes to a shard >= [shards]. *)
val open_existing :
  dir:string ->
  shards:int ->
  hot_capacity:int ->
  segments:string list ->
  unit ->
  t

val shards : t -> int

(** {!Elin_kernel.Shard_set.owner} of the hot tier. *)
val owner : t -> int64 -> int

(** Owner-discipline [add] — [true] iff [fp] was not yet a member.
    The caller must run on the domain owning [shard = owner t fp]
    (raises [Invalid_argument] on a wrong shard).  No lock — same
    contract as {!Shard_set.add}. *)
val add_owned : t -> shard:int -> int64 -> bool

(** Owner-discipline membership probe. *)
val mem_owned : t -> shard:int -> int64 -> bool

(** Seal one shard's hot tier to disk even below capacity (owner
    discipline).  The search's checkpoint phase flushes every shard,
    so the manifest's segment list covers the whole visited set. *)
val flush_shard : t -> int -> unit

(** Sealed segment file names, sorted — the manifest's inventory. *)
val segment_names : t -> string list

(** Total members (hot + spilled); quiescent callers only. *)
val cardinal : t -> int

type stats = {
  segments : int;  (** sealed segments on disk *)
  disk_bytes : int;  (** total bytes of sealed segments *)
  spilled : int;  (** records resident on disk *)
  hot : int;  (** records resident in RAM *)
  flushes : int;  (** spill flushes performed *)
  disk_probes : int;
      (** membership probes that reached disk: one per probe, however
          many segments it visits *)
  disk_probe_hits : int;  (** of those, how many found the key *)
  block_reads : int;
      (** CRC-verified block loads those probes made: segment visits
          that got past the segment's Bloom filter and missed its
          one-block cache ({!Segment.block_reads}) *)
}

(** Quiescent callers only.  [segments], [disk_bytes], [spilled], and
    [hot] are deterministic for a given insertion sequence;
    [disk_probes], [disk_probe_hits] and [block_reads] for a given
    sequence of probes (in the search: for a given domain count). *)
val stats : t -> stats

(** Close all segment readers.  The set must not be used afterwards. *)
val close : t -> unit
