(** Append-only, sealed segment files of packed fingerprint records —
    the external-memory tier's unit of storage.

    A segment holds a sorted array of [(fingerprint, payload)] pairs:
    the visited-set spill writes [payload = 0]; checkpoint frontier
    segments carry the state's sleep mask (partial-order reduction)
    so the on-disk cut can be cross-checked record-by-record against
    the re-hydrated states on resume.

    {2 Persistence contract: fingerprints only}

    Segments must serialize {e only} {!Elin_kernel.Fingerprint} words
    — never [Hashtbl.hash] / [Value.hash] output.  The seeded FNV-1a
    fingerprints are a pure function of the canonical state encoding,
    so a segment written by one process is probe-correct in any later
    process of any build; [Value.hash] and [Hashtbl.hash] are
    documented as {e in-process only} (lib/spec/value.ml) and nothing
    stops a future stdlib from changing them.  [test_store]'s
    cross-process suite enforces this mechanically: a segment written
    by the test binary must answer identical probes from a freshly
    spawned process.

    {2 On-disk format}

    All integers little-endian; see DESIGN.md §14 for the diagram.

    {v
    magic      8 bytes   "ELINSEG1"
    header_len u32       length of the header blob below
    header     blob      version u32 | n_records u64 | block_records u32
    header_crc u32       CRC-32 of the header blob
    blocks     ...       ceil(n/block_records) blocks, each:
                           k x 16-byte records (fp u64, payload u64)
                           + u32 CRC-32 of the block's record bytes
    index      8 x n_blocks   first fingerprint of each block
    index_crc  u32
    v}

    Records are sorted by {e unsigned} fingerprint.  A probe first
    asks the reader's in-RAM Bloom filter, which turns most
    non-members away without touching the file; otherwise it binary
    searches the in-RAM index for the candidate block, reads and
    CRC-checks that one block, and binary searches within it.

    {2 Seal protocol}

    [write] builds [name].tmp, [fsync]s it, renames it onto [name],
    and [fsync]s the directory: a crash leaves either no segment or a
    whole, checksummed one — never a half-written file under the
    sealed name.  Truncated or bit-flipped segments raise {!Corrupt}
    at [open_reader], which checks the size arithmetic and the CRC of
    every block; damage done to the file after it was opened surfaces
    at the next [probe] or [iter] that loads the block.  Nothing
    degrades silently. *)

(** Torn, truncated, or checksum-corrupt on-disk state.  Callers must
    fail loudly (the CLI maps it to exit code 2), never fall back to
    re-checking from scratch. *)
exception Corrupt of string

(** [write ~dir ~name records] — seal [records] as [dir/name].
    [records] must be strictly ascending by unsigned fingerprint
    ([Invalid_argument] otherwise — duplicates included, a segment is
    a set). *)
val write : dir:string -> name:string -> (int64 * int64) array -> unit

type reader

(** Opens [dir/name] and validates it in one pass: header, size
    arithmetic, index checksum, and the checksum of every block, whose
    fingerprints fill the reader's Bloom filter; raises {!Corrupt} on
    any mismatch.  The filter takes the smallest power of two of at
    least 10 bits per record: 16 bits (2 bytes of RAM) per record for
    1 024-record segments, at most 20 in general, and about 0.07%
    false positives at 16.  The reader holds one file descriptor, the
    filter and a one-block cache; it is {e not} concurrency-safe — one
    domain uses it at a time (the tiered set's readers are used only
    by their shard's owning domain). *)
val open_reader : dir:string -> name:string -> reader

val name : reader -> string

(** Record count. *)
val length : reader -> int

(** Total on-disk size in bytes (header + blocks + index). *)
val file_bytes : reader -> int

(** [probe r fp] — [Some payload] iff [fp] is a member.  No I/O when
    the Bloom filter rules [fp] out; otherwise one block read (cached)
    + CRC check per miss of the cache. *)
val probe : reader -> int64 -> int64 option

(** The Bloom-filter hash of a fingerprint, for {!mem}: a probe that
    visits several segments computes it once. *)
val filter_hash : int64 -> int

(** [mem r ~hash fp] — [probe r fp <> None], given [hash = filter_hash
    fp].  Allocates nothing. *)
val mem : reader -> hash:int -> int64 -> bool

(** Blocks [probe] and [mem] have loaded from the file so far:
    CRC-verified reads, not counting filter rejections or cache hits.
    Also counted in the [store.block_reads] metric. *)
val block_reads : reader -> int

(** Sequential, fully CRC-checked scan in fingerprint order. *)
val iter : reader -> (int64 -> int64 -> unit) -> unit

(** All records, in order (tests and resume-time rehydration). *)
val to_array : reader -> (int64 * int64) array

val close : reader -> unit
