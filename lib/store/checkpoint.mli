(** Crash-safe BFS checkpoints: a two-phase manifest commit over the
    sealed artefacts of one level barrier.

    A checkpoint is taken at the level barrier, where the search is
    quiescent — every state of the completed level is expanded and
    deduplicated, none of the next level is.  This is exactly a
    {e stabilization cut} in the paper's sense (see DESIGN.md §14):
    the cut admits no in-flight work, so resuming from it replays the
    identical deterministic search and reaches bit-identical verdicts
    and counts.

    {2 Commit protocol}

    Phase 1 seals every artefact the checkpoint needs — visited
    segments (via {!Tiered_set.flush_shard}), frontier slices, verdict
    blobs — each individually tmp-written, fsynced, renamed.  Phase 2
    commits [MANIFEST.<seq>] the same way.  The manifest {e names}
    its artefacts, so a crash between the phases leaves orphan files
    that no manifest references (harmless; overwritten on reuse) and
    the previous manifest still wins.  A torn manifest write leaves
    only [MANIFEST.<seq>.tmp], which {!load_latest} ignores — the
    old manifest wins.  A committed-but-corrupt manifest raises
    {!Segment.Corrupt}: resume fails loudly (exit 2), it never falls
    back to an older checkpoint or rechecks from scratch. *)

(** End-of-run aggregate counters at the cut.  [t_aux] is an opaque
    extra slot for the layer above Search (Mc stores its POR-pruned
    count there). *)
type totals = {
  t_states : int;
  t_hits : int;
  t_kept : int;
  t_aux : int;
  t_peak : int;
  t_leaves : int;
  t_cut : int;
}

(** One writer's private counters — the barrier engine has one writer,
    the sharded engine one per domain (resume seeds each worker's
    locals from its slot). *)
type per_writer = {
  w_states : int;
  w_hits : int;
  w_kept : int;
  w_leaves : int;
  w_cut : int;
}

type manifest = {
  seq : int;  (** checkpoint sequence number, 1-based *)
  identity : string;
      (** opaque canonical description of the workload + search
          parameters; resume refuses on mismatch *)
  engine : string;
  dedup : bool;
  shards : int;  (** tiered-set shard count *)
  writers : int;  (** frontier/verdict slice count *)
  level : int;  (** completed BFS levels at the cut *)
  totals : totals;
  per_writer : per_writer array;
  per_domain : int array;  (** states expanded per domain *)
  visited_segments : string list;
  exe_digest : string;
      (** [Digest.file Sys.executable_name] of the writer — frontier
          blobs are marshalled with closures, so resume requires the
          same binary (the runtime would reject foreign code pointers
          anyway; this check turns that into a clear error) *)
}

val exe_digest : unit -> string

(** Phase-2 commit: durably write [MANIFEST.<seq>] and prune the
    artefacts of checkpoint [seq - 2] (two manifests are retained so
    the newest commit is never the only copy mid-rename).  Visited
    segments are never pruned — they accumulate monotonically. *)
val commit : dir:string -> manifest -> unit

(** Highest committed manifest, or [None] if the directory holds none.
    [*.tmp] leftovers are ignored (torn commit: old manifest wins).
    Raises {!Segment.Corrupt} if the chosen committed manifest is
    unreadable or fails its checksum. *)
val load_latest : dir:string -> manifest option

(** {2 Artefact blobs}

    Length-prefixed, CRC'd, atomically renamed byte containers for
    marshalled frontier states and verdicts.  Naming is by checkpoint
    sequence and writer slot. *)

val write_blob : dir:string -> name:string -> string -> unit

(** Raises {!Segment.Corrupt} on a missing, truncated, or
    checksum-corrupt blob. *)
val read_blob : dir:string -> name:string -> string

(** [ckpt<seq>-f<writer>.seg] — the frontier slice's (fingerprint,
    payload) set, cross-checked against the re-hydrated states. *)
val frontier_seg : seq:int -> writer:int -> string

(** [ckpt<seq>-f<writer>.blob] — the marshalled frontier states. *)
val frontier_blob : seq:int -> writer:int -> string

(** [ckpt<seq>-v<writer>.blob] — the writer's accumulated verdicts. *)
val verdicts_blob : seq:int -> writer:int -> string
