(** The generic parallel model-checking engine: level-synchronous BFS
    with fingerprint dedup over an abstract state space, partitioned
    across OCaml 5 domains.

    {2 Determinism contract}

    The returned verdict list and every stats field except
    [per_domain] and [wall] are functions of the state space and the
    bounds alone, {e independent of the domain count} (modulo 64-bit
    fingerprint collisions): levels are barriers, every copy of a
    fingerprint is deduplicated by its one owning domain, verdicts are
    only acted on at level boundaries, and the verdicts of the
    stopping level are totally ordered by [compare] — the head of the
    result is the {e minimal} verdict, e.g. the lexicographically
    minimal counterexample trace. *)

type stats = {
  states : int;           (** states expanded (dequeued from the frontier) *)
  dedup_hits : int;       (** successors dropped because already visited *)
  kept : int;             (** successors enqueued (dedup survivors) *)
  pruned : int;           (** expansions skipped by partial-order reduction
                              ([bfs] itself reports 0; {!Mc}/{!Mc_valency}
                              fill it in from their pruning counters) *)
  frontier_peak : int;    (** widest BFS level *)
  leaves : int;           (** terminal states (finished or cut) *)
  cut : int;              (** terminal only because of the bound *)
  levels : int;           (** BFS depth reached *)
  per_domain : int array; (** states expanded by each domain: the
                              ownership partition, so it depends on the
                              domain count *)
  domains : int;
  wall : float;           (** seconds *)
}

(** Fraction of generated successors that dedup discarded:
    [dedup_hits / (dedup_hits + kept)]. *)
val dedup_rate : stats -> float

type ('s, 'v) expansion =
  | Children of 's list  (** interior state ([[]] = dead end, not a leaf) *)
  | Leaf of 'v option    (** terminal; [Some v] records a verdict *)
  | Cut of 'v option     (** terminal because of the depth bound *)

(** External-memory spill + crash-safe checkpoint configuration.

    With a spill attached, the visited set becomes an
    {!Elin_store.Tiered_set} (RAM hot tier, sealed sorted segments on
    disk) sharded like the search's ownership partition, and —
    when [sp_every > 0] — the search seals a {!Elin_store.Checkpoint}
    at every [sp_every]-th level barrier.  The level barrier is a
    {e stabilization cut}: no expansion, routing, or merge is
    in-flight, so (visited segments, frontier, counters, verdicts) is
    a complete snapshot and a resumed run replays the identical
    deterministic search.  Dedup semantics are bit-identical to the
    RAM sets — spill changes where fingerprints live, never which
    states survive.

    Checkpoint cadence runs on {e absolute} levels ([level mod
    sp_every]), so a resumed run checkpoints on the same schedule the
    uninterrupted one would.  Frontier states are marshalled with
    closures: resume requires the same binary (enforced via an
    executable digest in the manifest) and the same [sp_identity],
    dedup setting, and domain count (enforced via manifest fields;
    violations raise {!Elin_store.Segment.Corrupt}). *)
type 's spill = {
  sp_dir : string;  (** spill directory (created if missing) *)
  sp_hot : int;  (** hot-tier capacity per shard, in fingerprints *)
  sp_every : int;  (** checkpoint every N levels; 0 = never *)
  sp_identity : string;
      (** opaque canonical workload description; resume refuses a
          mismatch *)
  sp_payload : 's -> int64;
      (** per-state payload sealed into frontier segments (sleep
          masks under POR) and cross-checked on resume *)
  sp_save_aux : unit -> int;
      (** caller counter carried through the manifest (Mc's
          POR-pruned count) *)
  sp_restore_aux : int -> unit;
  sp_on_checkpoint : int -> unit;
      (** called with the sequence number after each commit (crash
          injection, progress) *)
  mutable sp_store : Elin_store.Tiered_set.stats option;
      (** filled by [bfs] on return when dedup spilled *)
  mutable sp_resumed : int option;
      (** manifest sequence resumed from, filled by [bfs] *)
}

(** [spill dir] — a spill configuration with defaults: [hot] 2^20
    fingerprints per shard, [every] 0 (no checkpoints), empty
    identity, zero payload, no-op aux/notify hooks. *)
val spill :
  ?hot:int ->
  ?every:int ->
  ?identity:string ->
  ?payload:('s -> int64) ->
  ?save_aux:(unit -> int) ->
  ?restore_aux:(int -> unit) ->
  ?on_checkpoint:(int -> unit) ->
  string ->
  's spill

(** [bfs ?domains ?dedup ?stop_early ~fingerprint ~expand ~compare
    root] — explore the space rooted at [root]; returns the verdicts
    (sorted and deduplicated under [compare]) and the stats.

    - [domains] defaults to [Domain.recommended_domain_count ()].
      Domains are spawned once per search; each owns the fingerprints
      that {!Elin_kernel.Shard_set.owner} maps to it, expands the
      frontier states it owns, and routes successors to their owner
      in batches over SPSC queues, with no lock on the hot path.  With
      [1] the single worker runs on the calling domain.  [per_domain]
      reports the (deterministic) ownership partition.
    - [dedup] (default [true]) keys an owner-partitioned visited set
      ({!Elin_kernel.Shard_set}) on [fingerprint]; with [false] every
      generated successor is kept — the BFS then expands exactly the
      nodes a dedup-free tree search would.
    - [stop_early] (default [true]) stops at the end of the first
      level that produced a verdict; with [false] the bounded space is
      exhausted and every verdict is returned (used to {e collect},
      e.g. the valency analysis's decision vectors).
    - [merge] (meaningful only with [dedup]) resolves duplicates at
      the level barrier instead of at generation: one copy survives
      carrying [merge] of all same-fingerprint copies of the level —
      how sleep sets and dedup compose soundly under partial-order
      reduction.  Requires a level-stratified space (equal states only
      within one BFS level; true whenever the fingerprint covers a
      step counter) and a commutative, associative [merge].
    - [spill] attaches the external-memory tier and checkpoint
      schedule (see {!type:spill}); [resume] (default [false],
      requires [spill]) re-enters the search at the newest committed
      checkpoint in [sp_dir] instead of starting from [root] — raising
      {!Elin_store.Segment.Corrupt} if there is none, if any artefact
      fails its checksum, or if the manifest does not match this run's
      binary, identity, dedup, or domain count, or was written by
      another engine. *)
val bfs :
  ?domains:int ->
  ?dedup:bool ->
  ?stop_early:bool ->
  ?merge:('s -> 's -> 's) ->
  ?spill:'s spill ->
  ?resume:bool ->
  fingerprint:('s -> int64) ->
  expand:('s -> ('s, 'v) expansion) ->
  compare:('v -> 'v -> int) ->
  's ->
  'v list * stats

val pp_stats : Format.formatter -> stats -> unit
