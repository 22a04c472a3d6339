(** The model checker, specialized to implementation execution trees:
    [Explore.for_all_histories]'s exhaustive semantics, run through
    {!Search}'s parallel fingerprint-dedup BFS.

    Dedup is exact for history predicates because fingerprints cover
    the accumulated history: only configurations with identical pasts
    and futures merge (modulo 64-bit fingerprint collisions).  The
    verdict — including the reported counterexample, which is the
    lexicographically minimal violating history of the shallowest
    violating level — is independent of the domain count. *)

open Elin_spec
open Elin_history
open Elin_runtime
open Elin_explore

type outcome = {
  ok : bool;
  counterexample : History.t option;
      (** the minimal violating history under {!Canon.compare_history} *)
  stats : Search.stats;
}

(** All workloads structurally equal (the precondition for symmetry
    reduction). *)
val workloads_symmetric : Op.t list array -> bool

(** External-memory spill + checkpoint configuration, layered over
    {!Search.type-spill}: the visited set gains a disk tier under
    [dir], and with [every > 0] the BFS seals a resumable checkpoint
    at every [every]-th level barrier.  [identity] must canonically
    describe the workload and search parameters — resume refuses a
    mismatch.  The result fields [store] (spill-tier statistics) and
    [resumed_from] (checkpoint sequence resumed, if any) are filled
    after the run. *)
type spill = {
  dir : string;
  hot : int;  (** hot-tier capacity per shard, in fingerprints *)
  every : int;  (** checkpoint every N levels; 0 = never *)
  identity : string;
  on_checkpoint : int -> unit;
  mutable store : Elin_store.Tiered_set.stats option;
  mutable resumed_from : int option;
}

(** [spill dir] — defaults: [hot] 2^20, [every] 0, empty identity,
    no-op [on_checkpoint]. *)
val spill :
  ?hot:int ->
  ?every:int ->
  ?identity:string ->
  ?on_checkpoint:(int -> unit) ->
  string ->
  spill

(** [check impl ~workloads p] — does [p] hold on every leaf history
    (finished, or cut at [max_steps], default 40)?

    [domains] defaults to [Domain.recommended_domain_count ()] (the
    outcome is independent of it, see {!Search.bfs});
    [dedup] defaults to [true]; [por] (default [true]) enables
    sleep-set partial-order reduction — verdicts, decision sets, leaf
    counts and the lex-min counterexample are invariant under it, only
    redundant successor generation shrinks; it is silently disabled
    under [symmetry] (sleep masks are process-indexed) and beyond 62
    processes.  [symmetry] (default [false]) enables
    the process-renaming quotient of {!Canon.fingerprint} — requires
    identical workloads (checked: @raise Invalid_argument), a
    process-oblivious implementation and a renaming-invariant
    predicate (the caller's obligation).

    [spill] attaches the external-memory tier / checkpoint schedule;
    [resume] (requires [spill]) re-enters at the newest committed
    checkpoint, raising {!Elin_store.Segment.Corrupt} if none exists
    or anything fails validation.  [on_state] is called once per
    expanded state (crash injection in the resume tests; must not
    affect the state space). *)
val check :
  Impl.t ->
  workloads:Op.t list array ->
  ?locals:Value.t array ->
  ?max_steps:int ->
  ?domains:int ->
  ?dedup:bool ->
  ?symmetry:bool ->
  ?por:bool ->
  ?spill:spill ->
  ?resume:bool ->
  ?on_state:(unit -> unit) ->
  (History.t -> bool) ->
  outcome

(** [check_from impl c0 ~max_extra_steps p] — [check] over every
    extension of [c0] by at most [max_extra_steps] steps (the Prop. 18
    stability certificate's shape). *)
val check_from :
  Impl.t ->
  Explore.config ->
  max_extra_steps:int ->
  ?domains:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?spill:spill ->
  ?resume:bool ->
  ?on_state:(unit -> unit) ->
  (History.t -> bool) ->
  outcome

(** Exhaust the bounded space with no predicate; the stats are the
    result. *)
val count_states :
  Impl.t ->
  workloads:Op.t list array ->
  ?locals:Value.t array ->
  ?max_steps:int ->
  ?domains:int ->
  ?dedup:bool ->
  ?symmetry:bool ->
  ?por:bool ->
  ?spill:spill ->
  ?resume:bool ->
  ?on_state:(unit -> unit) ->
  unit ->
  Search.stats

(** The {e set} of reachable leaf histories, sorted under
    {!Canon.compare_history} — invariant under [~dedup] (the
    dedup-soundness tests rely on this). *)
val leaf_histories :
  Impl.t ->
  workloads:Op.t list array ->
  ?locals:Value.t array ->
  ?max_steps:int ->
  ?domains:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?spill:spill ->
  ?resume:bool ->
  unit ->
  History.t list * Search.stats
