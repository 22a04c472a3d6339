(** Canonical encodings and fingerprints for {!Elin_explore.Explore}
    configurations.

    A mid-operation process holds a [Program.t] continuation — a
    closure, not hashable.  But the continuation is a deterministic
    function of observable data (the operation, the local state at
    invocation, the base responses consumed so far), so each {!node}
    carries a per-process running {e digest} of exactly that data, and
    (config-without-closures, digests) is a faithful canonical key.
    Stepping must therefore go through {!step}/{!successors}, which
    wrap [Explore.step] (still the single source of truth for the
    transition semantics) and label each branch with the response the
    continuation consumed. *)

open Elin_history
open Elin_runtime
open Elin_explore

type node = {
  config : Explore.config;
  sleep : int;
      (** sleep set (partial-order reduction): bitmask of processes
          whose next step was already explored, at an ancestor, in a
          provably commuting order *)
  summary : Bytes.t;
      (** the packed state summaries, one unboxed buffer of 2n+m+1
          {!Elin_kernel.Fingerprint} words for n processes and m base
          objects: per-process continuation digests ([0L] when idle or
          still inside the operation that was running at the search
          root), per-process state digests, per-object state digests,
          and the running accumulator over the chronological event
          log.  Copied once per successor; never mutated once the node
          is built. *)
}

val root : Explore.config -> node

(** [step impl node p] — [Explore.step] with digest and packed-summary
    maintenance.  [?choices] must be [Explore.access_choices] on the
    node's configuration when given. *)
val step :
  ?choices:(Elin_spec.Value.t * Elin_spec.Value.t) list ->
  Impl.t ->
  node ->
  int ->
  node list

(** [successors ?por ?pruned impl node] — every configuration one step
    away.  With [~por:true], sleep-set pruning: slept processes are
    skipped (counted in [pruned]) and successors inherit the masks
    that keep exactly the lexicographically minimal interleaving per
    Mazurkiewicz trace class; the reachable state set is preserved.
    Caps at 62 processes under reduction (callers guard). *)
val successors :
  ?por:bool -> ?pruned:int Atomic.t -> Impl.t -> node -> node list

(** Sleep-set merge for dedup under reduction: keep the first copy
    with the {e intersection} of both sleep masks. *)
val merge_sleep : node -> node -> node

(** [fingerprint ?symmetry node] — seeded 64-bit fingerprint of the
    canonical encoding.  With [~symmetry:true], the minimum over all
    process renamings (ids renamed in the process array {e and} the
    accumulated history) — sound only for identical workloads,
    process-oblivious implementations, and renaming-invariant
    predicates; capped at 6 processes.  @raise Invalid_argument beyond
    the cap. *)
val fingerprint : ?symmetry:bool -> node -> int64

(** Structural order on events: process, object, then payload
    (invocations before responses). *)
val compare_event : Event.t -> Event.t -> int

(** Lexicographic order on event sequences: the deterministic
    tie-break for counterexample selection. *)
val compare_history : History.t -> History.t -> int

(** [absorb_value b i v] absorbs [v] into the buffer-backed
    accumulator in word [i] of [b] (see {!Elin_kernel.Fingerprint}),
    allocating nothing; shared by every state-space instantiation so
    encodings stay consistent. *)
val absorb_value : Bytes.t -> int -> Elin_spec.Value.t -> unit

(** [digest_access prev ~obj ~op ~resp] — fold one consumed base
    response into a continuation digest. *)
val digest_access :
  int64 -> obj:int -> op:Elin_spec.Op.t -> resp:Elin_spec.Value.t -> int64
