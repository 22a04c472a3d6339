(** The generic t-linearization search engine (Definition 2).

    Decides, for finite histories over any finite-nondeterminism specs,
    whether a legal sequential history S exists such that: every
    operation invoked in S is invoked in H; every operation completed
    in H is completed in S; real-time order is preserved among
    operations both of whose relevant events survive removal of the
    first [t] events; and responses that survive the removal are kept.

    One Wing–Gong-style DFS core — failure memoization on
    (placed-operation set, object-state vector), an incrementally
    maintained ready set that each node walks word by word — serves
    both {!search} and {!witness}, so budget and memoization semantics
    are identical in both.  The placed and ready sets and the state
    vector are mutated in place and undone on backtrack, failures go
    into the domain's unboxed [Memo_key] table, and a deterministic
    spec is read through {!Spec.Deterministic}'s [response] and [next]
    without a transition list, so a node expansion allocates nothing
    (a relational spec still returns its list).  {!prepare} builds the
    cut-independent structures once so that [Eventual.min_t] can probe
    many cuts against the same history cheaply; a [prepared] holds no
    mutable search state, so any domain may probe it.  Multi-object
    histories are handled directly. *)

open Elin_spec
open Elin_history

type config

(** Raised when [node_budget] is exhausted.  This is an alias of
    {!Elin_kernel.Budget.Exceeded} (as is [Weak.Budget_exceeded]), so
    catching any one of them catches budget exhaustion from every
    checker. *)
exception Budget_exceeded

(** [config ?node_budget ?memoize ?poll spec_of_obj] —
    [spec_of_obj] maps each object id appearing in checked histories
    to its spec; exceeding [node_budget] DFS expansions raises
    {!Budget_exceeded}; [memoize] (default true) toggles failure
    memoization — exposed only for the ablation benchmark.  [poll] is
    run every [Elin_kernel.Budget.poll_interval] expansions and may
    raise to abort the search cooperatively (wall-clock timeouts,
    cancellation — see [lib/svc]). *)
val config :
  ?node_budget:int ->
  ?memoize:bool ->
  ?poll:(unit -> unit) ->
  (int -> Spec.t) ->
  config

(** One-object convenience. *)
val for_spec :
  ?node_budget:int -> ?memoize:bool -> ?poll:(unit -> unit) -> Spec.t -> config

type verdict = {
  ok : bool;
  nodes_explored : int;  (** DFS node expansions *)
  memo_hits : int;       (** searches cut short by the failure memo *)
}

(** A history with its cut-independent search structures prebuilt:
    operations, object slots, initial spec states.  Probing a cut via
    {!check_at}/{!witness_at} only rebuilds the cut-dependent
    response/predecessor tables. *)
type prepared

val prepare : config -> History.t -> prepared

(** Event count of the underlying history (the maximal useful cut). *)
val history_length : prepared -> int

(** [object_slots ops] — the distinct objects of [ops] in ascending
    order (the order of [History.objs], which indexes [?init] below),
    and each operation's index into that array.  Shared with
    [Weak.check], which keeps one table per object. *)
val object_slots : Operation.t array -> int array * int array

(** [check_at ?hint ?init p ~t] — full verdict at cut [t] against a
    prepared history.

    [init] overrides the initial state vector (one entry per object
    slot, in the order of [History.objs]; [Invalid_argument] on arity
    mismatch) — the gap-cut composition checks segment sub-histories
    from the states the previous segment can reach.

    Without [hint] a node scans its candidates by id (invocation
    order).  [hint] carries one failure score per operation across
    runs ([Invalid_argument] unless its length is the operation
    count): a run whose hint holds a non-zero score scans ids stably
    sorted by score, so higher scores scan later and ties keep
    invocation order, and every run bumps an operation's score for
    each failed subtree and each memo-lookahead prune below it.
    Thread one zero-initialized array through a gallop of cuts to bias
    later probes by what earlier probes learned; [Decompose] does so
    for every sub-history.  Purely heuristic — the verdict is
    unaffected.

    What the hints win (EXPERIMENTS.md "The scan order is the
    hints"): on B11's decomposed sub-checks 11 % fewer nodes than no
    hint on register_family (80 against 90 at k = 10), which keeps
    B11's 10× node floor at k = 4, and 5–8 % fewer on the mixed
    cells. *)
val check_at :
  ?hint:int array -> ?init:Value.t array -> prepared -> t:int -> verdict

(** [witness_at p ~t] — reconstruct a t-linearization (operations
    paired with responses, in linearization order) against a prepared
    history.  [init] as in {!check_at}. *)
val witness_at :
  ?init:Value.t array ->
  prepared ->
  t:int ->
  (Operation.t * Value.t) list option

(** [final_states ?init p] — every state vector a legal linearization
    of the prepared history (cut 0, real responses kept, pending
    operations included or dropped) can end in, starting from [init]
    (default: the specs' initial states).  Sorted and duplicate-free;
    empty iff the history is not 0-linearizable from [init].  Unlike
    {!check_at} the search runs to exhaustion over the reachable
    (placed set, state vector) space — its memo is a visited set —
    because the gap-cut composition ({!Decompose}) needs the full set
    of boundary states, not one witness.  The verdict carries the
    exploration counts ([ok] mirrors non-emptiness). *)
val final_states :
  ?init:Value.t array -> prepared -> Value.t array list * verdict

(** [search cfg h ~t] — full verdict with exploration stats. *)
val search : config -> History.t -> t:int -> verdict

val t_linearizable : config -> History.t -> t:int -> bool

(** [linearizable cfg h] — 0-linearizability, which coincides with
    linearizability (Herlihy & Wing). *)
val linearizable : config -> History.t -> bool

(** [witness cfg h ~t] additionally reconstructs a t-linearization, as
    operations paired with their responses in linearization order.
    Honors the same [node_budget] (raising {!Budget_exceeded}) and
    [memoize] flags as {!search}. *)
val witness :
  config -> History.t -> t:int -> (Operation.t * Value.t) list option
