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
    into one unboxed [Memo_key] table per run, and a deterministic
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

(** Candidate scan order at each DFS node.  [`History] (the default)
    scans operations by id (invocation order) — the node-count-pinned
    behaviour behind the committed svc goldens and bench baselines.
    [`Smart] scans earliest-response-first (pending operations last,
    by invocation), biased by the caller's failure {e hint} scores
    when given, and early-rejects dead nodes in which a completed
    operation has no legal response and no other unplaced operation
    can ever change its object's state.  Both orders decide the same
    predicate; only exploration counts differ.  [Decompose] runs its
    per-object sub-checks under [`Smart].

    What [`Smart] wins (EXPERIMENTS.md "Checker nodes over the ready
    set"): on B11's decomposed sub-checks 10–12 % fewer nodes than
    [`History] (80 against 90 on register_family k = 10), which keeps
    B11's 10× node floor at k = 4.  On the 300 svc_check-shaped
    histories of test_checker_pins it explores more nodes (491 595
    against 484 783, same cuts and min_t), allocates a little more per
    node (it relabels the operations into its order at every run) and
    is no faster. *)
type order = [ `History | `Smart ]

(** Raised when [node_budget] is exhausted.  This is an alias of
    {!Elin_kernel.Budget.Exceeded} (as is [Weak.Budget_exceeded]), so
    catching any one of them catches budget exhaustion from every
    checker. *)
exception Budget_exceeded

(** [config ?node_budget ?memoize ?poll ?order spec_of_obj] —
    [spec_of_obj] maps each object id appearing in checked histories
    to its spec; exceeding [node_budget] DFS expansions raises
    {!Budget_exceeded}; [memoize] (default true) toggles failure
    memoization — exposed only for the ablation benchmark.  [poll] is
    run every [Elin_kernel.Budget.poll_interval] expansions and may
    raise to abort the search cooperatively (wall-clock timeouts,
    cancellation — see [lib/svc]).  [order] (default [`History])
    picks the candidate scan heuristic — see {!type:order}. *)
val config :
  ?node_budget:int ->
  ?memoize:bool ->
  ?poll:(unit -> unit) ->
  ?order:order ->
  (int -> Spec.t) ->
  config

(** One-object convenience. *)
val for_spec :
  ?node_budget:int ->
  ?memoize:bool ->
  ?poll:(unit -> unit) ->
  ?order:order ->
  Spec.t ->
  config

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
    [Weak.op_ok]. *)
val object_slots : Operation.t array -> int array * int array

(** [check_at ?hint ?init p ~t] — full verdict at cut [t] against a
    prepared history.

    [init] overrides the initial state vector (one entry per object
    slot, in the order of [History.objs]; [Invalid_argument] on arity
    mismatch) — the gap-cut composition checks segment sub-histories
    from the states the previous segment can reach.

    [hint], read only under [`Smart] order, carries per-operation
    failure scores across runs: higher scores scan later, and the run
    bumps an operation's score for every failed subtree and every
    memo-lookahead prune below it.  Thread one zero-initialized array
    through a gallop of cuts to bias later probes by what earlier
    probes learned.  Purely heuristic — the verdict is unaffected. *)
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
