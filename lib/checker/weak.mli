(** Weak consistency (Definition 1): each completed operation must be
    justified by a legal sequential history over operations invoked
    before its response, containing all of its process's earlier
    operations, and ending with it returning its actual response.

    By Lemma 8 the question is local to one object: {!check} decides
    each completed operation on its own object's operations, and
    {!justifiable} (Figure 1's line 13) is the same search over an
    explicit pool of one object's operations. *)

open Elin_spec
open Elin_history

type config

(** Alias of {!Elin_kernel.Budget.Exceeded} (and hence of
    [Engine.Budget_exceeded]): one handler catches budget exhaustion
    from every checker. *)
exception Budget_exceeded

(** [node_budget] bounds each completed operation's search.  [poll] —
    cooperative hook run every [Elin_kernel.Budget.poll_interval]
    expansions; may raise to abort (timeouts/cancellation, see
    [lib/svc]). *)
val config :
  ?node_budget:int -> ?poll:(unit -> unit) -> (int -> Spec.t) -> config

val for_spec : ?node_budget:int -> ?poll:(unit -> unit) -> Spec.t -> config

(** [check cfg h] — the first violating operation (in invocation
    order), if any.  Each completed operation is decided on its own
    object's operations only; the first violator is the one the search
    over every object at once would name, for every spec, partial ones
    included (DESIGN.md §15). *)
val check : config -> History.t -> (unit, Operation.t) result

val is_weakly_consistent : config -> History.t -> bool

(** [justifiable spec ~pool ~required ~op ~resp] — Figure 1's line 13:
    does some legal order of a subset of [pool] that contains every
    operation [required] indexes leave [op] returning [resp]?  All of
    [pool] targets one object of type [spec]; [required] lists indices
    into [pool], a repeated index counting once.  Unbounded. *)
val justifiable :
  Spec.t ->
  pool:Op.t list ->
  required:int list ->
  op:Op.t ->
  resp:Value.t ->
  bool
