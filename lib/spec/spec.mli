(** Sequential specifications.

    A type of object is, as in Section 3 of the paper, a transition
    relation [delta ⊆ Q × OP × RES × Q] with an initial state,
    represented functionally: [apply q op] enumerates all [(r, q')]
    with [(q, op, r, q') ∈ delta].  An empty list means [op] is not
    applicable in [q]. *)

type t

(** How a spec enumerates its transitions.  A [Deterministic] spec has
    exactly one transition from [q] on [op], [(response q op, next q
    op)]; a [Relation] lists all of them.  The checkers' DFS reads
    this directly, so that a deterministic candidate costs no list and
    its next state is computed only when its response is admitted;
    every other caller uses {!apply}. *)
type transitions =
  | Deterministic of {
      response : Value.t -> Op.t -> Value.t;
      next : Value.t -> Op.t -> Value.t;
    }
  | Relation of (Value.t -> Op.t -> (Value.t * Value.t) list)

(** [make ~name ~initial ~apply ~all_ops] — general (possibly
    nondeterministic) spec.  [all_ops] is a finite representative set
    of invocations used by generators and the Prop. 14 classifier. *)
val make :
  name:string ->
  initial:Value.t ->
  apply:(Value.t -> Op.t -> (Value.t * Value.t) list) ->
  all_ops:Op.t list ->
  t

(** [deterministic ~name ~initial ~response ~next ~all_ops] — the spec
    whose unique transition from [q] on [op] is [(response q op, next
    q op)].  A spec rejects an operation by raising from [response]
    (and from [next]). *)
val deterministic :
  name:string ->
  initial:Value.t ->
  response:(Value.t -> Op.t -> Value.t) ->
  next:(Value.t -> Op.t -> Value.t) ->
  all_ops:Op.t list ->
  t

(** [with_initial t q0] — the same type started in state [q0]. *)
val with_initial : t -> Value.t -> t

val name : t -> string
val initial : t -> Value.t

(** [transitions t] — the representation the DFS checkers read. *)
val transitions : t -> transitions

(** [apply t q op] — all transitions [(response, next state)]; for a
    deterministic spec the one-element list [[(response q op, next q
    op)]]. *)
val apply : t -> Value.t -> Op.t -> (Value.t * Value.t) list

val all_ops : t -> Op.t list

(** [responses t q op] enumerates legal responses of [op] in state [q]. *)
val responses : t -> Value.t -> Op.t -> Value.t list

(** [is_legal_response t q op r] — some transition from [q] on [op]
    yields [r]. *)
val is_legal_response : t -> Value.t -> Op.t -> Value.t -> bool

(** [successors t q op r] — states reachable from [q] by [op]
    returning [r]. *)
val successors : t -> Value.t -> Op.t -> Value.t -> Value.t list

(** [apply_det t q op] is the unique transition; raises
    [Invalid_argument] if there is not exactly one. *)
val apply_det : t -> Value.t -> Op.t -> Value.t * Value.t

(** [run t ops] threads operations through the deterministic spec from
    the initial state; returns responses in order. *)
val run : t -> Op.t list -> Value.t list

(** [is_deterministic_on t states] checks determinism of every
    [all_ops] transition out of each given state. *)
val is_deterministic_on : t -> Value.t list -> bool

(** Trivially true for the functional representation; kept for
    documentation value (the paper's results assume finite
    nondeterminism). *)
val has_finite_nondeterminism_on : t -> Value.t list -> bool

(** [reachable t ~max_states] — breadth-first state exploration under
    [all_ops]; [(states, complete)] where [complete] is false when the
    bound was hit. *)
val reachable : t -> max_states:int -> Value.t list * bool

val pp : Format.formatter -> t -> unit
