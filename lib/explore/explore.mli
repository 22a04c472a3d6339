(** The transition semantics of an implementation's executions: every
    interleaving of process steps and every adversary choice of the
    base objects.  [Elin_mc.Mc] searches it exhaustively to a depth
    bound; because weak consistency is prefix-closed (Lemma 10) and
    t-linearizability is prefix-closed (Lemma 6), checking leaf
    histories covers all shorter ones.

    Configurations are first-class (immutable programmes, value-encoded
    object states); the Prop. 18 machinery uses them to search for
    stable configurations and restart executions from them. *)

open Elin_spec
open Elin_history
open Elin_runtime

type proc_state = {
  todo : Op.t list;
  local : Value.t;
  running : (Value.t * Value.t) Program.t option;
}

type config = {
  procs : proc_state array;
  bases : Value.t array;
  events_rev : Event.t list;
  n_events : int;
  steps : int;
  invocations : int;  (** implemented-object operations invoked so far *)
}

val initial_config :
  Impl.t -> workloads:Op.t list array -> ?locals:Value.t array -> unit -> config

(** [history c] — the implemented-object history at [c]. *)
val history : config -> History.t

val runnable : config -> int list

(** No process is mid-operation. *)
val is_quiescent : config -> bool

(** All workloads finished. *)
val is_done : config -> bool

(** [access_choices impl c p] — the (response, next-state) choices of
    the base access [p] is poised on; raises [Invalid_argument] when
    [p]'s next step is not an access.  Lets callers that need both the
    choices and the stepped configurations evaluate [Base.access] once
    and pass it back through [step]'s [?choices]. *)
val access_choices : Impl.t -> config -> int -> (Value.t * Value.t) list

(** [step impl c p] — all configurations after process [p]'s next
    atomic step (several when a base object offers an adversary
    choice).  [?choices] must be [access_choices impl c p] when
    given. *)
val step : ?choices:(Value.t * Value.t) list -> Impl.t -> config -> int -> config list

val successors : Impl.t -> config -> config list

(** [run_solo impl c p ~until fuel] — step [p] alone (first adversary
    branch) until [until] yields a value or [fuel] runs out. *)
val run_solo :
  Impl.t ->
  config ->
  int ->
  until:(config -> 'a option) ->
  int ->
  (config * 'a) option

(** The paper's C_idle: let each process run solo until its pending
    operation completes.  [None] if some operation needs more than
    [fuel] solo steps (the implementation would not be non-blocking). *)
val complete_current_ops : Impl.t -> config -> fuel:int -> config option
