(** The paradox construction (Proposition 18): from an eventually
    linearizable fetch&increment implementation A over linearizable
    base objects, derive a fully linearizable one A′ over the same
    bases — by (1) certifying a {e stable configuration} C (every
    bounded extension stays |history-at-C|-linearizable), (2) idling
    the processes and running one solo until an operation op0 returns
    the number of operations invoked before it (fixing v0), and
    (3) re-initializing A at that configuration with responses shifted
    down by v0. *)

open Elin_spec
open Elin_runtime
open Elin_explore

type stable_certificate = {
  config : Explore.config;
  cut : int;  (** t = history events at the configuration *)
  leaves_checked : int;  (** distinct leaf configurations searched *)
  extension_depth : int;
}

(** [certify impl config ~depth ~check] — bounded stability check
    through {!Elin_mc.Mc.check_from}; [check h ~t] decides
    t-linearizability of the implemented type. *)
val certify :
  Impl.t ->
  Explore.config ->
  depth:int ->
  check:(Elin_history.History.t -> t:int -> bool) ->
  stable_certificate option

(** Walk a canonical execution path and return the first configuration
    that certifies stable (Claim 1 guarantees one exists in the tree). *)
val find_stable :
  Impl.t ->
  workloads:Op.t list array ->
  ?path_sched:Sched.t ->
  ?max_path:int ->
  depth:int ->
  check:(Elin_history.History.t -> t:int -> bool) ->
  unit ->
  stable_certificate option

type anchor = {
  config0 : Explore.config;  (** C0: right after op0's response *)
  v0 : int;  (** operations linearized before the new origin *)
}

(** Run [proc] solo from [config] until some fetch&inc returns exactly
    the number of operations invoked before it. *)
val find_anchor :
  Impl.t -> Explore.config -> proc:int -> fuel:int -> anchor option

(** [derive impl anchor] — A′ (bases and response shift) plus the
    per-process initial locals snapshotted at C0. *)
val derive : Impl.t -> anchor -> Impl.t * Value.t array

type outcome = {
  certificate : stable_certificate;
  anchor : anchor;
  derived : Impl.t;
  derived_locals : Value.t array;
}

(** The whole pipeline: find stable, idle, anchor, derive. *)
val construct :
  Impl.t ->
  workloads:Op.t list array ->
  ?anchor_proc:int ->
  depth:int ->
  check:(Elin_history.History.t -> t:int -> bool) ->
  ?fuel:int ->
  unit ->
  outcome option
