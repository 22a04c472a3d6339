(** The valency analysis's exhaustive searches (the E9 workload) over
    {!Valency}'s protocol configurations, run through {!Search}'s
    parallel fingerprint-dedup BFS: consensus checking, valence
    tagging, critical-configuration search and the commutation check.
    Protocol steps on different base objects commute, so the
    interleaving tree collapses heavily under dedup.  Every search
    starts from a node, so the valence of any configuration on a
    descent is one search. *)

open Elin_spec
open Elin_valency

type node = {
  config : Valency.config;
  digests : int64 array;
  sleep : int;  (** sleep set as a process bitmask (POR) *)
}

val root : Valency.protocol -> inputs:Value.t array -> node

(** [Valency.step] with continuation-digest maintenance; [?choices]
    must be the poised access's [Base.access] enumeration when
    given. *)
val step :
  ?choices:(Value.t * Value.t) list ->
  Valency.protocol ->
  node ->
  int ->
  node list

(** Sleep-set pruning under [~por:true], as {!Canon.successors}. *)
val successors :
  ?por:bool -> ?pruned:int Atomic.t -> Valency.protocol -> node -> node list
val fingerprint : node -> int64

type report = {
  decisions : Value.t array list;  (** sorted, duplicate-free *)
  agreement_violation : Value.t array option;
  validity_violation : Value.t array option;
  terminated : bool;
  stats : Search.stats;
}

(** Exhaustively check the consensus specification on one input
    vector.  [decisions] is reported even when termination fails
    ([terminated = false]): the decision set of the paths that did
    decide within the bound.  [dedup] and [por] default to [true]; the
    decision set and [terminated] are invariant under both and under
    [domains].  [spill]/[resume] as in {!Mc.check}: external-memory
    fingerprint tier plus crash-safe checkpoint/resume. *)
val check_consensus :
  Valency.protocol ->
  inputs:Value.t array ->
  max_steps:int ->
  ?domains:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?spill:Mc.spill ->
  ?resume:bool ->
  unit ->
  report

type valence =
  | Univalent of Value.t
  | Multivalent of Value.t list
  | Undetermined  (** a path below is cut by the bound: valence unknown *)

(** Process 0's decision values below [node], for agreement-correct
    protocols. *)
val valence : Valency.protocol -> node -> max_steps:int -> valence

type critical = {
  config : Valency.config;
  moves : (int option * valence) array;
      (** per runnable process: poised object and post-move valence *)
}

(** Descend from the root through the first multivalent child to a
    configuration all of whose successors are univalent. *)
val find_critical :
  Valency.protocol ->
  inputs:Value.t array ->
  max_steps:int ->
  critical option

(** The commutation argument, concretely: decision sets after stepping
    i;j vs j;i from [node] (normalized; a configuration with a path cut
    by the bound contributes nothing). *)
val commute_check :
  Valency.protocol ->
  node ->
  int ->
  int ->
  max_steps:int ->
  Value.t list list * Value.t list list
