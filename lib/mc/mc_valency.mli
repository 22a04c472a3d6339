(** The model checker, specialized to the valency analysis's protocol
    configurations (the E9 workload): [Valency.check_consensus]'s
    exhaustive semantics through {!Search}'s parallel
    fingerprint-dedup BFS.  Protocol steps on different base objects
    commute, so the interleaving tree collapses heavily under dedup. *)

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

(** Unlike the DFS original ([Valency.check_consensus]), [decisions]
    is still reported when termination fails: the decision set of the
    paths that did decide within the bound.  [spill]/[resume] as in
    {!Mc.check}: external-memory visited tier plus crash-safe
    checkpoint/resume. *)
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
