(** The protocol model of the valency analysis for two-process
    consensus protocols (Proposition 15's proof machinery, after FLP):
    protocols, configurations and their atomic steps, including every
    adversary branch of eventually linearizable base objects.  The
    exhaustive searches over it — consensus checking, valence tagging,
    critical-configuration search — are in [Elin_mc.Mc_valency]. *)

open Elin_spec
open Elin_runtime

type protocol = {
  name : string;
  bases : Base.t array;
  code : proc:int -> input:Value.t -> Value.t Program.t;
      (** terminates with the process's decision *)
}

type pstate = Running of Value.t Program.t | Decided of Value.t

type config = {
  procs : pstate array;
  bases : Value.t array;
  steps : int;
}

val initial : protocol -> inputs:Value.t array -> config

val runnable : config -> int list
val all_decided : config -> bool

(** The base object process [i] is poised to access, if its next step
    is an access. *)
val poised : config -> int -> int option

(** All configurations after process [i]'s next atomic step. *)
val step :
  ?choices:(Value.t * Value.t) list -> protocol -> config -> int -> config list
