(** Well-formed concurrent histories: finite event sequences in which
    each per-process subsequence alternates invocations with matching
    responses, starting with an invocation (Section 3). *)

open Elin_spec

type t

type error =
  | Response_without_invocation of int  (** event index *)
  | Invocation_while_pending of int     (** H|p not sequential *)
  | Mismatched_response of int          (** response on a different object *)

val pp_error : Format.formatter -> error -> unit

exception Ill_formed of error

(** [of_events events] validates well-formedness and derives the
    operation records.  Raises {!Ill_formed}. *)
val of_events : Event.t list -> t

(** [of_events_array events] — {!of_events} over an array, which the
    history keeps (no copy): the caller must not mutate it afterwards.
    Same result, and the same {!Ill_formed} error at the same event
    index. *)
val of_events_array : Event.t array -> t

val of_events_result : Event.t list -> (t, error) result
val well_formed : Event.t list -> bool

val events : t -> Event.t list
val events_array : t -> Event.t array
val length : t -> int
val event : t -> int -> Event.t

val ops : t -> Operation.t list
val ops_array : t -> Operation.t array
val n_ops : t -> int
val op : t -> int -> Operation.t

(** [op_of_event t i] — id of the operation event [i] belongs to. *)
val op_of_event : t -> int -> int

val complete_ops : t -> Operation.t list
val pending_ops : t -> Operation.t list

val procs : t -> int list
val objs : t -> int list

(** [proj_proc t p] is H|p (event indices renumbered). *)
val proj_proc : t -> int -> t

(** [proj_obj t o] is H|o. *)
val proj_obj : t -> int -> t

(** [index_map_obj t o] maps each event index of [proj_obj t o] back to
    its index in [t] (used by the Lemma 7 composition). *)
val index_map_obj : t -> int -> int array

(** [prefix t k] — the first [k] events. *)
val prefix : t -> int -> t

val is_sequential : t -> bool

(** [behaviour_of_sequential t] extracts the [(op, response)] list of a
    sequential history (a pending final invocation is dropped). *)
val behaviour_of_sequential : t -> (Op.t * Value.t) list

val append : t -> Event.t list -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [of_behaviour ?proc ?obj behaviour] — a sequential history. *)
val of_behaviour : ?proc:int -> ?obj:int -> (Op.t * Value.t) list -> t

val empty : t
