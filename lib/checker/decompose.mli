(** Decomposed checking: split a history into independently checkable
    sub-histories and compose the verdicts {e exactly}.

    Two cuts (soundness arguments in DESIGN.md §15):

    - {b Per-object projection} (Lemmas 7–8; Hamza's totality
      condition).  An event survives removal of the first [t] events
      of H iff its projection survives removal of the first [t_o(t)]
      events of H|o, where [t_o(t)] counts events of object [o] among
      the first [t] of H; by the Herlihy–Wing interval-order merge
      this holds in both directions, so [Locality.compose_min_t] over
      the per-object bounds equals the monolithic [min_t] — it is not
      merely the Lemma 7 upper bound.  Weak consistency is decided per
      object by [Weak.check] itself.

    - {b Gap cuts at t = 0}: event indices where no operation is open
      split a sub-history into segments whose linearizations
      concatenate.  Segments are threaded with the full {e set} of
      reachable boundary states ({!Engine.final_states}), capped at an
      internal bound with monolithic fallback.  Gaps are unsound for
      [t > 0] (cut-forgiven operations may cross gap boundaries), so
      they serve only the [t = 0] probe of the gallop.

    Each sub-history's gallop threads one failure-hint array through
    its probes ({!Engine.check_at}).  [node_budget] bounds each engine
    run, as in the monolithic path; verdicts and [min_t] are
    bit-identical to the monolithic checkers whenever neither path
    exhausts its budget. *)

open Elin_spec
open Elin_history

type config

val config :
  ?node_budget:int -> ?poll:(unit -> unit) -> (int -> Spec.t) -> config

val for_spec : ?node_budget:int -> ?poll:(unit -> unit) -> Spec.t -> config

(** Decomposition/exploration statistics accumulated across every
    sub-check of one call. *)
type stats = {
  objects : int;        (** per-object sub-histories checked *)
  gap_segments : int;   (** segments checked across all gap-cut probes *)
  gap_fallbacks : int;  (** gap compositions abandoned (state-set cap) *)
  cuts_probed : int;
  nodes : int;
  memo_hits : int;
}

val pp_stats : Format.formatter -> stats -> unit

(** [sub_cut imap ~t] — the projected cut t_o(t): how many events of
    the projection (whose [History.index_map_obj] is [imap]) fall
    among the first [t] events of the parent history.  H is
    t-linearizable iff every projection is [sub_cut imap ~t]-
    linearizable (the svc splitter maps [T_lin] jobs through this). *)
val sub_cut : int array -> t:int -> int

val t_linearizable_stats : config -> History.t -> t:int -> bool * stats
val t_linearizable : config -> History.t -> t:int -> bool
val linearizable : config -> History.t -> bool

(** [min_t_stats cfg h] — the composed minimal stabilization bound,
    equal to [Eventual.min_t] on the whole history, plus search
    statistics in both shapes. *)
val min_t_stats :
  config -> History.t -> int option * Eventual.search_stats * stats

val min_t : config -> History.t -> int option

(** Decomposed drop-in for {!Report.analyze}: the returned report
    renders bit-identically (the witness is reconstructed by the
    monolithic engine at the composed bound) except for
    the [search] statistics, which count the decomposed exploration. *)
val analyze :
  ?node_budget:int ->
  ?poll:(unit -> unit) ->
  Spec.t ->
  History.t ->
  Report.t * stats
