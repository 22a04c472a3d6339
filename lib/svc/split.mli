(** Client-side decomposition of multi-object jobs into per-object
    sub-jobs: one sub-history becomes one pool job, so a single
    multi-object check parallelizes across worker domains ([elin
    batch --decompose]).

    The composed verdict equals the monolithic one by the same
    soundness arguments as [Elin_checker.Decompose] (Lemmas 7–8):
    statuses combine by severity (any error-ish sub-status wins, else
    violation, else pass), [min_t] composes exactly through
    [Locality.compose_min_t], and [T_lin] cuts map through the
    projected cut t_o(t).  Node/memo counts are summed across
    sub-jobs and [wall_ms] is the slowest sub-job, so [--stats]
    output differs from the undecomposed path by design; canonical
    (stats-free) verdict lines differ only in those counts.

    Single-object, empty, and unparseable histories pass through
    whole, so error verdicts are the pool's own. *)

val run_batch :
  ?queue_capacity:int ->
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Elin_spec.Spec.t) ->
  domains:int ->
  Job.t list ->
  Verdict.t list
