(** The batched checking service: a persistent pool of worker domains
    pulling jobs from a bounded channel and emitting structured
    verdicts.

    {2 Shape}

    {v
            submit (blocks when full: backpressure)
    caller ────────────► [Chan: jobs] ──► worker domains (N)
                                              │  per-job budget,
                                              │  deadline, cancel flag,
                                              │  crash containment
    caller ◄──────────── [Chan: verdicts] ◄───┘
            take / run_batch
    v}

    {2 Isolation and containment}

    Each job runs sequentially on one worker under its own
    [Budget.counter] (node budget) and a poll hook checking its
    wall-clock deadline and cancellation flag.  {e Any} exception a
    job raises — a poisoned spec, a malformed history, a checker bug —
    becomes that job's verdict ([bad_job] / [failed] / [timed_out] /
    [budget_exhausted] / [cancelled]); the worker and the pool
    survive.  Only harness-level failures (a worker dying outside job
    execution) propagate, and then via the join-all-then-reraise
    discipline of [Mc.Search.bfs]: {!shutdown} joins every domain
    before re-raising, so no domain is ever leaked.

    {2 Determinism}

    Per-job results are deterministic (the checker is sequential per
    job); only completion {e order} depends on scheduling.  Verdicts
    carry the submission index, and {!run_batch} sorts by it, so batch
    output is independent of [domains] — the same bar as [lib/mc]. *)

open Elin_spec

(** Raised by the default resolver for a spec name outside
    [Zoo.all]. *)
exception Unknown_spec of string

val default_resolve : string -> Spec.t

type t

(** [create ~domains ()] — spawn the workers.

    - [queue_capacity] (default 64) bounds both channels; producers
      block when the service is saturated.
    - [default_budget] / [default_timeout_ms] are ceilings: a job runs
      under the smaller of its own bound and the pool's ([elin batch]
      and [elin serve] alike: a job can lower them, never raise them).
    - [resolve] maps job spec names to specs (default: the
      {!Elin_spec.Zoo} by name); exceptions it raises surface as
      [bad_job].

    Every submitted and every finished job is counted in {!Metrics}. *)
val create :
  ?queue_capacity:int ->
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  domains:int ->
  unit ->
  t

(** [submit t job] — enqueue, blocking while the queue is full.
    Raises [Chan.Closed] after {!shutdown}. *)
val submit : t -> Job.t -> unit

(** [try_submit t job] — like {!submit} but never blocks: [false]
    when the queue is full (the socket server's [busy] admission
    path).  Raises [Chan.Closed] after {!shutdown}. *)
val try_submit : t -> Job.t -> bool

(** [take_verdict t] — next completed verdict (completion order);
    [None] once the pool is shut down and drained. *)
val take_verdict : t -> Verdict.t option

(** [cancel t id] — request cooperative cancellation of the most
    recently submitted job with this id; [false] if unknown.  A queued
    job is cancelled before it starts; a running one at its next poll.
    Already-completed jobs are unaffected. *)
val cancel : t -> string -> bool

(** Jobs currently queued (not yet picked up). *)
val queue_depth : t -> int

(** Verdicts emitted by workers and not yet taken. *)
val output_depth : t -> int

(** [shutdown t] — close the job channel, join every worker, then
    close the verdict channel (pending verdicts remain takeable).
    Idempotent.  Re-raises a harness-level worker failure only after
    all domains are joined. *)
val shutdown : t -> unit

(** [run_batch ~domains jobs] — the whole lifecycle: create, feed
    (from a separate domain, so the caller's drain provides the
    backpressure), shut down, and return verdicts sorted back into
    submission order.  Deterministic output for any [domains]. *)
val run_batch :
  ?queue_capacity:int ->
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  domains:int ->
  Job.t list ->
  Verdict.t list

(** [parse_jobs lines] — classify numbered JSONL lines into jobs and
    immediate [bad_job] verdicts; blank and [#]-comment lines are
    skipped (their line numbers still count for [seq]). *)
val parse_jobs :
  string list -> [ `Job of Job.t | `Bad of Verdict.t ] list

(** [run_lines ~run lines] — {!parse_jobs}, then [run] over the
    parsed jobs, with the bad-line verdicts (counted in {!Metrics})
    merged back in submission order: the engine behind [elin batch].
    [run] is {!run_batch}, [Split.run_batch] or a socket client's
    batch driver; it must return one verdict per job, each carrying
    its job's [seq]. *)
val run_lines :
  run:(Job.t list -> Verdict.t list) -> string list -> Verdict.t list
