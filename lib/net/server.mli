(** Concurrent socket front-end for the checking service: a listener
    (Unix-domain or TCP) speaking {!Frame}-delimited {!Elin_svc.Jsonl}
    job/verdict lines, feeding the existing {!Elin_svc.Pool}.

    {2 Shape}

    {v
              accept (select loop, stop-aware)
    clients ──────────► session readers (1 thread/conn)
                            │ parse frame → Job, rewrite id
                            ▼
                        [Pool: bounded job channel]  ← backpressure
                            │ worker domains
                            ▼
                        dispatcher (1 thread) ── route by id ──► per-conn
                                                                 outbox →
                                                                 writer
    v}

    {2 Sessions and pipelining}

    Each connection may pipeline any number of job frames without
    waiting; verdicts come back {e in completion order}, matched by the
    job's [id] (the server tags ids internally for routing and
    restores the caller's id on the way out).  Callers that need
    submission order sort by their own ids — exactly the
    {!Elin_svc.Pool.run_batch} contract, minus the sorting.

    {2 Admission}

    The pool's bounded job channel is the only queue.  Under
    [`Block] admission (default) a full queue blocks the session
    reader, so backpressure propagates to the client's socket writes.
    Under [`Busy] admission a full queue refuses the job immediately
    with a [busy] verdict, and the client may retry.

    {2 Containment and drain}

    Malformed JSON in a well-framed payload costs a [bad_job] verdict
    and the session continues; a framing violation (oversized length
    prefix, EOF mid-frame) is unrecoverable, so the session answers
    what it already accepted and closes.  A crashing job costs a
    [failed] verdict (the pool's containment); the server survives.
    {!stop} drains gracefully: stop accepting, stop reading, finish
    every admitted job, flush every outbox — no accepted job is left
    unanswered. *)

open Elin_spec

type admission = Block | Busy

type t

(** [start addr] — bind, listen, and serve until {!stop}.

    - [domains], [queue_capacity], [default_budget],
      [default_timeout_ms], [resolve] configure the underlying
      {!Elin_svc.Pool} (same defaults).  Verdicts the server answers
      itself (busy, malformed payload) are counted in
      {!Elin_svc.Metrics} like the pool's.
    - [admission] — see above (default [Block]).
    - [outbox_capacity] (default 1024) bounds each connection's reply
      queue; a client that stops reading past that is disconnected
      rather than allowed to wedge the dispatcher.
    - [max_frame] bounds accepted frame payloads.
    - [stats] appends [wall_ms] to verdict lines (default false, for
      byte-identical parity with [elin batch]).

    A stale Unix-socket path (no listener behind it) is reclaimed;
    a live one raises [Failure].  TCP port 0 binds an ephemeral port —
    read it back with {!port}. *)
val start :
  ?domains:int ->
  ?queue_capacity:int ->
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  ?admission:admission ->
  ?outbox_capacity:int ->
  ?max_frame:int ->
  ?stats:bool ->
  Addr.t ->
  t

(** Actual TCP port (after binding port 0); [None] for Unix sockets. *)
val port : t -> int option

(** Connections currently open. *)
val connections : t -> int

(** Pool jobs queued / verdicts awaiting routing — a stuck-pipeline
    diagnostic surface (see {!Elin_svc.Pool.queue_depth}). *)
val queue_depth : t -> int

val output_depth : t -> int

(** Graceful drain, blocking until complete (see module doc).
    Idempotent.  Unlinks the Unix socket path. *)
val stop : t -> unit
