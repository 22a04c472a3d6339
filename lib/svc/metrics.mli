(** The checking service's counters: a view of the process-wide
    [Obs.Metrics] registry under the [svc.] names.

    The pool bumps them once per submitted and once per finished job,
    the socket server once per verdict it answers locally (busy,
    malformed payload).  {!snapshot} reads them back; {!snapshot_to_json}
    renders one as a JSONL object — the pool's structured log record
    ([elin batch --stats], the final line of [elin serve]).  Counts
    are per process: [Obs.Metrics.reset] zeroes them. *)

(** A job entered the pool's queue. *)
val job_submitted : unit -> unit

(** [verdict_done v] — accounts completion, the per-status counter,
    explored nodes, and the job latency [v.wall_ms]. *)
val verdict_done : Verdict.t -> unit

type snapshot = {
  submitted : int;
  completed : int;
  pass : int;
  violations : int;
  budget_exhausted : int;
  timed_out : int;
  cancelled : int;
  busy : int;               (** admission-refused replies (socket server) *)
  bad_jobs : int;
  failed : int;
  nodes : int;              (** total DFS expansions across jobs *)
  p50_ms : float;           (** latency percentiles over completed jobs,
                                from the [svc.latency_us] log2 histogram
                                (bucket-upper-edge answers); [max_ms] is
                                the upper edge of the top bucket *)
  p99_ms : float;
  max_ms : float;
}

val snapshot : unit -> snapshot
val pp_snapshot : Format.formatter -> snapshot -> unit
val snapshot_to_json : snapshot -> Jsonl.t
