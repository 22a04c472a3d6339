(* The service's counters, read back from the Obs.Metrics registry. *)

module M = Elin_obs.Metrics

let submitted = M.counter "svc.submitted"
let completed = M.counter "svc.completed"
let pass = M.counter "svc.pass"
let violations = M.counter "svc.violations"
let budget_exhausted = M.counter "svc.budget_exhausted"
let timed_out = M.counter "svc.timed_out"
let cancelled = M.counter "svc.cancelled"
let busy = M.counter "svc.busy"
let bad_jobs = M.counter "svc.bad_jobs"
let failed = M.counter "svc.failed"
let nodes = M.counter "svc.nodes"
let latency_us = M.histogram "svc.latency_us"

(* Per-job bumps are cold next to a checker run, so they skip the
   [M.on ()] guard (the registry's cost contract). *)
let job_submitted () = M.Counter.incr submitted

let verdict_done (v : Verdict.t) =
  M.Counter.incr completed;
  M.Counter.incr
    (match v.Verdict.status with
    | Verdict.Pass -> pass
    | Verdict.Violation -> violations
    | Verdict.Budget_exhausted -> budget_exhausted
    | Verdict.Timed_out -> timed_out
    | Verdict.Cancelled -> cancelled
    | Verdict.Busy -> busy
    | Verdict.Bad_job _ -> bad_jobs
    | Verdict.Failed _ -> failed);
  M.Counter.add nodes v.Verdict.nodes;
  M.Histogram.observe latency_us (int_of_float (v.Verdict.wall_ms *. 1000.))

type snapshot = {
  submitted : int;
  completed : int;
  pass : int;
  violations : int;
  budget_exhausted : int;
  timed_out : int;
  cancelled : int;
  busy : int;
  bad_jobs : int;
  failed : int;
  nodes : int;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
}

let snapshot () =
  let count, _sum, buckets = M.Histogram.merged latency_us in
  let ms q = float_of_int (M.quantile ~count ~buckets q) /. 1000. in
  let v = M.Counter.value in
  {
    submitted = v submitted;
    completed = v completed;
    pass = v pass;
    violations = v violations;
    budget_exhausted = v budget_exhausted;
    timed_out = v timed_out;
    cancelled = v cancelled;
    busy = v busy;
    bad_jobs = v bad_jobs;
    failed = v failed;
    nodes = v nodes;
    p50_ms = ms 0.5;
    p99_ms = ms 0.99;
    max_ms = ms 1.0;
  }

let snapshot_to_json s =
  let open Jsonl in
  Obj
    [
      ("submitted", Int s.submitted);
      ("completed", Int s.completed);
      ("pass", Int s.pass);
      ("violations", Int s.violations);
      ("budget_exhausted", Int s.budget_exhausted);
      ("timed_out", Int s.timed_out);
      ("cancelled", Int s.cancelled);
      ("busy", Int s.busy);
      ("bad_jobs", Int s.bad_jobs);
      ("failed", Int s.failed);
      ("nodes", Int s.nodes);
      ("p50_ms", Float s.p50_ms);
      ("p99_ms", Float s.p99_ms);
      ("max_ms", Float s.max_ms);
    ]

let pp_snapshot ppf s =
  Format.fprintf ppf
    "jobs %d/%d done (pass %d, violations %d, budget %d, timeout %d, \
     cancelled %d, busy %d, bad %d, failed %d)  nodes %d  latency p50 \
     %.2fms p99 %.2fms max %.2fms"
    s.completed s.submitted s.pass s.violations s.budget_exhausted s.timed_out
    s.cancelled s.busy s.bad_jobs s.failed s.nodes s.p50_ms s.p99_ms s.max_ms
