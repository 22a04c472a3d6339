(** Worker-pool execution of checking jobs. *)

open Elin_kernel
open Elin_spec
open Elin_history
open Elin_checker

exception Unknown_spec of string

let default_resolve name =
  match
    List.find_opt
      (fun (e : Zoo.entry) -> Spec.name e.Zoo.spec = name)
      (Zoo.all ())
  with
  | Some e -> e.Zoo.spec
  | None -> raise (Unknown_spec name)

(* Cooperative aborts, raised from the budget-poll hook. *)
exception Deadline_passed
exception Cancel_requested

(* Job lifecycle observability: enqueue instants + a span per executed
   job (worker lane = domain id) and a queue-depth gauge; the per-job
   counters and latency histogram are {!Metrics}. *)
module Obs = Elin_obs

let g_queue = Obs.Metrics.gauge "svc.queue"

type t = {
  input : (Job.t * bool Atomic.t) Chan.t;
  output : Verdict.t Chan.t;
  mutable workers : (unit, exn) result Domain.t array;
  resolve : string -> Spec.t;
  default_budget : int option;
  default_timeout_ms : int option;
  (* Most recent cancellation flag per job id. *)
  cancels : (string, bool Atomic.t) Hashtbl.t;
  cancels_m : Mutex.t;
  mutable shut_down : bool;
  shutdown_m : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* Executing one job                                                  *)
(* ------------------------------------------------------------------ *)

(* The pool's bound is a ceiling: a job's own bound may lower it,
   never raise it. *)
let ceiling job_bound pool_bound =
  match job_bound, pool_bound with
  | Some j, Some p -> Some (min j p)
  | Some _, None -> job_bound
  | None, _ -> pool_bound

let exec pool (job : Job.t) cancel_flag =
  (* Monotonic: a wall-clock adjustment mid-job must not skew the
     latency sample or fire/defer the deadline. *)
  let t0 = Obs.Clock.now_s () in
  let finish ?min_t ?(nodes = 0) ?(memo_hits = 0) status =
    {
      Verdict.job_id = job.Job.id;
      seq = job.Job.seq;
      check = Some job.Job.check;
      status;
      min_t;
      nodes;
      memo_hits;
      wall_ms = (Obs.Clock.now_s () -. t0) *. 1000.;
    }
  in
  match
    let spec = pool.resolve job.Job.spec in
    let h = Textio.of_string job.Job.history_text in
    let deadline =
      Option.map
        (fun ms -> t0 +. (float_of_int ms /. 1000.))
        (ceiling job.Job.timeout_ms pool.default_timeout_ms)
    in
    let poll () =
      if Atomic.get cancel_flag then raise Cancel_requested;
      match deadline with
      | Some d when Obs.Clock.now_s () > d -> raise Deadline_passed
      | _ -> ()
    in
    (* A job cancelled or expired while queued never starts. *)
    poll ();
    let budget = ceiling job.Job.node_budget pool.default_budget in
    let engine_prepared () =
      Engine.prepare (Engine.for_spec ?node_budget:budget ~poll spec) h
    in
    match job.Job.check with
    | Job.Linearizable | Job.T_lin _ ->
      let cut = match job.Job.check with Job.T_lin t -> t | _ -> 0 in
      let p = engine_prepared () in
      let v = Engine.check_at p ~t:cut in
      finish
        (if v.Engine.ok then Verdict.Pass else Verdict.Violation)
        ~nodes:v.Engine.nodes_explored ~memo_hits:v.Engine.memo_hits
    | Job.Min_t ->
      let p = engine_prepared () in
      let mt, st = Eventual.min_t_prepared p in
      finish
        (match mt with Some _ -> Verdict.Pass | None -> Verdict.Violation)
        ?min_t:mt ~nodes:st.Eventual.nodes ~memo_hits:st.Eventual.memo_hits
    | Job.Weak -> (
      let wcfg = Weak.for_spec ?node_budget:budget ~poll spec in
      match Weak.check wcfg h with
      | Ok () -> finish Verdict.Pass
      | Error _violating -> finish Verdict.Violation)
    | Job.Full ->
      (* The full battery absorbs budget exhaustion into its report
         (partial verdicts are still informative); we surface it as
         the budget_exhausted status.  Poll aborts still escape. *)
      let r = Report.analyze ?node_budget:budget ~poll spec h in
      let nodes, memo_hits =
        match r.Report.search with
        | Some s -> (s.Eventual.nodes, s.Eventual.memo_hits)
        | None -> (0, 0)
      in
      finish
        (if r.Report.budget_exhausted then Verdict.Budget_exhausted
         else if Report.is_eventually_linearizable r then Verdict.Pass
         else Verdict.Violation)
        ?min_t:r.Report.min_t ~nodes ~memo_hits
  with
  | v -> v
  | exception Budget.Exceeded -> finish Verdict.Budget_exhausted
  | exception Deadline_passed -> finish Verdict.Timed_out
  | exception Cancel_requested -> finish Verdict.Cancelled
  | exception Unknown_spec name ->
    finish (Verdict.Bad_job (Printf.sprintf "unknown spec %S" name))
  | exception Textio.Parse_error m ->
    finish (Verdict.Bad_job ("history parse error: " ^ m))
  | exception History.Ill_formed e ->
    finish
      (Verdict.Bad_job
         (Format.asprintf "ill-formed history: %a" History.pp_error e))
  | exception e ->
    (* Crash containment: a raising checker (or spec) fails THIS job;
       the worker keeps serving. *)
    finish (Verdict.Failed (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Workers                                                            *)
(* ------------------------------------------------------------------ *)

let rec worker_loop pool =
  match Chan.take pool.input with
  | None -> () (* input closed and drained: clean exit *)
  | Some (job, cancel_flag) ->
    if Obs.Metrics.on () then Obs.Metrics.Gauge.set g_queue (Chan.length pool.input);
    let span_ts = Obs.Trace.begin_ns () in
    Obs.Recorder.note "job.start" ~id:job.Job.id;
    let v = exec pool job cancel_flag in
    let status_s = Verdict.status_to_string v.Verdict.status in
    if Obs.Trace.on () then
      Obs.Trace.complete ~cat:"svc" ~ts:span_ts "svc.job"
        ~args:
          ([
             ("id", Obs.Jsonl.Str v.Verdict.job_id);
             ("status", Obs.Jsonl.Str status_s);
           ]
          @ (match job.Job.trace with
            | Some t -> [ ("trace", Obs.Jsonl.Str t) ]
            | None -> [])
          @
          match job.Job.parent with
          | Some p -> [ ("parent", Obs.Jsonl.Str p) ]
          | None -> []);
    Obs.Recorder.note "job.done" ~id:job.Job.id
      ~args:
        [
          ("status", Obs.Jsonl.Str status_s);
          ("wall_ms", Obs.Jsonl.Float v.Verdict.wall_ms);
        ];
    (* A crashed or timed-out job is exactly the post-mortem the
       flight recorder exists for; no-op unless a sink is set. *)
    (match v.Verdict.status with
    | Verdict.Failed _ -> Obs.Recorder.dump ~reason:"job_failed" ~job:job.Job.id ()
    | Verdict.Timed_out ->
      Obs.Recorder.dump ~reason:"job_timeout" ~job:job.Job.id ()
    | _ -> ());
    (* Drop the cancellation entry once the job is done (unless a
       resubmission under the same id has already replaced it): a
       long-lived server must not accumulate one entry per job. *)
    Mutex.lock pool.cancels_m;
    (match Hashtbl.find_opt pool.cancels job.Job.id with
    | Some f when f == cancel_flag -> Hashtbl.remove pool.cancels job.Job.id
    | _ -> ());
    Mutex.unlock pool.cancels_m;
    Metrics.verdict_done v;
    Chan.put pool.output v;
    worker_loop pool

let create ?(queue_capacity = 64) ?default_budget ?default_timeout_ms
    ?(resolve = default_resolve) ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Pool.create: queue_capacity must be >= 1";
  let pool =
    {
      input = Chan.create ~capacity:queue_capacity ();
      output = Chan.create ~capacity:queue_capacity ();
      workers = [||];
      resolve;
      default_budget;
      default_timeout_ms;
      cancels = Hashtbl.create 64;
      cancels_m = Mutex.create ();
      shut_down = false;
      shutdown_m = Mutex.create ();
    }
  in
  pool.workers <-
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            try Ok (worker_loop pool) with e -> Error e));
  pool

let submit pool (job : Job.t) =
  let flag = Atomic.make false in
  Mutex.lock pool.cancels_m;
  Hashtbl.replace pool.cancels job.Job.id flag;
  Mutex.unlock pool.cancels_m;
  Chan.put pool.input (job, flag);
  if Obs.Metrics.on () then Obs.Metrics.Gauge.set g_queue (Chan.length pool.input);
  Obs.Trace.instant ~cat:"svc" "svc.enqueue"
    ~args:[ ("id", Obs.Jsonl.Str job.Job.id) ];
  Metrics.job_submitted ()

let try_submit pool (job : Job.t) =
  let flag = Atomic.make false in
  Mutex.lock pool.cancels_m;
  Hashtbl.replace pool.cancels job.Job.id flag;
  Mutex.unlock pool.cancels_m;
  if Chan.try_put pool.input (job, flag) then begin
    if Obs.Metrics.on () then
      Obs.Metrics.Gauge.set g_queue (Chan.length pool.input);
    Obs.Trace.instant ~cat:"svc" "svc.enqueue"
      ~args:[ ("id", Obs.Jsonl.Str job.Job.id) ];
    Metrics.job_submitted ();
    true
  end
  else begin
    (* Refused: de-register the flag we optimistically installed
       (unless someone replaced it meanwhile). *)
    Mutex.lock pool.cancels_m;
    (match Hashtbl.find_opt pool.cancels job.Job.id with
    | Some f when f == flag -> Hashtbl.remove pool.cancels job.Job.id
    | _ -> ());
    Mutex.unlock pool.cancels_m;
    false
  end

let take_verdict pool = Chan.take pool.output

let cancel pool id =
  Mutex.lock pool.cancels_m;
  let flag = Hashtbl.find_opt pool.cancels id in
  Mutex.unlock pool.cancels_m;
  match flag with
  | Some f ->
    Atomic.set f true;
    true
  | None -> false

let queue_depth pool = Chan.length pool.input
let output_depth pool = Chan.length pool.output

let shutdown pool =
  let first_run =
    Mutex.lock pool.shutdown_m;
    let fresh = not pool.shut_down in
    pool.shut_down <- true;
    Mutex.unlock pool.shutdown_m;
    fresh
  in
  if first_run then begin
    Chan.close pool.input;
    (* Join EVERY worker before re-raising anything (the Search.bfs
       discipline): a failure must never leak unjoined domains. *)
    let results = Array.map Domain.join pool.workers in
    Chan.close pool.output;
    Array.iter (function Ok () -> () | Error e -> raise e) results
  end

(* ------------------------------------------------------------------ *)
(* Batch driver                                                       *)
(* ------------------------------------------------------------------ *)

let run_batch ?queue_capacity ?default_budget ?default_timeout_ms ?resolve
    ~domains jobs =
  let pool =
    create ?queue_capacity ?default_budget ?default_timeout_ms ?resolve
      ~domains ()
  in
  (* Feed from a separate domain so the main domain can drain verdicts
     concurrently: with both channels bounded, feeding and draining
     from one thread would deadlock once both fill up. *)
  let feeder =
    Domain.spawn (fun () ->
        match
          List.iter (fun j -> submit pool j) jobs;
          shutdown pool
        with
        | () -> Ok ()
        | exception e ->
          (* Unblock the drain loop, then report. *)
          Chan.close pool.input;
          Chan.close pool.output;
          Error e)
  in
  let verdicts = ref [] in
  let rec drain () =
    match take_verdict pool with
    | Some v ->
      verdicts := v :: !verdicts;
      drain ()
    | None -> ()
  in
  drain ();
  (match Domain.join feeder with Ok () -> () | Error e -> raise e);
  List.sort
    (fun a b -> compare a.Verdict.seq b.Verdict.seq)
    !verdicts

(* ------------------------------------------------------------------ *)
(* JSONL front door                                                   *)
(* ------------------------------------------------------------------ *)

let parse_jobs lines =
  let is_blank line = String.trim line = "" in
  let is_comment line =
    let t = String.trim line in
    String.length t > 0 && t.[0] = '#'
  in
  List.concat
    (List.mapi
       (fun i line ->
         if is_blank line || is_comment line then []
         else
           match Job.of_line ~seq:i line with
           | Ok j -> [ `Job j ]
           | Error e ->
             [
               `Bad
                 {
                   Verdict.job_id = Printf.sprintf "line-%d" (i + 1);
                   seq = i;
                   check = None;
                   status = Verdict.Bad_job e;
                   min_t = None;
                   nodes = 0;
                   memo_hits = 0;
                   wall_ms = 0.;
                 };
             ])
       lines)

let run_lines ~run lines =
  let entries = parse_jobs lines in
  let jobs = List.filter_map (function `Job j -> Some j | `Bad _ -> None) entries in
  let bads =
    List.filter_map (function `Bad v -> Some v | `Job _ -> None) entries
  in
  List.iter Metrics.verdict_done bads;
  List.sort
    (fun a b -> compare a.Verdict.seq b.Verdict.seq)
    (bads @ run jobs)
