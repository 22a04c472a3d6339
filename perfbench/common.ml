(* Shared plumbing for the benchmark: raw-sample summaries, the metric
   catalogue, trace events and child processes. *)

module Obs = Elin_obs
module J = Elin_obs.Jsonl

let now_ns = Obs.Clock.now_ns
let now_s = Obs.Clock.now_s
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Raw-sample summaries                                               *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive") and numpy's default. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* The tail a sample count can support: the highest of p99.9/p99/p90
   that leaves at least ten samples above it, else the maximum. *)
let tail a =
  let n = float_of_int (Array.length a) in
  match List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.9 ] with
  | Some q -> (q, quantile a q)
  | None -> (1.0, quantile a 1.0)

(* p99 when at least ten samples lie above it, else the maximum. *)
let p99_or_max a =
  if float_of_int (Array.length a) *. 0.01 >= 10. then quantile a 0.99
  else quantile a 1.0

let summary a =
  if Array.length a = 0 then J.Null
  else
    let q, t = tail a in
    J.Obj
      [
        ("n", J.Int (Array.length a));
        ("p50", J.Float (median a));
        ("tail_q", J.Float q);
        ("tail", J.Float t);
      ]

let sum a = Array.fold_left ( +. ) 0. a

(* ------------------------------------------------------------------ *)
(* Metric catalogue (mirrors BENCHMARK.json)                          *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("mc_states_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("lat_p50_ms", "ms");
    ("capacity_jobs_per_s", "1/s");
  ]

(* A layer a workload does not exercise reads 0.  The tail latency
   sits here rather than among the end-to-end metrics: on a shared
   2-core host its run-to-run spread exceeds any usable bound. *)
let per_layer =
  [
    ("lat_p99_ms", "ms");
    ("canon.successors.calls", "count");
    ("canon.successors.busy_s", "s");
    ("canon.fingerprint.calls", "count");
    ("canon.fingerprint.busy_s", "s");
    ("explore.history.busy_s", "s");
    ("engine.leaf_check.calls", "count");
    ("engine.leaf_check.busy_s", "s");
    ("search.other_s", "s");
    ("search.domain_imbalance", "ratio");
    ("store.disk_probes", "count");
    ("store.disk_probe_hits", "count");
    ("store.segments", "count");
    ("store.disk_bytes", "B");
    ("svc.check_ms.p50", "ms");
    ("svc.check_ms.p99", "ms");
    ("svc.outside_check_ms.p50", "ms");
    ("svc.outside_check_ms.p99", "ms");
    ("svc.client_send_ms.p99", "ms");
    ("svc.gen_late_ms.p99", "ms");
    ("svc.nodes", "count");
    ("svc.pool_jobs_per_s", "1/s");
    ("svc.job_decode_us", "us");
    ("svc.verdict_encode_us", "us");
    ("trace.overhead", "ratio");
    ("failed_frac", "ratio");
  ]

(* What a workload hands back: its gate outcome, its metrics by name,
   and free-form detail (sample counts, quantiles, counts) for the
   stamped result row. *)
type result = {
  attempted : int;
  failed : int;
  gate_errors : string list;
  metrics : (string * float) list;
  detail : (string * J.t) list;
}

(* ------------------------------------------------------------------ *)
(* Gates                                                              *)
(* ------------------------------------------------------------------ *)

(* Collects gate failures; each is also reported on stderr at once. *)
type gates = { mutable errors : string list }

let gates () = { errors = [] }

let fail g fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: gate failed: " ^ m);
      g.errors <- m :: g.errors)
    fmt

let expect_int g what ~want got =
  if want <> got then fail g "%s = %d, expected %d" what got want

(* ------------------------------------------------------------------ *)
(* Trace events (Obs.Trace's Chrome format, built by hand so the       *)
(* library's own per-call spans stay off)                              *)
(* ------------------------------------------------------------------ *)

let trace_events : Obs.Trace.event list ref = ref []

let span ?(args = []) ?(tid = 0) ~cat ~ts ~dur name =
  trace_events :=
    { Obs.Trace.ts; dur; name; cat; tid; args } :: !trace_events

let write_trace path =
  let evs =
    List.stable_sort
      (fun a b -> Int64.compare a.Obs.Trace.ts b.Obs.Trace.ts)
      !trace_events
  in
  Obs.Trace.set_proc "perfbench";
  J.to_file path (Obs.Trace.to_chrome evs)

(* ------------------------------------------------------------------ *)
(* Files and processes                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o700

(* Peak resident set of a live process, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

(* Children still running; killed on any exit path so no process
   outlives the benchmark. *)
let live_children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children)

(* [spawn prog args ~stderr_to] — start [prog] with a pipe on its
   stdout; returns the pid and the read end. *)
let spawn prog args ~stderr_to =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_to [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o600
  in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w err
  in
  Unix.close w;
  Unix.close err;
  live_children := pid :: !live_children;
  (pid, Unix.in_channel_of_descr r)

let reap pid ic =
  (try
     while true do
       ignore (input_line ic)
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  live_children := List.filter (( <> ) pid) !live_children;
  status
