(** Tests for the observability layer (lib/obs): histogram bucket
    algebra, domain-sharded counter merging, the canonical trace
    schemas (JSONL key order, Chrome trace-event shape) under a
    deterministic clock, the zero-interference contract (mc verdicts,
    counterexamples and counts are bit-identical with tracing on or
    off, across domain counts and POR modes), OpenMetrics exposition,
    the flight recorder, and the trace tools. *)

open Elin_spec
open Elin_runtime
open Elin_checker
open Elin_mc
open Elin_svc
open Elin_test_support
module Obs = Elin_obs

(* Every test that flips a global observability switch restores it —
   the registry and the trace buffers are process-wide. *)
let with_obs ?(metrics = false) ?(trace = false) f =
  if metrics then Obs.Metrics.enable ();
  if trace then Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Metrics.disable ();
      Obs.Trace.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Metrics: histogram bucket algebra                                  *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  let open Obs.Metrics.Histogram in
  (* Bucket 0 absorbs non-positive values; bucket [i >= 1] holds
     [2^(i-1) .. 2^i - 1]. *)
  Alcotest.(check int) "0 -> bucket 0" 0 (bucket_of 0);
  Alcotest.(check int) "negative -> bucket 0" 0 (bucket_of (-7));
  Alcotest.(check int) "1 -> bucket 1" 1 (bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (bucket_of 4);
  Alcotest.(check int) "1023 -> bucket 10" 10 (bucket_of 1023);
  Alcotest.(check int) "1024 -> bucket 11" 11 (bucket_of 1024);
  (* OCaml's max_int is 2^62 - 1: the highest reachable bucket. *)
  Alcotest.(check int) "max_int -> bucket 62" 62 (bucket_of max_int);
  Alcotest.(check int) "bucket 0 lower" 0 (bucket_lower 0);
  Alcotest.(check int) "bucket 0 upper" 0 (bucket_upper 0);
  (* Edges are consistent with classification: a bucket's own lower
     and upper bounds classify back into it, and edges tile the line
     with no gap. *)
  for i = 1 to 40 do
    Alcotest.(check int)
      (Printf.sprintf "lower edge of %d classifies home" i)
      i
      (bucket_of (bucket_lower i));
    if i < 62 then begin
      Alcotest.(check int)
        (Printf.sprintf "upper edge of %d classifies home" i)
        i
        (bucket_of (bucket_upper i));
      Alcotest.(check int)
        (Printf.sprintf "bucket %d upper + 1 = bucket %d lower" i (i + 1))
        (bucket_lower (i + 1))
        (bucket_upper i + 1)
    end
  done;
  Alcotest.(check int) "bucket 62 upper is max_int" max_int (bucket_upper 62);
  Alcotest.(check int) "overflow bucket upper is max_int" max_int
    (bucket_upper 63)

let test_histogram_observe_quantile () =
  let h = Obs.Metrics.histogram "test.obs.lat" in
  (* 90 small values in bucket 1, 10 large in bucket 11: p50 reports
     bucket 1's upper edge, p99 bucket 11's. *)
  for _ = 1 to 90 do
    Obs.Metrics.Histogram.observe h 1
  done;
  for _ = 1 to 10 do
    Obs.Metrics.Histogram.observe h 1024
  done;
  (match Obs.Metrics.find "test.obs.lat" with
  | Some (Obs.Metrics.Histogram_v { count; sum; buckets }) ->
    Alcotest.(check int) "count" 100 count;
    Alcotest.(check int) "sum" (90 + (10 * 1024)) sum;
    Alcotest.(check (list (pair int int))) "nonzero buckets"
      [ (1, 90); (11, 10) ]
      buckets;
    Alcotest.(check int) "p50 = bucket 1 upper" 1
      (Obs.Metrics.quantile ~count ~buckets 0.5);
    Alcotest.(check int) "p99 = bucket 11 upper" 2047
      (Obs.Metrics.quantile ~count ~buckets 0.99)
  | _ -> Alcotest.fail "histogram not found in registry");
  Alcotest.(check int) "empty quantile is 0" 0
    (Obs.Metrics.quantile ~count:0 ~buckets:[] 0.5)

(* ------------------------------------------------------------------ *)
(* Metrics: sharded counters under domain hammering                   *)
(* ------------------------------------------------------------------ *)

let test_counter_shard_hammer () =
  let c = Obs.Metrics.counter "test.obs.hammer" in
  let per_domain = 25_000 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.Counter.incr c
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "merged total" (4 * per_domain)
    (Obs.Metrics.Counter.value c);
  (* The spawning domain never bumped: its own shard stayed empty
     (this is what lets mc workers compute per-tick deltas). *)
  Alcotest.(check int) "main shard untouched" 0
    (Obs.Metrics.Counter.shard_value c);
  Obs.Metrics.Counter.add c 17;
  Alcotest.(check int) "main shard sees own add" 17
    (Obs.Metrics.Counter.shard_value c);
  Alcotest.(check int) "merged total after add" ((4 * per_domain) + 17)
    (Obs.Metrics.Counter.value c)

let test_registry_semantics () =
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.Gauge.set g 41;
  Obs.Metrics.Gauge.add g 1;
  Alcotest.(check int) "gauge value" 42 (Obs.Metrics.Gauge.value g);
  (* Find-or-create: a second registration is the same cell. *)
  let g' = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.Gauge.set g' 7;
  Alcotest.(check int) "same cell via re-registration" 7
    (Obs.Metrics.Gauge.value g);
  (* Kind mismatch is a programming error. *)
  (match Obs.Metrics.counter "test.obs.gauge" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch should raise Invalid_argument");
  (* Snapshot is sorted by name and resettable. *)
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  Alcotest.(check (list string)) "snapshot sorted" (List.sort compare names)
    names;
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes the gauge" 0 (Obs.Metrics.Gauge.value g);
  match Obs.Metrics.find "test.obs.hammer" with
  | Some (Obs.Metrics.Counter_v 0) -> ()
  | _ -> Alcotest.fail "reset should zero counters but keep registrations"

let test_metrics_jsonl_schema () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.obs.schema.c" in
  let h = Obs.Metrics.histogram "test.obs.schema.h" in
  Obs.Metrics.Counter.add c 3;
  Obs.Metrics.Histogram.observe h 5;
  let lines = List.map Jsonl.to_string (Obs.Metrics.to_jsonl ()) in
  let find_line name =
    match
      List.find_opt
        (fun l ->
          match Jsonl.str_mem "metric" (Jsonl.of_string l) with
          | Some n -> n = name
          | None -> false)
        lines
    with
    | Some l -> l
    | None -> Alcotest.failf "no metric line for %s" name
  in
  (* Canonical key order is part of the schema: goldens diff cleanly. *)
  Alcotest.(check string) "counter line"
    {|{"metric":"test.obs.schema.c","type":"counter","value":3}|}
    (find_line "test.obs.schema.c");
  Alcotest.(check string) "histogram line"
    {|{"metric":"test.obs.schema.h","type":"histogram","count":1,"sum":5,"p50":7,"p99":7,"buckets":[[3,1]]}|}
    (find_line "test.obs.schema.h")

(* ------------------------------------------------------------------ *)
(* Trace: canonical schemas under a deterministic clock               *)
(* ------------------------------------------------------------------ *)

(* Fake monotonic clock: 1000 ns per read.  The event pattern below
   performs exactly four reads (instant; span begin; inner instant;
   span end), pinning every ts and dur. *)
let with_fake_clock f =
  let t = ref 0L in
  Obs.Clock.set_source_for_testing
    (Some
       (fun () ->
         t := Int64.add !t 1000L;
         !t));
  Fun.protect ~finally:(fun () -> Obs.Clock.set_source_for_testing None) f

let record_golden_events () =
  Obs.Trace.clear ();
  with_obs ~trace:true @@ fun () ->
  with_fake_clock @@ fun () ->
  Obs.Trace.instant ~cat:"t" "a";
  Obs.Trace.with_span ~cat:"t" ~args:[ ("k", Jsonl.Int 7) ] "b" (fun () ->
      Obs.Trace.instant ~cat:"t" "c");
  Obs.Trace.events ()

let test_trace_jsonl_golden () =
  let evs = record_golden_events () in
  let lines = List.map Jsonl.to_string (Obs.Trace.to_jsonl evs) in
  (* ts rebased to the first event; key order ts, dur, ph, name, cat,
     tid, args; dur only on spans, args only when nonempty. *)
  Alcotest.(check (list string)) "canonical JSONL"
    [
      {|{"ts":0,"ph":"i","name":"a","cat":"t","tid":0}|};
      {|{"ts":1000,"dur":2000,"ph":"X","name":"b","cat":"t","tid":0,"args":{"k":7}}|};
      {|{"ts":2000,"ph":"i","name":"c","cat":"t","tid":0}|};
    ]
    lines

let test_trace_chrome_golden () =
  let evs = record_golden_events () in
  let chrome = Obs.Trace.to_chrome evs in
  let tevs =
    match Jsonl.mem "traceEvents" chrome with
    | Some (Jsonl.Arr l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  Alcotest.(check int) "three events" 3 (List.length tevs);
  List.iter
    (fun ev ->
      Alcotest.(check (option int)) "pid 1" (Some 1) (Jsonl.int_mem "pid" ev);
      Alcotest.(check bool) "has name" true (Jsonl.str_mem "name" ev <> None))
    tevs;
  let span =
    match
      List.find_opt (fun ev -> Jsonl.str_mem "ph" ev = Some "X") tevs
    with
    | Some s -> s
    | None -> Alcotest.fail "no span event"
  in
  (* Chrome timestamps are microsecond floats: 1000 ns rebase = 1 us. *)
  Alcotest.(check (option (float 1e-9))) "span ts us" (Some 1.0)
    (Jsonl.float_mem "ts" span);
  Alcotest.(check (option (float 1e-9))) "span dur us" (Some 2.0)
    (Jsonl.float_mem "dur" span);
  List.iter
    (fun ev ->
      if Jsonl.str_mem "ph" ev = Some "i" then
        Alcotest.(check (option string)) "instant scope t" (Some "t")
          (Jsonl.str_mem "s" ev))
    tevs

let test_trace_disabled_is_silent () =
  Obs.Trace.clear ();
  Alcotest.(check bool) "off by default" false (Obs.Trace.on ());
  Alcotest.(check int64) "begin_ns is 0 when off" 0L (Obs.Trace.begin_ns ());
  Obs.Trace.instant "nope";
  Obs.Trace.complete ~ts:0L "nope";
  Obs.Trace.with_span "nope" (fun () -> ());
  Alcotest.(check int) "no events recorded" 0
    (List.length (Obs.Trace.events ()))

(* ------------------------------------------------------------------ *)
(* Zero interference: mc verdicts are identical with tracing on/off   *)
(* ------------------------------------------------------------------ *)

(* The engine-level counterpart of the CLI's byte-identical-output
   contract: across domain counts and POR modes, enabling the full
   observability stack must not change the verdict, the lex-min
   counterexample, or any exploration count. *)
let test_mc_determinism_under_tracing () =
  let impl = Elin_core.Ev_testandset.impl () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:1 in
  let cfg = Engine.for_spec (Testandset.spec ()) in
  let run ~domains ~por () =
    Mc.check impl ~workloads:wl ~max_steps:12 ~domains ~por (fun h ->
        Engine.linearizable cfg h)
  in
  List.iter
    (fun domains ->
      List.iter
        (fun por ->
          let label n =
            Printf.sprintf "%s (domains=%d por=%b)" n domains por
          in
          let off = run ~domains ~por () in
          let on =
            with_obs ~metrics:true ~trace:true @@ fun () ->
            let out = run ~domains ~por () in
            Alcotest.(check bool) (label "tracing recorded something") true
              (Obs.Trace.events () <> []);
            out
          in
          Alcotest.(check bool) (label "verdict") off.Mc.ok on.Mc.ok;
          Alcotest.(check int) (label "states") off.Mc.stats.Search.states
            on.Mc.stats.Search.states;
          Alcotest.(check int) (label "leaves") off.Mc.stats.Search.leaves
            on.Mc.stats.Search.leaves;
          Alcotest.(check int) (label "pruned") off.Mc.stats.Search.pruned
            on.Mc.stats.Search.pruned;
          Alcotest.(check int) (label "dedup_hits")
            off.Mc.stats.Search.dedup_hits on.Mc.stats.Search.dedup_hits;
          match (off.Mc.counterexample, on.Mc.counterexample) with
          | Some a, Some b ->
            Alcotest.check Support.history (label "lex-min counterexample") a b
          | None, None -> ()
          | _ -> Alcotest.fail (label "counterexample presence differs"))
        [ false; true ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                             *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* render_snapshot is pure, so the golden feeds a hand-built snapshot:
   one counter, one gauge, one histogram with mass in buckets 1 and 11
   (upper edges 1 and 2047). *)
let test_openmetrics_golden () =
  let body =
    Obs.Openmetrics.render_snapshot
      [
        ("net.jobs", Obs.Metrics.Counter_v 3);
        ("svc.latency_us",
         Obs.Metrics.Histogram_v
           { count = 100; sum = 10330; buckets = [ (1, 90); (11, 10) ] });
        ("svc.queue_depth", Obs.Metrics.Gauge_v 2);
      ]
  in
  Alcotest.(check string) "exposition golden"
    (String.concat "\n"
       [
         "# TYPE elin_net_jobs counter";
         "elin_net_jobs_total 3";
         "# TYPE elin_svc_latency_us histogram";
         {|elin_svc_latency_us_bucket{le="1"} 90|};
         {|elin_svc_latency_us_bucket{le="2047"} 100|};
         {|elin_svc_latency_us_bucket{le="+Inf"} 100|};
         "elin_svc_latency_us_count 100";
         "elin_svc_latency_us_sum 10330";
         "# TYPE elin_svc_latency_us_p50 gauge";
         "elin_svc_latency_us_p50 1";
         "# TYPE elin_svc_latency_us_p99 gauge";
         "elin_svc_latency_us_p99 2047";
         "# TYPE elin_svc_queue_depth gauge";
         "elin_svc_queue_depth 2";
         "# EOF";
         "";
       ])
    body;
  (match Obs.Openmetrics.validate body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "golden must validate: %s" e);
  (* The render/validate pair closes on the live registry too. *)
  (match Obs.Openmetrics.validate (Obs.Openmetrics.render ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "live render must validate: %s" e);
  let expect_err what text =
    match Obs.Openmetrics.validate text with
    | Ok () -> Alcotest.failf "%s must be rejected" what
    | Error e ->
      Alcotest.(check bool) (what ^ " error mentions openmetrics") true
        (contains e "openmetrics")
  in
  expect_err "missing terminator" "elin_x_total 1\n";
  expect_err "unparsable sample" "not a sample line\n# EOF\n";
  expect_err "non-numeric value" "elin_x_total banana\n# EOF\n";
  expect_err "content after EOF" "# EOF\nelin_x_total 1\n"

(* ------------------------------------------------------------------ *)
(* Flight recorder: the ring really is a ring                         *)
(* ------------------------------------------------------------------ *)

let test_recorder_ring_bound () =
  Obs.Recorder.clear ();
  for i = 1 to 300 do
    Obs.Recorder.note "tick" ~id:(string_of_int i)
  done;
  let es = Obs.Recorder.entries () in
  Alcotest.(check int) "capped at 256 entries" 256 (List.length es);
  (* Oldest-first overwrite: of 300 notes, the survivors are exactly
     the last 256 (45..300), in order. *)
  Alcotest.(check (list string)) "oldest overwritten first, order kept"
    (List.init 256 (fun i -> string_of_int (i + 45)))
    (List.map (fun e -> e.Obs.Recorder.id) es);
  Obs.Recorder.clear ();
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Obs.Recorder.entries ()))

(* One ring per live domain, not per domain ever spawned: 50 domains
   noting one after another share one recycled ring (the main
   domain's is the other), and each exited domain's last entry stays
   readable until the ring is reused. *)
let test_recorder_rings_track_live_domains () =
  Obs.Recorder.clear ();
  Obs.Recorder.note "main";
  let before = Obs.Recorder.rings () in
  for i = 1 to 50 do
    Domain.join
      (Domain.spawn (fun () ->
           Obs.Recorder.note "spawned" ~id:(string_of_int i)))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 rings (had %d before, %d after)" before
       (Obs.Recorder.rings ()))
    true
    (Obs.Recorder.rings () <= max 2 before);
  let ids =
    List.filter_map
      (fun e ->
        if e.Obs.Recorder.kind = "spawned" then Some e.Obs.Recorder.id else None)
      (Obs.Recorder.entries ())
  in
  Alcotest.(check bool) "last exited domain's note survives" true
    (List.mem "50" ids);
  Obs.Recorder.clear ()

(* ------------------------------------------------------------------ *)
(* Trace metadata + offline analysis toolkit                          *)
(* ------------------------------------------------------------------ *)

let test_trace_meta_golden () =
  (* Fake clock: the first event lands at absolute ts 1000, which is
     exactly what the meta header's t0 must expose (events themselves
     are rebased to 0). *)
  let evs = record_golden_events () in
  Alcotest.(check string) "meta header golden"
    {|{"meta":"elin.trace","t0":1000,"proc":"elin"}|}
    (Jsonl.to_string (Obs.Trace.meta_json evs))

let test_trace_tools_load_merge_report_flame () =
  let tmp suffix = Filename.temp_file "elin-tt" suffix in
  let client_f = tmp ".jsonl" in
  let server_f = tmp ".json" in
  let naked_f = tmp ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_proc "elin";
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ client_f; server_f; naked_f ])
    (fun () ->
      (* Two "processes" sharing one monotonic clock, like two elin
         processes on one host: client records first, server after. *)
      (with_fake_clock @@ fun () ->
       with_obs ~trace:true @@ fun () ->
       Obs.Trace.set_proc "client";
       Obs.Trace.with_span ~cat:"net"
         ~args:[ ("id", Jsonl.Str "j1"); ("trace", Jsonl.Str "j1") ]
         "client.job"
         (fun () -> ());
       Obs.Trace.write_file client_f;
       Obs.Trace.clear ();
       Obs.Trace.set_proc "serve";
       Obs.Trace.with_span ~cat:"net"
         ~args:[ ("id", Jsonl.Str "j1"); ("trace", Jsonl.Str "j1") ]
         "net.job"
         (fun () ->
           Obs.Trace.with_span ~cat:"svc"
             ~args:[ ("id", Jsonl.Str "j1"); ("trace", Jsonl.Str "j1") ]
             "svc.job"
             (fun () -> ()));
       Obs.Trace.write_file server_f);
      let load f =
        match Obs.Trace_tools.load f with
        | Ok x -> x
        | Error e -> Alcotest.failf "load %s: %s" f e
      in
      let cf = load client_f in
      let sf = load server_f in
      Alcotest.(check string) "proc from JSONL meta header" "client"
        cf.Obs.Trace_tools.proc;
      Alcotest.(check string) "proc from Chrome otherData" "serve"
        sf.Obs.Trace_tools.proc;
      (match (cf.Obs.Trace_tools.t0, sf.Obs.Trace_tools.t0) with
      | Some ct0, Some st0 ->
        Alcotest.(check bool) "server t0 after client t0 (shared clock)"
          true
          (Int64.compare ct0 st0 < 0)
      | _ -> Alcotest.fail "both exports must carry t0");
      (* Merge re-aligns on t0 and assigns one pid per process. *)
      (match Obs.Trace_tools.merge [ cf; sf ] with
      | Error e -> Alcotest.failf "merge: %s" e
      | Ok chrome ->
        let tevs =
          match Jsonl.mem "traceEvents" chrome with
          | Some (Jsonl.Arr l) -> l
          | _ -> Alcotest.fail "merged output missing traceEvents"
        in
        let pids =
          List.sort_uniq compare
            (List.filter_map (fun e -> Jsonl.int_mem "pid" e) tevs)
        in
        Alcotest.(check (list int)) "one pid per process (+ metadata)"
          [ 1; 2 ] pids);
      (* A trace with no metadata loads (back-compat) but refuses to
         merge: unaligned clocks would silently lie. *)
      let oc = open_out naked_f in
      output_string oc {|{"ts":0,"ph":"i","name":"x","cat":"t","tid":0}|};
      output_string oc "\n";
      close_out oc;
      let nf = load naked_f in
      Alcotest.(check bool) "no t0 without metadata" true
        (nf.Obs.Trace_tools.t0 = None);
      (match Obs.Trace_tools.merge [ cf; nf ] with
      | Error e ->
        Alcotest.(check bool) "merge refusal names t0" true (contains e "t0")
      | Ok _ -> Alcotest.fail "merge must refuse a t0-less input");
      (* Report: phases show up, and the per-job attribution keys on
         the propagated trace id. *)
      let rep =
        Obs.Trace_tools.report (cf.Obs.Trace_tools.evs @ sf.Obs.Trace_tools.evs)
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("report mentions " ^ needle) true
            (contains rep needle))
        [ "client.job"; "net.job"; "svc.job"; "j1" ];
      (* Flame: stacks nest by time containment within a lane. *)
      let fl = Obs.Trace_tools.flame [ cf; sf ] in
      Alcotest.(check bool) "server stack nests svc.job under net.job" true
        (contains fl "serve;net.job;svc.job");
      Alcotest.(check bool) "client stack present" true
        (contains fl "client;client.job"))

(* ------------------------------------------------------------------ *)
(* Trace propagation never changes verdicts (corpus gate)             *)
(* ------------------------------------------------------------------ *)

(* The service-level zero-interference gate: stamping every corpus job
   with a trace id AND enabling the full observability stack must
   leave every verdict line byte-identical to the plain run. *)
let test_corpus_trace_propagation_gate () =
  let ic = open_in "support/corpus_50.jobs" in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let jobs =
    List.filter_map
      (fun item -> match item with `Job j -> Some j | `Bad _ -> None)
      (Pool.parse_jobs lines)
  in
  Alcotest.(check bool) "corpus parsed" true (List.length jobs > 40);
  let plain =
    List.map Verdict.to_line (Pool.run_batch ~domains:2 jobs)
  in
  let stamped =
    List.map
      (fun j -> { j with Job.trace = Some ("trace-" ^ j.Job.id) })
      jobs
  in
  let traced =
    with_obs ~metrics:true ~trace:true @@ fun () ->
    let out = List.map Verdict.to_line (Pool.run_batch ~domains:2 stamped) in
    Alcotest.(check bool) "tracing recorded spans" true
      (Obs.Trace.events () <> []);
    out
  in
  Alcotest.(check (list string))
    "verdict lines identical with trace ids + tracing on" plain traced

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare a b <= 0);
  Alcotest.(check bool) "positive" true (Int64.compare 0L a < 0);
  let t0 = Obs.Clock.now_s () in
  let t1 = Obs.Clock.now_s () in
  Alcotest.(check bool) "seconds non-decreasing" true (t0 <= t1);
  Alcotest.(check (float 1e-9)) "ns_to_ms" 1.5 (Obs.Clock.ns_to_ms 1_500_000L);
  Alcotest.(check (float 1e-9)) "ns_to_us" 2.0 (Obs.Clock.ns_to_us 2_000L);
  with_fake_clock (fun () ->
      Alcotest.(check int64) "fake source respected" 1000L
        (Obs.Clock.now_ns ()));
  Alcotest.(check bool) "real clock restored" true
    (Int64.compare a (Obs.Clock.now_ns ()) <= 0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Support.quick "histogram bucket edges" test_histogram_buckets;
          Support.quick "histogram observe and quantiles"
            test_histogram_observe_quantile;
          Support.quick "4-domain counter shard hammer"
            test_counter_shard_hammer;
          Support.quick "registry find-or-create, reset, kind mismatch"
            test_registry_semantics;
          Support.quick "metric JSONL canonical schema"
            test_metrics_jsonl_schema;
        ] );
      ( "trace",
        [
          Support.quick "canonical JSONL golden" test_trace_jsonl_golden;
          Support.quick "Chrome trace-event shape" test_trace_chrome_golden;
          Support.quick "disabled mode records nothing"
            test_trace_disabled_is_silent;
        ] );
      ( "zero-interference",
        [
          Support.quick "mc verdict identical with tracing on/off"
            test_mc_determinism_under_tracing;
        ] );
      ( "openmetrics",
        [
          Support.quick "exposition golden and validator"
            test_openmetrics_golden;
        ] );
      ( "recorder",
        [
          Support.quick "ring bound drops oldest first"
            test_recorder_ring_bound;
          Support.quick "rings track live domains"
            test_recorder_rings_track_live_domains;
        ] );
      ( "trace-tools",
        [
          Support.quick "meta header golden" test_trace_meta_golden;
          Support.quick "load, merge, report, flame"
            test_trace_tools_load_merge_report_flame;
          Support.quick "corpus verdicts identical under trace propagation"
            test_corpus_trace_propagation_gate;
        ] );
      ("clock", [ Support.quick "monotonic source" test_clock_monotonic ]);
    ]
