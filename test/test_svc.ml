(** Tests for the batched checking service (lib/svc): JSONL codec,
    job/verdict wire formats, the exit-code policy table, batch
    determinism across domain counts, and the isolation guarantees —
    poisoned jobs, per-job budgets, wall-clock timeouts, cooperative
    cancellation — none of which may kill the pool. *)

open Elin_spec
open Elin_history
open Elin_svc
open Elin_test_support

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Jsonl                                                              *)
(* ------------------------------------------------------------------ *)

let test_jsonl_print () =
  let open Jsonl in
  Alcotest.(check string) "object"
    {|{"a":1,"b":[true,null,"x"],"c":{"d":-2}}|}
    (to_string
       (Obj
          [
            ("a", Int 1);
            ("b", Arr [ Bool true; Null; Str "x" ]);
            ("c", Obj [ ("d", Int (-2)) ]);
          ]));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd\te"|}
    (to_string (Str "a\"b\\c\nd\te"));
  Alcotest.(check string) "control char" {|"\u0001"|}
    (to_string (Str "\001"));
  Alcotest.(check string) "float" "1.5" (to_string (Float 1.5))

let test_jsonl_parse () =
  let open Jsonl in
  Alcotest.(check bool) "nested" true
    (of_string {| {"a": [1, 2.5, "s", true, false, null], "b":{}} |}
    = Obj
        [
          ("a", Arr [ Int 1; Float 2.5; Str "s"; Bool true; Bool false; Null ]);
          ("b", Obj []);
        ]);
  Alcotest.(check bool) "unicode escape" true
    (of_string {|"Aé"|} = Str "A\xc3\xa9");
  Alcotest.(check (option int)) "int_mem" (Some 3)
    (int_mem "n" (of_string {|{"n":3}|}));
  Alcotest.(check (option string)) "str_mem" (Some "v")
    (str_mem "s" (of_string {|{"s":"v"}|}));
  let expect_error s =
    match of_string s with
    | _ -> Alcotest.failf "expected Parse_error on %S" s
    | exception Parse_error _ -> ()
  in
  List.iter expect_error
    [ "{"; "[1,]"; "tru"; "1 x"; {|{"a" 1}|}; {|"unterminated|}; "" ]

let test_jsonl_roundtrip () =
  let open Jsonl in
  let v =
    Obj
      [
        ("id", Str "j-1");
        ("xs", Arr [ Int 0; Float 3.25; Str "a b"; Null ]);
        ("nested", Obj [ ("t", Bool true); ("s", Str "\twith\nnewlines") ]);
      ]
  in
  Alcotest.(check bool) "print/parse round-trip" true
    (of_string (to_string v) = v)

(* ------------------------------------------------------------------ *)
(* Job / Verdict codecs                                               *)
(* ------------------------------------------------------------------ *)

let sample_history_text =
  "inv 0 0 fetch&inc\nres 0 0 0\ninv 1 0 fetch&inc\nres 1 0 1\n"

let mk_job ?(id = "j") ?(seq = 0) ?budget ?timeout_ms check =
  {
    Job.id;
    seq;
    spec = "fetch&increment";
    check;
    node_budget = budget;
    timeout_ms;
    history_text = sample_history_text;
    trace = None;
    parent = None;
  }

let test_job_roundtrip () =
  List.iter
    (fun check ->
      let j = mk_job ~budget:100 ~timeout_ms:50 check in
      match Job.of_line ~seq:0 (Job.to_line j) with
      | Ok j' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" (Job.check_to_string check))
          true (j = j')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [ Job.Linearizable; Job.T_lin 3; Job.Min_t; Job.Weak; Job.Full ]

let test_job_bad_lines () =
  let expect_err line =
    match Job.of_line ~seq:0 line with
    | Ok _ -> Alcotest.failf "expected error on %S" line
    | Error _ -> ()
  in
  expect_err "not json";
  expect_err {|{"id":"x"}|};                        (* missing fields *)
  expect_err {|{"id":"x","spec":"s","check":"nope","history":"h"}|};
  expect_err {|{"id":"x","spec":"s","check":"t-lin","history":"h"}|}
  (* t-lin without t *)

let test_verdict_line () =
  let v =
    {
      Verdict.job_id = "j1";
      seq = 4;
      check = Some Job.Min_t;
      status = Verdict.Pass;
      min_t = Some 2;
      nodes = 17;
      memo_hits = 3;
      wall_ms = 1.25;
    }
  in
  (* Canonical form: fixed field order, no wall-clock noise. *)
  Alcotest.(check string) "canonical line"
    {|{"id":"j1","check":"min-t","status":"pass","min_t":2,"nodes":17,"memo_hits":3}|}
    (Verdict.to_line v);
  Alcotest.(check bool) "stats adds wall_ms" true
    (Jsonl.float_mem "wall_ms" (Verdict.to_json ~stats:true v) = Some 1.25);
  match Verdict.of_json ~seq:4 (Verdict.to_json ~stats:true v) with
  | Ok v' -> Alcotest.(check bool) "verdict round-trip" true (v = v')
  | Error e -> Alcotest.failf "verdict round-trip failed: %s" e

(* ------------------------------------------------------------------ *)
(* Exit codes                                                         *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let verdict status =
    {
      Verdict.job_id = "x";
      seq = 0;
      check = None;
      status;
      min_t = None;
      nodes = 0;
      memo_hits = 0;
      wall_ms = 0.;
    }
  in
  (* (statuses, expected exit code): the table from the CLI contract —
     0 ok, 1 violation, 2 usage, 3 budget/timeout; severity
     Usage > Exhausted > Violation > Ok. *)
  let table =
    [
      ([], 0);
      ([ Verdict.Pass ], 0);
      ([ Verdict.Pass; Verdict.Pass ], 0);
      ([ Verdict.Violation ], 1);
      ([ Verdict.Pass; Verdict.Violation ], 1);
      ([ Verdict.Budget_exhausted ], 3);
      ([ Verdict.Timed_out ], 3);
      ([ Verdict.Cancelled ], 3);
      ([ Verdict.Violation; Verdict.Budget_exhausted ], 3);
      ([ Verdict.Bad_job "x" ], 2);
      ([ Verdict.Failed "x" ], 2);
      ([ Verdict.Budget_exhausted; Verdict.Bad_job "x" ], 2);
      ([ Verdict.Violation; Verdict.Failed "x"; Verdict.Timed_out ], 2);
    ]
  in
  List.iteri
    (fun i (statuses, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "row %d" i)
        expected
        (Exit_code.to_int (Exit_code.of_verdicts (List.map verdict statuses))))
    table

(* ------------------------------------------------------------------ *)
(* Custom specs for the isolation tests                               *)
(* ------------------------------------------------------------------ *)

let fai = Faicounter.spec ()

(* A spec whose every transition raises: the poisoned checker. *)
let poison_spec =
  Spec.make ~name:"poison" ~initial:(Value.int 0)
    ~apply:(fun _ _ -> failwith "poisoned checker")
    ~all_ops:[ Op.fetch_inc ]

(* fai with a delay in every transition, for mid-run timeouts. *)
let sleepy_spec =
  Spec.make ~name:"sleepy" ~initial:(Spec.initial fai)
    ~apply:(fun q op ->
      Unix.sleepf 0.0002;
      Spec.apply fai q op)
    ~all_ops:(Spec.all_ops fai)

(* fai gated on a flag: transitions block until the gate opens, so a
   single-worker pool can be held mid-job deterministically. *)
let gate_open = Atomic.make false

let gate_spec =
  Spec.make ~name:"gate" ~initial:(Spec.initial fai)
    ~apply:(fun q op ->
      while not (Atomic.get gate_open) do
        Domain.cpu_relax ()
      done;
      Spec.apply fai q op)
    ~all_ops:(Spec.all_ops fai)

(* The a1 unsat family: k pending writes of distinct values plus a
   reader whose final read repeats value 1 — refuting it forces a walk
   of the whole interleaving space (thousands of nodes at k=8). *)
let unsat_reg_k = 8

let unsat_reg_spec =
  Register.spec ~domain:(List.init unsat_reg_k (fun i -> i + 1)) ()

let unsat_reg_text =
  let events =
    List.init unsat_reg_k (fun i ->
        Event.invoke ~proc:(i + 1) ~obj:0 (Op.write (i + 1)))
    @ List.concat_map
        (fun i ->
          [
            Event.invoke ~proc:0 ~obj:0 Op.read;
            Event.respond ~proc:0 ~obj:0 (Value.int (i + 1));
          ])
        (List.init unsat_reg_k (fun i -> i))
    @ [
        Event.invoke ~proc:0 ~obj:0 Op.read;
        Event.respond ~proc:0 ~obj:0 (Value.int 1);
      ]
  in
  Textio.to_string (History.of_events events)

let resolve name =
  match name with
  | "poison" -> poison_spec
  | "sleepy" -> sleepy_spec
  | "gate" -> gate_spec
  | "unsat-reg" -> unsat_reg_spec
  | "sleepy-unsat-reg" ->
    Spec.make ~name:"sleepy-unsat-reg" ~initial:(Spec.initial unsat_reg_spec)
      ~apply:(fun q op ->
        Unix.sleepf 0.0002;
        Spec.apply unsat_reg_spec q op)
      ~all_ops:(Spec.all_ops unsat_reg_spec)
  | other -> Pool.default_resolve other

let job ?budget ?timeout_ms ~id ~seq ~spec check =
  {
    Job.id;
    seq;
    spec;
    check;
    node_budget = budget;
    timeout_ms;
    history_text = sample_history_text;
    trace = None;
    parent = None;
  }

(* ------------------------------------------------------------------ *)
(* Batch determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_batch_determinism () =
  (* 8 histories x 3 checks; outputs must be byte-identical for any
     worker-domain count. *)
  let jobs =
    List.concat
      (List.init 8 (fun i ->
           let rng = Elin_kernel.Prng.create (500 + i) in
           let h = Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 () in
           let text = Textio.to_string h in
           List.mapi
             (fun j check ->
               {
                 Job.id = Printf.sprintf "d%d-%d" i j;
                 seq = (i * 3) + j;
                 spec = "fetch&increment";
                 check;
                 node_budget = None;
                 timeout_ms = None;
                 history_text = text;
                 trace = None;
                 parent = None;
               })
             [ Job.Linearizable; Job.Min_t; Job.Full ]))
  in
  let lines domains =
    List.map Verdict.to_line (Pool.run_batch ~domains jobs)
  in
  let one = lines 1 in
  Alcotest.(check int) "all jobs answered" (List.length jobs)
    (List.length one);
  Alcotest.(check (list string)) "domains=2 byte-identical" one (lines 2);
  Alcotest.(check (list string)) "domains=4 byte-identical" one (lines 4)

(* ------------------------------------------------------------------ *)
(* Isolation: poison, budget, timeout, cancel                         *)
(* ------------------------------------------------------------------ *)

let test_poisoned_job_contained () =
  (* A raising checker between two normal jobs: neighbors succeed, the
     pool survives, shutdown re-raises nothing. *)
  let jobs =
    [
      job ~id:"before" ~seq:0 ~spec:"fetch&increment" Job.Linearizable;
      job ~id:"poisoned" ~seq:1 ~spec:"poison" Job.Linearizable;
      job ~id:"after" ~seq:2 ~spec:"fetch&increment" Job.Linearizable;
    ]
  in
  let vs = Pool.run_batch ~resolve ~domains:2 jobs in
  match List.map (fun v -> (v.Verdict.job_id, v.Verdict.status)) vs with
  | [ ("before", Verdict.Pass); ("poisoned", Verdict.Failed msg);
      ("after", Verdict.Pass) ] ->
    Alcotest.(check bool) "failure names the poison" true
      (contains msg "poisoned checker")
  | other ->
    Alcotest.failf "unexpected verdicts: %s"
      (String.concat "; "
         (List.map
            (fun (id, st) ->
              Printf.sprintf "%s=%s" id (Verdict.status_to_string st))
            other))

let test_budget_exhausted () =
  let jobs =
    [
      { (job ~budget:50 ~id:"tight" ~seq:0 ~spec:"unsat-reg" Job.Linearizable)
        with Job.history_text = unsat_reg_text };
      job ~id:"fine" ~seq:1 ~spec:"fetch&increment" Job.Linearizable;
    ]
  in
  match Pool.run_batch ~resolve ~domains:1 jobs with
  | [ a; b ] ->
    Alcotest.(check bool) "budget verdict" true
      (a.Verdict.status = Verdict.Budget_exhausted);
    Alcotest.(check bool) "neighbor unharmed" true
      (b.Verdict.status = Verdict.Pass)
  | _ -> Alcotest.fail "expected two verdicts"

(* The pool's node budget is a ceiling: a job's own budget may lower
   it, never raise it.  The unsat register history's check explores a
   node count that lies between the two budgets (read from an unbounded
   run). *)
let test_budget_ceiling () =
  let low = 100 and high = 1_000_000 in
  let run ?pool ?budget () =
    let j =
      { (job ?budget ~id:"j" ~seq:0 ~spec:"unsat-reg" Job.Linearizable)
        with Job.history_text = unsat_reg_text }
    in
    match Pool.run_batch ~resolve ?default_budget:pool ~domains:1 [ j ] with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one verdict"
  in
  let nodes = (run ()).Verdict.nodes in
  Alcotest.(check bool)
    (Printf.sprintf "%d nodes lie between the budgets" nodes)
    true
    (low < nodes && nodes < high);
  let expect name want ?pool ?budget () =
    Alcotest.(check string) name
      (Verdict.status_to_string want)
      (Verdict.status_to_string (run ?pool ?budget ()).Verdict.status)
  in
  expect "no job budget: the pool's applies" Verdict.Budget_exhausted
    ~pool:low ();
  expect "a lower job budget applies" Verdict.Budget_exhausted ~pool:high
    ~budget:low ();
  expect "a higher job budget does not raise the pool's"
    Verdict.Budget_exhausted ~pool:low ~budget:high ();
  expect "no pool budget: the job's applies" Verdict.Violation ~budget:high ()

(* The pool's timeout is a ceiling too.  A 0 ms deadline has passed
   before the job starts. *)
let test_timeout_ceiling () =
  let run ?pool ?timeout_ms () =
    let j = job ?timeout_ms ~id:"j" ~seq:0 ~spec:"fetch&increment" Job.Full in
    match
      Pool.run_batch ~resolve ?default_timeout_ms:pool ~domains:1 [ j ]
    with
    | [ v ] -> v.Verdict.status
    | _ -> Alcotest.fail "expected one verdict"
  in
  let expect name want got =
    Alcotest.(check string) name
      (Verdict.status_to_string want)
      (Verdict.status_to_string got)
  in
  expect "a lower job timeout applies" Verdict.Timed_out
    (run ~pool:60_000 ~timeout_ms:0 ());
  expect "a higher job timeout does not raise the pool's" Verdict.Timed_out
    (run ~pool:0 ~timeout_ms:60_000 ());
  expect "no job timeout: the pool's applies" Verdict.Timed_out (run ~pool:0 ());
  expect "no pool timeout: the job's applies" Verdict.Pass
    (run ~timeout_ms:60_000 ())

let test_timeout_pre_exec () =
  (* timeout_ms = 0: the deadline has passed before the job starts;
     the pre-exec poll converts it without running the checker. *)
  let jobs =
    [ job ~timeout_ms:0 ~id:"late" ~seq:0 ~spec:"fetch&increment" Job.Full ]
  in
  match Pool.run_batch ~resolve ~domains:1 jobs with
  | [ v ] ->
    Alcotest.(check bool) "timed out" true
      (v.Verdict.status = Verdict.Timed_out)
  | _ -> Alcotest.fail "expected one verdict"

let test_timeout_mid_run () =
  (* A slow unsat search under a 25ms deadline: the budget-poll hook
     fires mid-DFS and converts the run.  The neighbor still passes. *)
  let jobs =
    [
      { (job ~timeout_ms:25 ~id:"slow" ~seq:0 ~spec:"sleepy-unsat-reg"
           Job.Linearizable)
        with Job.history_text = unsat_reg_text };
      job ~id:"fine" ~seq:1 ~spec:"fetch&increment" Job.Linearizable;
    ]
  in
  match Pool.run_batch ~resolve ~domains:1 jobs with
  | [ a; b ] ->
    Alcotest.(check bool) "timed out mid-run" true
      (a.Verdict.status = Verdict.Timed_out);
    Alcotest.(check bool) "neighbor unharmed" true
      (b.Verdict.status = Verdict.Pass)
  | _ -> Alcotest.fail "expected two verdicts"

let test_cancellation () =
  (* One worker, held mid-job by the gate; a queued job cancelled
     while waiting is answered [cancelled] at its pre-exec poll. *)
  Atomic.set gate_open false;
  let pool = Pool.create ~resolve ~domains:1 () in
  Pool.submit pool (job ~id:"holder" ~seq:0 ~spec:"gate" Job.Linearizable);
  (* Give the worker time to pick up the holder and block on the gate. *)
  Unix.sleepf 0.05;
  Pool.submit pool
    (job ~id:"victim" ~seq:1 ~spec:"fetch&increment" Job.Linearizable);
  Alcotest.(check bool) "cancel known job" true (Pool.cancel pool "victim");
  Alcotest.(check bool) "cancel unknown job" false (Pool.cancel pool "ghost");
  Atomic.set gate_open true;
  let feeder = Domain.spawn (fun () -> Pool.shutdown pool) in
  let rec drain acc =
    match Pool.take_verdict pool with
    | Some v -> drain (v :: acc)
    | None -> List.rev acc
  in
  let vs =
    List.sort
      (fun a b -> compare a.Verdict.seq b.Verdict.seq)
      (drain [])
  in
  Domain.join feeder;
  match List.map (fun v -> (v.Verdict.job_id, v.Verdict.status)) vs with
  | [ ("holder", Verdict.Pass); ("victim", Verdict.Cancelled) ] -> ()
  | other ->
    Alcotest.failf "unexpected verdicts: %s"
      (String.concat "; "
         (List.map
            (fun (id, st) ->
              Printf.sprintf "%s=%s" id (Verdict.status_to_string st))
            other))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_statuses () =
  let jobs =
    [
      job ~id:"ok" ~seq:0 ~spec:"fetch&increment" Job.Linearizable;
      job ~id:"bad" ~seq:1 ~spec:"no-such-spec" Job.Linearizable;
      { (job ~budget:50 ~id:"tight" ~seq:2 ~spec:"unsat-reg" Job.Linearizable)
        with Job.history_text = unsat_reg_text };
    ]
  in
  (* The counters live in the process-wide registry: zero it, run,
     read the snapshot back. *)
  Elin_obs.Metrics.reset ();
  ignore (Pool.run_batch ~resolve ~domains:1 jobs);
  let s = Metrics.snapshot () in
  Alcotest.(check int) "submitted" 3 s.Metrics.submitted;
  Alcotest.(check int) "completed" 3 s.Metrics.completed;
  Alcotest.(check int) "pass" 1 s.Metrics.pass;
  Alcotest.(check int) "bad_jobs" 1 s.Metrics.bad_jobs;
  Alcotest.(check int) "budget_exhausted" 1 s.Metrics.budget_exhausted;
  Alcotest.(check bool) "p50 <= p99 <= max" true
    (s.Metrics.p50_ms <= s.Metrics.p99_ms && s.Metrics.p99_ms <= s.Metrics.max_ms)

(* ------------------------------------------------------------------ *)
(* run_lines                                                          *)
(* ------------------------------------------------------------------ *)

let test_run_lines_bad_lines () =
  let good =
    Job.to_line (job ~id:"g" ~seq:0 ~spec:"fetch&increment" Job.Linearizable)
  in
  let lines = [ "# comment"; good; "   "; "{oops"; good ] in
  let vs = Pool.run_lines ~run:(Pool.run_batch ~domains:1) lines in
  Alcotest.(check int) "three verdicts (blank/comment skipped)" 3
    (List.length vs);
  match vs with
  | [ a; b; c ] ->
    Alcotest.(check bool) "first good" true (a.Verdict.status = Verdict.Pass);
    Alcotest.(check string) "bad line id names its line" "line-4"
      b.Verdict.job_id;
    (match b.Verdict.status with
    | Verdict.Bad_job _ -> ()
    | st -> Alcotest.failf "expected bad_job, got %s" (Verdict.status_to_string st));
    Alcotest.(check bool) "second good" true (c.Verdict.status = Verdict.Pass)
  | _ -> Alcotest.fail "unreachable"

(* ------------------------------------------------------------------ *)
(* Trace context on the wire; flight recorder dumps                   *)
(* ------------------------------------------------------------------ *)

let test_job_trace_wire () =
  (* With trace/parent set, the fields round-trip; without them the
     line is byte-identical to the pre-tracing wire format. *)
  let bare = mk_job Job.Linearizable in
  let bare_line = Job.to_line bare in
  Alcotest.(check bool) "absent trace leaves no wire residue" false
    (contains bare_line "trace" || contains bare_line "parent");
  let stamped = { bare with Job.trace = Some "t-9"; parent = Some "p-1" } in
  (match Job.of_line ~seq:0 (Job.to_line stamped) with
  | Ok j ->
    Alcotest.(check bool) "trace survives" true (j.Job.trace = Some "t-9");
    Alcotest.(check bool) "parent survives" true (j.Job.parent = Some "p-1")
  | Error e -> Alcotest.failf "stamped job failed to parse: %s" e);
  match Job.of_line ~seq:0 bare_line with
  | Ok j ->
    Alcotest.(check bool) "absent fields parse as None" true
      (j.Job.trace = None && j.Job.parent = None)
  | Error e -> Alcotest.failf "bare job failed to parse: %s" e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_flight_sink f =
  let path = Filename.temp_file "elin-flight" ".jsonl" in
  Elin_obs.Recorder.set_sink (Some path);
  Fun.protect
    ~finally:(fun () ->
      Elin_obs.Recorder.set_sink None;
      Elin_obs.Recorder.clear ();
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_flight_dump_on_poisoned_job () =
  with_flight_sink (fun path ->
      let before = Elin_obs.Recorder.dump_count () in
      let vs =
        Pool.run_batch ~resolve ~domains:1
          [ job ~id:"boom" ~seq:0 ~spec:"poison" Job.Linearizable ]
      in
      (match vs with
      | [ { Verdict.status = Verdict.Failed _; _ } ] -> ()
      | _ -> Alcotest.fail "poisoned job must fail");
      Alcotest.(check bool) "a dump happened" true
        (Elin_obs.Recorder.dump_count () > before);
      let dump = read_file path in
      Alcotest.(check bool) "header names the reason" true
        (contains dump {|"flight":"elin.flight"|}
        && contains dump {|"reason":"job_failed"|});
      Alcotest.(check bool) "header names the offending job" true
        (contains dump {|"job":"boom"|});
      Alcotest.(check bool) "ring holds the job.start note" true
        (contains dump {|"kind":"job.start"|}))

let test_flight_dump_on_sigusr1 () =
  with_flight_sink (fun path ->
      Elin_obs.Recorder.install_sigusr1 ();
      let before = Elin_obs.Recorder.dump_count () in
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      (* OCaml delivers signals at safepoints; give the runtime a
         bounded moment to run the handler. *)
      let deadline = Unix.gettimeofday () +. 2. in
      while
        Elin_obs.Recorder.dump_count () = before
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.01
      done;
      Alcotest.(check bool) "SIGUSR1 produced a dump" true
        (Elin_obs.Recorder.dump_count () > before);
      Alcotest.(check bool) "dump reason is sigusr1" true
        (contains (read_file path) {|"reason":"sigusr1"|}))

let () =
  Alcotest.run "svc"
    [
      ( "jsonl",
        [
          Support.quick "printing and escapes" test_jsonl_print;
          Support.quick "parsing and errors" test_jsonl_parse;
          Support.quick "round-trip" test_jsonl_roundtrip;
        ] );
      ( "codec",
        [
          Support.quick "job line round-trip" test_job_roundtrip;
          Support.quick "bad job lines rejected" test_job_bad_lines;
          Support.quick "verdict canonical line and round-trip"
            test_verdict_line;
        ] );
      ("exit-codes", [ Support.quick "policy table" test_exit_codes ]);
      ( "pool",
        [
          Support.quick "batch output independent of domain count"
            test_batch_determinism;
          Support.quick "poisoned job is contained" test_poisoned_job_contained;
          Support.quick "per-job budget yields budget_exhausted"
            test_budget_exhausted;
          Support.quick "pool budget is a ceiling" test_budget_ceiling;
          Support.quick "pool timeout is a ceiling" test_timeout_ceiling;
          Support.quick "timeout before start" test_timeout_pre_exec;
          Support.quick "timeout mid-run" test_timeout_mid_run;
          Support.quick "cooperative cancellation" test_cancellation;
        ] );
      ( "batcher-metrics",
        [
          Support.quick "status counters and percentiles"
            test_metrics_statuses;
        ] );
      ( "trace-flight",
        [
          Support.quick "trace/parent wire fields round-trip"
            test_job_trace_wire;
          Support.quick "poisoned job triggers a flight dump"
            test_flight_dump_on_poisoned_job;
          Support.quick "SIGUSR1 triggers a flight dump"
            test_flight_dump_on_sigusr1;
        ] );
      ( "lines-spool",
        [
          Support.quick "bad lines become bad_job verdicts"
            test_run_lines_bad_lines;
        ] );
    ]
