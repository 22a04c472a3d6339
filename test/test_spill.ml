(** Tests for the external-memory spill tier and crash-safe
    checkpointing wired through lib/mc: dedup semantics bit-identical
    across spill on/off — verdicts, lex-min counterexamples, and
    counts — for 1/2/4 domains, POR on/off and dedup on/off; checkpoint + resume reaching the identical outcome;
    identity-mismatch rejection; and observability zero-interference
    under spill. *)

open Elin_spec
open Elin_runtime
open Elin_checker
open Elin_mc
open Elin_test_support

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "elin-spill-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* A tiny hot tier so even small test spaces spill for real. *)
let tiny_spill ?(every = 0) ?(identity = "test") ?on_checkpoint dir =
  Mc.spill ~hot:64 ~every ~identity ?on_checkpoint dir

let domain_counts = [ 1; 2; 4 ]

let check_stats_equal name (a : Search.stats) (b : Search.stats) =
  Alcotest.(check int) (name ^ " states") a.Search.states b.Search.states;
  Alcotest.(check int) (name ^ " dedup_hits") a.Search.dedup_hits
    b.Search.dedup_hits;
  Alcotest.(check int) (name ^ " kept") a.Search.kept b.Search.kept;
  Alcotest.(check int) (name ^ " pruned") a.Search.pruned b.Search.pruned;
  Alcotest.(check int)
    (name ^ " frontier_peak")
    a.Search.frontier_peak b.Search.frontier_peak;
  Alcotest.(check int) (name ^ " leaves") a.Search.leaves b.Search.leaves;
  Alcotest.(check int) (name ^ " cut") a.Search.cut b.Search.cut;
  Alcotest.(check int) (name ^ " levels") a.Search.levels b.Search.levels

(* --- spill on/off equivalence: stats grid ------------------------- *)

(* fai counter, 2 procs x 2 ops: a few thousand states, enough to
   overflow a 64-entry hot tier many times over. *)
let fai_workload () =
  let impl = Impl.of_spec (Faicounter.spec ()) in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  (impl, wl)

let spill_equivalence_grid () =
  let impl, wl = fai_workload () in
  List.iter
    (fun domains ->
      List.iter
        (fun por ->
          List.iter
            (fun dedup ->
              let name = Printf.sprintf "d%d por=%b dedup=%b" domains por dedup in
              let ram =
                Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains ~dedup
                  ~por ()
              in
              let sp = tiny_spill (fresh_dir ()) in
              let spilled =
                Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains ~dedup
                  ~por ~spill:sp ()
              in
              check_stats_equal name ram spilled;
              if dedup then begin
                match sp.Mc.store with
                | None -> Alcotest.fail (name ^ ": no store stats")
                | Some s ->
                  Alcotest.(check bool)
                    (name ^ " actually spilled")
                    true
                    (s.Elin_store.Tiered_set.spilled > 0)
              end)
            [ true; false ])
        [ true; false ])
    domain_counts

(* The verdict side: a violating implementation must yield the same
   lex-min counterexample with and without spill. *)
let spill_preserves_counterexample () =
  let impl = Elin_core.Ev_testandset.impl () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:1 in
  let cfg = Engine.for_spec (Testandset.spec ()) in
  List.iter
    (fun domains ->
      let run spill =
        Mc.check impl ~workloads:wl ~max_steps:12 ~domains ?spill
          (fun h -> Engine.linearizable cfg h)
      in
      let ram = run None in
      let spilled = run (Some (tiny_spill (fresh_dir ()))) in
      Alcotest.(check bool) "violation" false ram.Mc.ok;
      Alcotest.(check bool) "violation under spill" false spilled.Mc.ok;
      Alcotest.check Support.history
        (Printf.sprintf "cex (d%d)" domains)
        (Option.get ram.Mc.counterexample)
        (Option.get spilled.Mc.counterexample))
    domain_counts

(* Leaf-history sets survive the spill tier exactly. *)
let spill_preserves_leaf_histories () =
  let impl, wl = fai_workload () in
  let ram, _ = Mc.leaf_histories impl ~workloads:wl ~max_steps:8 ~domains:2 () in
  List.iter
    (fun domains ->
      let spilled, _ =
        Mc.leaf_histories impl ~workloads:wl ~max_steps:8 ~domains
          ~spill:(tiny_spill (fresh_dir ()))
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "leaf count (d%d)" domains)
        (List.length ram) (List.length spilled);
      List.iter2
        (fun a b -> Alcotest.check Support.history "leaf history" a b)
        ram spilled)
    domain_counts

(* Valency workload through the spill tier. *)
let spill_valency_equivalence () =
  let p = Elin_valency.Protocols.registers_plus_linearizable_queue () in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let run ?spill domains =
    Mc_valency.check_consensus p ~inputs ~max_steps:16 ~domains ?spill ()
  in
  List.iter
    (fun domains ->
      let ram = run domains in
      let spilled = run ~spill:(tiny_spill (fresh_dir ())) domains in
      Alcotest.(check bool) "terminated" ram.Mc_valency.terminated
        spilled.Mc_valency.terminated;
      Alcotest.(check int) "decision count"
        (List.length ram.Mc_valency.decisions)
        (List.length spilled.Mc_valency.decisions);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "decision vector" true
            (Array.for_all2 Value.equal a b))
        ram.Mc_valency.decisions spilled.Mc_valency.decisions;
      check_stats_equal
        (Printf.sprintf "d%d" domains)
        ram.Mc_valency.stats spilled.Mc_valency.stats)
    domain_counts

(* --- checkpoint + resume ------------------------------------------ *)

exception Abort_after_checkpoint

(* Abort the run right after checkpoint [kill_at] commits, then resume
   from the directory: the resumed run must land on stats identical to
   the uninterrupted reference, at every domain count. *)
let checkpoint_resume_identical () =
  let impl, wl = fai_workload () in
  List.iter
    (fun domains ->
      let name = Printf.sprintf "d%d" domains in
      let reference =
        Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains ()
      in
      let dir = fresh_dir () in
      let aborting =
        tiny_spill ~every:2 ~identity:name
          ~on_checkpoint:(fun seq ->
            if seq = 2 then raise Abort_after_checkpoint)
          dir
      in
      (match
         Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains
           ~spill:aborting ()
       with
      | _ -> Alcotest.fail (name ^ ": expected abort")
      | exception Abort_after_checkpoint -> ());
      let resumed_sp = tiny_spill ~every:2 ~identity:name dir in
      let resumed =
        Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains
          ~spill:resumed_sp ~resume:true ()
      in
      check_stats_equal name reference resumed;
      Alcotest.(check bool) (name ^ " resumed_from") true
        (resumed_sp.Mc.resumed_from = Some 2))
    domain_counts

(* Same, against a violating predicate: the lex-min counterexample
   must survive kill + resume (stop_early off so checkpoints happen
   before the violating level is classified). *)
let checkpoint_resume_counterexample () =
  let impl, wl = fai_workload () in
  (* Violated exactly by the fully completed leaves (4 ops -> 8
     events), which first appear well after checkpoint 2 commits. *)
  let bad h = Elin_history.History.length h < 8 in
  let reference =
    Mc.check impl ~workloads:wl ~max_steps:14 ~domains:2
      bad
  in
  Alcotest.(check bool) "violation" false reference.Mc.ok;
  let dir = fresh_dir () in
  let aborting =
    tiny_spill ~every:2 ~identity:"cex"
      ~on_checkpoint:(fun seq -> if seq = 2 then raise Abort_after_checkpoint)
      dir
  in
  (match
     Mc.check impl ~workloads:wl ~max_steps:14
       ~domains:2 ~spill:aborting bad
   with
  | _ -> Alcotest.fail "expected abort"
  | exception Abort_after_checkpoint -> ());
  let resumed =
    Mc.check impl ~workloads:wl ~max_steps:14 ~domains:2
      ~spill:(tiny_spill ~every:2 ~identity:"cex" dir)
      ~resume:true bad
  in
  Alcotest.(check bool) "violation after resume" false resumed.Mc.ok;
  Alcotest.check Support.history "cex survives kill+resume"
    (Option.get reference.Mc.counterexample)
    (Option.get resumed.Mc.counterexample)

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Segment.Corrupt")
  | exception Elin_store.Segment.Corrupt _ -> ()

(* Resume refuses: no checkpoint at all, identity or domain-count
   mismatch, and a manifest written by another engine. *)
let resume_validation () =
  let impl, wl = fai_workload () in
  let empty = fresh_dir () in
  expect_corrupt "resume without checkpoint" (fun () ->
      Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains:2
        ~spill:(tiny_spill ~every:2 empty)
        ~resume:true ());
  (* Seal a real checkpoint under identity "A"... *)
  let dir = fresh_dir () in
  let _ =
    Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains:2
      ~spill:(tiny_spill ~every:2 ~identity:"A" dir)
      ()
  in
  (* ...then try to resume it as identity "B", and under a different
     domain count. *)
  expect_corrupt "identity mismatch" (fun () ->
      Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains:2
        ~spill:(tiny_spill ~every:2 ~identity:"B" dir)
        ~resume:true ());
  expect_corrupt "domain-count mismatch" (fun () ->
      Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains:4
        ~spill:(tiny_spill ~every:2 ~identity:"A" dir)
        ~resume:true ());
  (* A newer manifest claiming the retired level-partitioned engine
     wins [load_latest] but must be refused, never re-read as ours. *)
  let open Elin_store.Checkpoint in
  (match load_latest ~dir with
  | None -> Alcotest.fail "no manifest sealed"
  | Some m -> commit ~dir { m with seq = m.seq + 1; engine = "barrier" });
  expect_corrupt "barrier-engine manifest" (fun () ->
      Mc.count_states impl ~workloads:wl ~max_steps:10 ~domains:2
        ~spill:(tiny_spill ~every:2 ~identity:"A" dir)
        ~resume:true ())

(* A run that completes leaves its last checkpoints behind; resuming
   one replays only the tail levels and still reports the full
   (seeded) totals. *)
let resume_after_completion () =
  let impl, wl = fai_workload () in
  let dir = fresh_dir () in
  let full =
    Mc.count_states impl ~workloads:wl ~max_steps:10
      ~domains:2
      ~spill:(tiny_spill ~every:2 ~identity:"done" dir)
      ()
  in
  let resumed =
    Mc.count_states impl ~workloads:wl ~max_steps:10
      ~domains:2
      ~spill:(tiny_spill ~every:2 ~identity:"done" dir)
      ~resume:true ()
  in
  check_stats_equal "resume after completion" full resumed

(* --- observability zero-interference ------------------------------ *)

(* Tracing + metrics enabled must not change any count under spill,
   and the spill metrics/spans must actually appear. *)
let obs_zero_interference_under_spill () =
  let impl, wl = fai_workload () in
  let quiet =
    Mc.count_states impl ~workloads:wl ~max_steps:10
      ~domains:2
      ~spill:(tiny_spill (fresh_dir ()))
      ()
  in
  Elin_obs.Metrics.reset ();
  Elin_obs.Metrics.enable ();
  Elin_obs.Trace.enable ();
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Elin_obs.Trace.disable ();
        Elin_obs.Metrics.disable ())
      (fun () ->
        Mc.count_states impl ~workloads:wl ~max_steps:10
          ~domains:2
          ~spill:(tiny_spill (fresh_dir ()))
          ())
  in
  check_stats_equal "traced = quiet" quiet traced;
  let metric name =
    match Elin_obs.Metrics.find name with
    | Some (Elin_obs.Metrics.Counter_v n) | Some (Elin_obs.Metrics.Gauge_v n)
      ->
      n
    | _ -> -1
  in
  Alcotest.(check bool) "store.flushes counted" true (metric "store.flushes" > 0);
  Alcotest.(check bool) "store.segments gauge" true
    (metric "store.segments" > 0);
  Alcotest.(check bool) "store.disk_bytes gauge" true
    (metric "store.disk_bytes" > 0);
  let events = Elin_obs.Trace.events () in
  let has_span name =
    List.exists (fun (e : Elin_obs.Trace.event) -> e.Elin_obs.Trace.name = name) events
  in
  Alcotest.(check bool) "store.segment_write span" true
    (has_span "store.segment_write");
  Elin_obs.Trace.clear ();
  Elin_obs.Metrics.reset ()

(* --- The B10 shape: fai/board 2x3 d22, hot tier 1024, 2 domains ---- *)

(* One run shared by the tests below. *)
let b10_store =
  lazy
    (let impl = Impls.fai_from_board () in
     let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
     let sp = Mc.spill ~hot:1024 (fresh_dir ()) in
     ignore
       (Mc.count_states impl ~workloads:wl ~max_steps:22 ~domains:2 ~spill:sp
          ());
     match sp.Mc.store with
     | None -> Alcotest.fail "no store stats"
     | Some s -> s)

(* Every store count of the B10 shape, exactly.  The shape (segments,
   bytes, spilled, hot, flushes) is a function of the insertion
   sequence; the probe counts of each shard's probe sequence, which
   the domain count fixes. *)
let b10_store_counts () =
  let s = Lazy.force b10_store in
  let open Elin_store.Tiered_set in
  let pin name want got = Alcotest.(check int) name want got in
  pin "segments" 22 s.segments;
  pin "disk_bytes" 362_296 s.disk_bytes;
  pin "spilled" 22_528 s.spilled;
  pin "hot" 1_423 s.hot;
  pin "flushes" 22 s.flushes;
  pin "disk_probes" 21_903 s.disk_probes;
  pin "disk_probe_hits" 0 s.disk_probe_hits;
  pin "block_reads" 72 s.block_reads

(* Without the per-segment filters a cold miss reads a block from
   every segment of its shard; with them, from about 1 segment visit
   in 1 400 (16 filter bits per record).  The B10 shape seals 22
   segments and must read a block on fewer than 1% of its cold
   probes. *)
let bloom_keeps_probes_off_disk () =
  let s = Lazy.force b10_store in
  let open Elin_store.Tiered_set in
  if s.segments < 10 then Alcotest.failf "only %d segments sealed" s.segments;
  if s.block_reads * 100 >= s.disk_probes then
    Alcotest.failf "%d block reads for %d cold probes over %d segments"
      s.block_reads s.disk_probes s.segments

let () =
  Alcotest.run "spill"
    [
      ( "equivalence",
        [
          Alcotest.test_case "stats grid: engines x domains x por x dedup"
            `Slow spill_equivalence_grid;
          Alcotest.test_case "lex-min counterexample" `Quick
            spill_preserves_counterexample;
          Alcotest.test_case "leaf-history set" `Quick
            spill_preserves_leaf_histories;
          Alcotest.test_case "valency workload" `Quick
            spill_valency_equivalence;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill at checkpoint, resume, identical stats"
            `Quick checkpoint_resume_identical;
          Alcotest.test_case "counterexample survives kill+resume" `Quick
            checkpoint_resume_counterexample;
          Alcotest.test_case "validation refusals" `Quick resume_validation;
          Alcotest.test_case "resume after completion" `Quick
            resume_after_completion;
        ] );
      ( "obs",
        [
          Alcotest.test_case "zero interference + spill telemetry" `Quick
            obs_zero_interference_under_spill;
        ] );
      ( "store",
        [
          Alcotest.test_case "bloom: < 1% of probes read a block" `Quick
            bloom_keeps_probes_off_disk;
          Alcotest.test_case "B10 shape: store counts" `Quick
            b10_store_counts;
        ] );
    ]
