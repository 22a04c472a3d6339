(** Benchmark harness.

    The paper has no numbered tables or figures (it is a theory paper);
    DESIGN.md §5 defines the experiment series that play their role.
    This harness regenerates every series with a quantitative axis:

    - B1 [faic-contention]: linearizable fetch&increment (from CAS, and
      wait-free from a board) vs the eventually linearizable
      fetch&increment, under growing process counts — the
      introduction's "give up synchronizing under contention" trade-off
      made quantitative;
    - B2 [checker-scaling]: the generic Wing–Gong-style t-linearizability
      engine vs the fast Lemma-17 slot checker, as history length
      grows (exponential vs near-linear);
    - B3 [mc-scaling]: the parallel fingerprint-dedup model-checking
      engine (lib/mc) — sequential vs N domains, dedup on/off, and the
      DFS baselines it replaces;
    - E6 [guard-overhead]: the cost the Figure-1 weak-consistency guard
      adds per operation;
    - E10 [ev-consensus]: the Proposals-array consensus over
      linearizable vs eventually linearizable registers;
    - E9 [valency-scaling]: exhaustive valency analysis cost vs depth;
    - E13 [stabilize-sweep]: the Prop. 18 construction (stable-node
      search + certification + derivation) for a sweep of stabilization
      parameters k;
    - B5 [svc-throughput]: the lib/svc checking service — jobs/s of a
      50-job batch vs worker-domain count, with and without
      prepared-history reuse.

    Every workload is deterministic (seeded); numbers are ns per
    whole-scenario run, with per-op normalization printed where the
    scenario has a natural op count.  With [--json], every series also
    writes its rows to [BENCH_<series>.json] in the working
    directory. *)

open Bechamel
open Toolkit
open Elin_spec
open Elin_history
open Elin_checker
open Elin_runtime
open Elin_core
open Elin_valency

(* ------------------------------------------------------------------ *)
(* Measurement plumbing                                               *)
(* ------------------------------------------------------------------ *)

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let instance = Instance.monotonic_clock

let cfg =
  Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None
    ~stabilize:false ()

let measure_group tests =
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" tests) in
  let analyzed = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> (name, nan) :: acc)
    analyzed []

let print_header title =
  Printf.printf "\n== %s ==\n%-46s %14s %14s\n" title "benchmark" "ns/run"
    "ns/op"

let is_suffix ~affix s =
  let la = String.length affix and ls = String.length s in
  la <= ls && String.sub s (ls - la) la = affix

let est_of results name =
  match
    List.find_opt
      (fun (n, _) -> n = name || is_suffix ~affix:("/" ^ name) n)
      results
  with
  | Some (_, est) -> est
  | None -> nan

let print_rows specs results =
  List.iter
    (fun (name, ops, _) ->
      let est = est_of results name in
      let per_op =
        match ops with
        | Some n when n > 0 -> Printf.sprintf "%14.1f" (est /. float_of_int n)
        | _ -> Printf.sprintf "%14s" "-"
      in
      Printf.printf "%-46s %14.1f %s\n" name est per_op)
    specs

(* ------------------------------------------------------------------ *)
(* --json output                                                       *)
(* ------------------------------------------------------------------ *)

let json_mode = Array.exists (fun a -> a = "--json") Sys.argv

(* NaN has no JSON spelling; a missing estimate becomes null. *)
let jnum f = if Float.is_nan f then Elin_svc.Jsonl.Null else Elin_svc.Jsonl.Float f

(* One line through the one encoder — the same writer the trace
   export, metrics snapshots, and svc verdicts use. *)
let series_obj series rows =
  Elin_svc.Jsonl.Obj
    [ ("series", Elin_svc.Jsonl.Str series); ("results", Elin_svc.Jsonl.Arr rows) ]

let write_series series rows =
  if json_mode then begin
    let path = Printf.sprintf "BENCH_%s.json" series in
    Elin_obs.Jsonl.to_file path (series_obj series rows);
    Printf.printf "wrote %s\n" path
  end

let rows_of_specs specs results =
  let open Elin_svc.Jsonl in
  List.map
    (fun (name, ops, _) ->
      let est = est_of results name in
      Obj
        (("name", Str name)
         :: ("ns_per_run", jnum est)
         ::
         (match ops with
         | Some n when n > 0 ->
           [ ("ns_per_op", jnum (est /. float_of_int n)) ]
         | _ -> [])))
    specs

(* [specs] : (name, op-count option, thunk) list *)
let group ~series title specs =
  print_header title;
  let tests =
    List.map (fun (name, _, f) -> Test.make ~name (Staged.stage f)) specs
  in
  let results = measure_group tests in
  print_rows specs results;
  write_series series (rows_of_specs specs results);
  flush stdout

(* ------------------------------------------------------------------ *)
(* B1: fetch&increment under contention                               *)
(* ------------------------------------------------------------------ *)

let fai_run impl ~procs ~per_proc ~seed () =
  let wl = Run.uniform_workload Op.fetch_inc ~procs ~per_proc in
  let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed) () in
  assert out.Run.all_done

let b1 () =
  let per_proc = 64 in
  let specs =
    List.concat_map
      (fun procs ->
        let n = procs * per_proc in
        [
          ( Printf.sprintf "fai/cas procs=%d" procs,
            Some n,
            fai_run (Impls.fai_from_cas ()) ~procs ~per_proc ~seed:1 );
          ( Printf.sprintf "fai/board procs=%d" procs,
            Some n,
            fai_run (Impls.fai_from_board ()) ~procs ~per_proc ~seed:1 );
          ( Printf.sprintf "fai/ev-board(k=inf) procs=%d" procs,
            Some n,
            fai_run (Impls.fai_ev_board ~k:max_int ()) ~procs ~per_proc ~seed:1 );
          ( Printf.sprintf "fai/ev-board(k=32) procs=%d" procs,
            Some n,
            fai_run (Impls.fai_ev_board ~k:32 ()) ~procs ~per_proc ~seed:1 );
        ])
      [ 1; 2; 4; 8 ]
  in
  group ~series:"b1" "B1: fetch&increment implementations under contention" specs

(* ------------------------------------------------------------------ *)
(* B2: checker scaling                                                *)
(* ------------------------------------------------------------------ *)

let b2 () =
  let fai = Faicounter.spec () in
  let fcfg = Engine.for_spec fai in
  let history_of n seed =
    let rng = Elin_kernel.Prng.create seed in
    Gen.linearizable rng ~spec:fai ~procs:3 ~n_ops:n ()
  in
  let generic =
    List.map
      (fun n ->
        let h = history_of n 42 in
        ( Printf.sprintf "generic-engine n=%d" n,
          Some n,
          fun () -> assert (Engine.linearizable fcfg h) ))
      [ 4; 8; 12; 16 ]
  in
  let fast =
    List.map
      (fun n ->
        let h = history_of n 42 in
        ( Printf.sprintf "fast-faic n=%d" n,
          Some n,
          fun () -> assert (Faic.t_linearizable h ~t:0) ))
      [ 16; 64; 256; 1024; 4096 ]
  in
  let min_t =
    List.map
      (fun n ->
        let rng = Elin_kernel.Prng.create 7 in
        let h, _ =
          Gen.eventually_linearizable rng ~spec:fai ~procs:2
            ~prefix_ops:(n / 4) ~suffix_ops:(3 * n / 4) ()
        in
        ( Printf.sprintf "fast-min_t n=%d" n,
          Some n,
          fun () -> assert (Faic.min_t h <> None) ))
      [ 64; 256; 1024 ]
  in
  group ~series:"b2" "B2: t-linearizability checker scaling" (generic @ fast @ min_t)

(* ------------------------------------------------------------------ *)
(* E6: guard overhead                                                 *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let fai = Faicounter.spec () in
  let inner () = Impls.fai_ev_board ~k:4 () in
  let specs =
    [
      ( "unguarded fai/ev-board 2x6",
        Some 12,
        fai_run (inner ()) ~procs:2 ~per_proc:6 ~seed:3 );
      ( "guarded fai/ev-board 2x6",
        Some 12,
        fai_run (Guard.wrap ~spec:fai (inner ())) ~procs:2 ~per_proc:6 ~seed:3 );
      ( "unguarded fai/ev-board 3x6",
        Some 18,
        fai_run (inner ()) ~procs:3 ~per_proc:6 ~seed:3 );
      ( "guarded fai/ev-board 3x6",
        Some 18,
        fai_run (Guard.wrap ~spec:fai (inner ())) ~procs:3 ~per_proc:6 ~seed:3 );
    ]
  in
  group ~series:"e6" "E6: Figure-1 weak-consistency guard overhead" specs

(* ------------------------------------------------------------------ *)
(* E10: consensus                                                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let consensus_run ~procs ~base ~seed () =
    let impl = Ev_consensus.impl ~procs ~base () in
    let wl = Array.init procs (fun p -> [ Op.propose (p mod 2) ]) in
    let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed) () in
    assert out.Run.all_done
  in
  let specs =
    List.concat_map
      (fun procs ->
        [
          ( Printf.sprintf "proposals/linearizable-regs procs=%d" procs,
            Some procs,
            consensus_run ~procs ~base:`Linearizable ~seed:5 );
          ( Printf.sprintf "proposals/ev-regs(k=8) procs=%d" procs,
            Some procs,
            consensus_run ~procs ~base:(`Ev_at_step 8) ~seed:5 );
        ])
      [ 2; 4; 8 ]
  in
  group ~series:"e10" "E10: Proposals-array consensus (Prop. 16)" specs

(* ------------------------------------------------------------------ *)
(* E9: valency analysis                                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let inputs = [| Value.int 0; Value.int 1 |] in
  let specs =
    List.map
      (fun depth ->
        ( Printf.sprintf "check-consensus/cas depth=%d" depth,
          None,
          fun () ->
            let r =
              Valency.check_consensus (Protocols.cas ()) ~inputs
                ~max_steps:depth
            in
            assert r.Valency.terminated ))
      [ 10; 15; 20 ]
    @ [
        ( "check-consensus/regs+ev-ts",
          None,
          fun () ->
            let r =
              Valency.check_consensus
                (Protocols.registers_plus_ev_testandset ())
                ~inputs ~max_steps:30
            in
            assert (r.Valency.agreement_violation <> None) );
        ( "find-critical/cas",
          None,
          fun () ->
            assert (
              Valency.find_critical (Protocols.cas ()) ~inputs ~max_steps:20
              <> None) );
      ]
  in
  group ~series:"e9" "E9: exhaustive valency analysis (Prop. 15)" specs

(* ------------------------------------------------------------------ *)
(* B3: model-checking engine scaling                                  *)
(* ------------------------------------------------------------------ *)

let b3 () =
  let open Elin_mc in
  (* Explore-tree target: a board-based fetch&increment, whose
     commuting base accesses create the duplicate configurations dedup
     is for. *)
  let impl () = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let explore_specs =
    List.map
      (fun (name, domains, dedup) ->
        ( Printf.sprintf "mc/fai-board 2x2 %s" name,
          None,
          fun () ->
            let stats =
              Mc.count_states (impl ()) ~workloads:wl ~max_steps:20 ~domains
                ~dedup ()
            in
            assert (stats.Search.states > 0) ))
      [
        ("seq dedup", 1, true);
        ("seq no-dedup", 1, false);
        ("domains=2 dedup", 2, true);
        ("domains=4 dedup", 4, true);
      ]
  in
  (* The E9 valency workload through the engine, sequential vs
     parallel, vs the original DFS. *)
  let inputs = [| Value.int 0; Value.int 1 |] in
  let valency_specs =
    List.map
      (fun (name, domains, dedup) ->
        ( Printf.sprintf "mc/valency-cas %s" name,
          None,
          fun () ->
            let r =
              Mc_valency.check_consensus (Protocols.cas ()) ~inputs
                ~max_steps:20 ~domains ~dedup ()
            in
            assert r.Mc_valency.terminated ))
      [
        ("seq dedup", 1, true);
        ("seq no-dedup", 1, false);
        ("domains=4 dedup", 4, true);
      ]
    @ [
        ( "dfs/valency-cas (baseline)",
          None,
          fun () ->
            let r =
              Valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20
            in
            assert r.Valency.terminated );
      ]
  in
  (* The Prop. 18 stability certificate through both engines. *)
  let certify_specs =
    let check h ~t = Faic.t_linearizable h ~t in
    List.map
      (fun (name, engine) ->
        ( Printf.sprintf "stabilize-certify k=2 %s" name,
          None,
          fun () ->
            let impl = Impls.fai_ev_board ~k:2 () in
            let wl =
              Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:10
            in
            assert (
              Stabilize.find_stable ~engine impl ~workloads:wl ~depth:8 ~check
                ()
              <> None) ))
      [
        ("dfs", Stabilize.Dfs);
        ("mc seq", Stabilize.Mc { domains = Some 1; dedup = true; por = true });
        ( "mc domains=4",
          Stabilize.Mc { domains = Some 4; dedup = true; por = true } );
      ]
  in
  group ~series:"b3" "B3: model-checking engine scaling (sequential vs domains, dedup)"
    (explore_specs @ valency_specs @ certify_specs)

(* ------------------------------------------------------------------ *)
(* E13: the Prop. 18 construction                                     *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let check h ~t = Faic.t_linearizable h ~t in
  let specs =
    List.map
      (fun k ->
        ( Printf.sprintf "stabilize-construct k=%d" k,
          None,
          fun () ->
            let impl = Impls.fai_ev_board ~k () in
            let wl =
              Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:(2 * k + 6)
            in
            assert (
              Stabilize.construct impl ~workloads:wl ~depth:8 ~check () <> None) ))
      [ 1; 2; 3 ]
  in
  group ~series:"e13" "E13: Prop. 18 stable-configuration construction" specs

(* ------------------------------------------------------------------ *)
(* A1: ablations of the checker design choices                        *)
(* ------------------------------------------------------------------ *)

let a1 () =
  let fai = Faicounter.spec () in
  (* Memoized vs memo-free DFS on a history that forces backtracking:
     the duplicate-heavy eventually-linearizable shape. *)
  let adversarial n =
    let rng = Elin_kernel.Prng.create 3 in
    fst
      (Gen.eventually_linearizable rng ~spec:fai ~procs:2 ~prefix_ops:(n / 2)
         ~suffix_ops:(n / 2) ())
  in
  let memo_specs =
    List.concat_map
      (fun n ->
        let h = adversarial n in
        let t = Option.value ~default:0 (Faic.min_t h) in
        [
          (* Positive instance at the minimal cut: a witness is found
             quickly, memoization is pure overhead. *)
          ( Printf.sprintf "engine+memo sat n=%d" n,
            None,
            fun () ->
              assert (Engine.t_linearizable (Engine.for_spec fai) h ~t) );
          ( Printf.sprintf "engine-no-memo sat n=%d" n,
            None,
            fun () ->
              assert
                (Engine.t_linearizable (Engine.for_spec ~memoize:false fai) h ~t)
          );
        ])
      [ 6; 8; 10 ]
  in
  (* The family where memoization is the difference between polynomial
     and exponential: k concurrent pending writes of distinct values
     plus a reader whose read sequence is unsatisfiable — the whole
     ordering space must be refuted.  (At k = 9 the memo-free search
     explores ~2.4M nodes vs ~4.6k memoized-with-lookahead; k = 12
     without memoization does not terminate in reasonable time and is
     omitted.) *)
  let pending_writes_family k =
    let reg = Register.spec ~domain:(List.init k (fun i -> i + 1)) () in
    let open Elin_history in
    let events =
      List.init k (fun i -> Event.invoke ~proc:(i + 1) ~obj:0 (Op.write (i + 1)))
      @ List.concat_map
          (fun i ->
            [
              Event.invoke ~proc:0 ~obj:0 Op.read;
              Event.respond ~proc:0 ~obj:0 (Value.int (i + 1));
            ])
          (List.init k (fun i -> i))
      @ [
          Event.invoke ~proc:0 ~obj:0 Op.read;
          Event.respond ~proc:0 ~obj:0 (Value.int 1);
        ]
    in
    (reg, History.of_events events)
  in
  let unsat_specs =
    List.concat_map
      (fun k ->
        let reg, h = pending_writes_family k in
        ( Printf.sprintf "engine+memo unsat-writes k=%d" k,
          None,
          fun () ->
            assert (not (Engine.t_linearizable (Engine.for_spec reg) h ~t:0)) )
        ::
        (if k <= 8 then
           [
             ( Printf.sprintf "engine-no-memo unsat-writes k=%d" k,
               None,
               fun () ->
                 assert
                   (not
                      (Engine.t_linearizable
                         (Engine.for_spec ~memoize:false reg)
                         h ~t:0)) );
           ]
         else []))
      [ 6; 8; 10 ]
  in
  let memo_specs = memo_specs @ unsat_specs in
  (* The two guard substrates (board vs per-process register arrays). *)
  let guard_specs =
    let inner () = Impls.fai_ev_board ~k:3 () in
    [
      ( "guard/board 2x5",
        Some 10,
        fai_run (Guard.wrap ~spec:fai (inner ())) ~procs:2 ~per_proc:5 ~seed:9 );
      ( "guard/register-arrays 2x5",
        Some 10,
        fai_run
          (Guard.wrap_registers ~spec:fai ~procs:2 ~max_ops:8 (inner ()))
          ~procs:2 ~per_proc:5 ~seed:9 );
    ]
  in
  group ~series:"a1" "A1: ablations (engine memoization; guard substrate)"
    (memo_specs @ guard_specs)

(* ------------------------------------------------------------------ *)
(* B4: the min_t hot path                                             *)
(* ------------------------------------------------------------------ *)

(* The pre-PR probing strategy, for the comparison column: check
   t = len, then bisect, re-preparing the history at every cut. *)
let binary_min_t (cfg : Engine.config) h =
  let len = History.length h in
  let check t = Engine.t_linearizable cfg h ~t in
  if not (check len) then None
  else begin
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if check mid then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

(* Families and seeds match the pre-PR baseline recorded in
   EXPERIMENTS.md §B4 (fai / register / queue eventually-linearizable
   shapes, plus the E16 delayed-winner test&set family). *)
let b4 ?(smoke = false) () =
  let sizes = if smoke then [ 6 ] else [ 8; 12; 16 ] in
  let dw_sizes = if smoke then [ 4 ] else [ 8; 12 ] in
  let ev name spec seed n =
    let rng = Elin_kernel.Prng.create seed in
    let h, _ =
      Gen.eventually_linearizable rng ~spec ~procs:2 ~prefix_ops:(n / 4)
        ~suffix_ops:(3 * n / 4) ()
    in
    (Printf.sprintf "%s n=%d" name n, spec, h)
  in
  let families =
    List.concat_map
      (fun n ->
        [
          ev "fai-ev" (Faicounter.spec ()) 7 n;
          ev "register-ev" (Register.spec ()) 5 n;
          ev "queue-ev" (Fifo.spec ()) 9 n;
        ])
      sizes
    @ List.map
        (fun n ->
          ( Printf.sprintf "delayed-winner n=%d" n,
            Testandset.spec (),
            Serafini.delayed_winner_family n ))
        dw_sizes
  in
  (* Exact per-family exploration counts (single run): galloping +
     prepared cuts vs the binary baseline. *)
  Printf.printf
    "\n== B4: min_t hot path — nodes and cuts (galloping vs binary) ==\n";
  Printf.printf "%-24s %6s %9s %11s %9s %11s %9s\n" "family" "min_t"
    "cuts-gal" "nodes-gal" "memo-gal" "nodes-bin" "cuts-bin";
  List.iter
    (fun (name, spec, h) ->
      let cfg = Engine.for_spec spec in
      let mt, st = Eventual.min_t_stats cfg h in
      let bin_nodes = ref 0 and bin_cuts = ref 0 in
      let check t =
        incr bin_cuts;
        let v = Engine.search cfg h ~t in
        bin_nodes := !bin_nodes + v.Engine.nodes_explored;
        v.Engine.ok
      in
      let len = History.length h in
      if check len then begin
        let lo = ref 0 and hi = ref len in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if check mid then hi := mid else lo := mid + 1
        done
      end;
      assert (mt <> None);
      assert (st.Eventual.nodes > 0 && st.Eventual.cuts_probed > 0);
      assert (!bin_nodes > 0);
      Printf.printf "%-24s %6s %9d %11d %9d %11d %9d\n" name
        (match mt with Some t -> string_of_int t | None -> "none")
        st.Eventual.cuts_probed st.Eventual.nodes st.Eventual.memo_hits
        !bin_nodes !bin_cuts)
    families;
  flush stdout;
  if not smoke then begin
    let specs =
      List.concat_map
        (fun (name, spec, h) ->
          let cfg = Engine.for_spec spec in
          [
            ( Printf.sprintf "min_t/galloping %s" name,
              None,
              fun () -> assert (Eventual.min_t cfg h <> None) );
            ( Printf.sprintf "min_t/binary-baseline %s" name,
              None,
              fun () -> assert (binary_min_t cfg h <> None) );
          ])
        families
    in
    group ~series:"b4" "B4: incremental min_t search (ns per whole min_t computation)"
      specs
  end

(* ------------------------------------------------------------------ *)
(* E15: the universal construction                                    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  let universal_run ~cell_base ~procs ~per_proc ~seed () =
    let impl =
      Universal.construction ~spec:(Faicounter.spec ())
        ~cells:(procs * per_proc * 2) ~cell_base ()
    in
    fai_run impl ~procs ~per_proc ~seed ()
  in
  let specs =
    List.concat_map
      (fun procs ->
        [
          ( Printf.sprintf "universal/linearizable procs=%d" procs,
            Some (procs * 8),
            universal_run ~cell_base:`Linearizable ~procs ~per_proc:8 ~seed:2 );
          ( Printf.sprintf "universal/ev-cells(k=8) procs=%d" procs,
            Some (procs * 8),
            universal_run ~cell_base:(`Ev_at_step 8) ~procs ~per_proc:8 ~seed:2 );
        ])
      [ 1; 2; 4 ]
  in
  group ~series:"e15" "E15: log-based universal construction from consensus cells" specs

(* ------------------------------------------------------------------ *)
(* B5: checking-service throughput                                    *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of whole batches (not bechamel): the quantity of
   interest is end-to-end jobs/s through the pool, channels and
   batcher included.  10 histories x 5 checker kinds = 50 jobs; the 5
   checks per history are exactly what prepared-history reuse is
   for. *)
let b5 () =
  let open Elin_svc in
  let fai = Faicounter.spec () in
  let jobs =
    List.concat
      (List.init 10 (fun i ->
           let rng = Elin_kernel.Prng.create (100 + i) in
           let h = Gen.linearizable rng ~spec:fai ~procs:4 ~n_ops:24 () in
           let text = Textio.to_string h in
           List.mapi
             (fun j check ->
               {
                 Job.id = Printf.sprintf "b5-%d-%d" i j;
                 seq = (i * 5) + j;
                 spec = "fetch&increment";
                 check;
                 node_budget = None;
                 timeout_ms = None;
                 history_text = text;
                 trace = None;
                 parent = None;
               })
             [ Job.Linearizable; Job.T_lin 2; Job.Min_t; Job.Weak; Job.Full ]))
  in
  let n = List.length jobs in
  let throughput ~domains ~reuse =
    (* Best of 3: batches are deterministic, so the best run is the
       least-perturbed one. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Elin_obs.Clock.now_s () in
      let vs = Pool.run_batch ~reuse ~domains jobs in
      let dt = Elin_obs.Clock.now_s () -. t0 in
      assert (List.length vs = n);
      assert (
        List.for_all (fun v -> v.Verdict.status = Verdict.Pass) vs);
      if dt < !best then best := dt
    done;
    float_of_int n /. !best
  in
  Printf.printf "\n== B5: checking-service throughput (%d jobs) ==\n" n;
  Printf.printf "%-10s %18s %18s\n" "domains" "jobs/s (reuse)"
    "jobs/s (no reuse)";
  let rows =
    List.map
      (fun domains ->
        let r = throughput ~domains ~reuse:true in
        let nr = throughput ~domains ~reuse:false in
        Printf.printf "%-10d %18.0f %18.0f\n" domains r nr;
        flush stdout;
        let open Jsonl in
        Obj
          [
            ("name", Str (Printf.sprintf "svc/domains %d" domains));
            ("domains", Int domains);
            ("jobs", Int n);
            ("jobs_per_s_reuse", jnum r);
            ("jobs_per_s_no_reuse", jnum nr);
          ])
      [ 1; 2; 4; 8 ]
  in
  write_series "svc" rows;
  rows

(* ------------------------------------------------------------------ *)
(* B8: socket service loopback latency vs offered rate                *)
(* ------------------------------------------------------------------ *)

(* An in-process lib/net server on a loopback Unix socket, driven by
   the open-loop load harness at a sweep of arrival rates.  The
   outcome counts (answered / pass / violations / errors) are exact
   functions of the seed — no timeout is configured and the node
   budget clears every depth-6 job — so [--regress] gates them
   exactly; walls and latency quantiles are tolerance-gated, with
   achieved_per_s gated in the higher-is-better direction. *)
let b8 () =
  let open Elin_net in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "elin-b8-%d.sock" (Unix.getpid ()))
  in
  let addr = Addr.Unix_sock sock in
  let srv =
    Server.start ~domains:1 ~queue_capacity:256 ~resolve:Load.test_resolve
      addr
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Server.stop srv)
      (fun () ->
        let cfg =
          {
            Load.default_cfg with
            Load.jobs = 150;
            seed = 11;
            budget = Some 500_000;
            timeout_ms = None;
            large_depth = 6;
          }
        in
        try Load.sweep addr cfg ~rates:[ 200.; 400.; 800. ]
        with Failure m ->
          (* The load watchdog tripped (or the protocol broke).  Dump
             where the in-process pipeline stands before failing: a
             nonzero depth pins the loss to a specific stage. *)
          Printf.eprintf
            "b8: load run failed: %s\n\
             b8: server state: conns=%d pool_queued=%d verdicts_unrouted=%d\n"
            m (Server.connections srv) (Server.queue_depth srv)
            (Server.output_depth srv);
          failwith ("b8: " ^ m))
  in
  Printf.printf
    "\n== B8: socket service loopback sweep (150 jobs/rate, 1 domain) ==\n";
  Printf.printf "%-10s %10s %10s %10s %10s %10s\n" "target/s" "achieved/s"
    "p50_us" "p99_us" "p999_us" "max_us";
  let rows =
    List.map
      (fun (o : Load.outcome) ->
        Printf.printf "%-10.0f %10.1f %10.0f %10.0f %10.0f %10.0f\n"
          o.Load.target_per_s o.achieved_per_s o.p50_us o.p99_us o.p999_us
          o.max_us;
        flush stdout;
        let open Elin_svc.Jsonl in
        Obj
          [
            ( "name",
              Str (Printf.sprintf "net/loopback rate %.0f" o.Load.target_per_s)
            );
            ("rate", Int (int_of_float o.Load.target_per_s));
            ("jobs", Int o.jobs);
            ("answered", Int o.answered);
            ("pass", Int o.pass);
            ("violations", Int o.violations);
            ("busy", Int o.busy);
            ("errors", Int o.errors);
            ("exhausted", Int o.exhausted);
            ("wall_s", jnum o.wall_s);
            ("achieved_per_s", jnum o.achieved_per_s);
            ("p50_us", jnum o.p50_us);
            ("p99_us", jnum o.p99_us);
            ("p999_us", jnum o.p999_us);
            ("max_us", jnum o.max_us);
          ])
      outcomes
  in
  write_series "b8" rows;
  rows

(* ------------------------------------------------------------------ *)
(* B6: partial-order reduction x dedup                                *)
(* ------------------------------------------------------------------ *)

(* Whole-exploration wall times — each row is one exhaustive
   [Mc.count_states]/[Mc_valency.check_consensus] run (best of 3:
   the explorations are deterministic, so the best run is the
   least-perturbed one) — with the exact exploration counts riding
   along in the JSON rows.  [--smoke] gates the counts at the 2x2
   size; [--regress] diffs the whole series against
   bench/baselines/BENCH_b6.json (counts exactly, walls with
   tolerance). *)
let b6 () =
  let open Elin_mc in
  let best_of_3 run =
    let best = ref (run ()) in
    for _ = 2 to 3 do
      let s = run () in
      if s.Search.wall < !best.Search.wall then best := s
    done;
    !best
  in
  let row name (stats : Search.stats) ~dedup ~por =
    Printf.printf "%-36s %9d %10d %9d %9d %8d %9.3f\n" name
      stats.Search.states stats.Search.dedup_hits stats.Search.pruned
      stats.Search.kept stats.Search.leaves stats.Search.wall;
    flush stdout;
    let open Elin_svc.Jsonl in
    Obj
      [
        ("name", Str name);
        ("dedup", Bool dedup);
        ("por", Bool por);
        ("states", Int stats.Search.states);
        ("dedup_hits", Int stats.Search.dedup_hits);
        ("kept", Int stats.Search.kept);
        ("pruned", Int stats.Search.pruned);
        ("frontier_peak", Int stats.Search.frontier_peak);
        ("leaves", Int stats.Search.leaves);
        ("cut", Int stats.Search.cut);
        ("levels", Int stats.Search.levels);
        ("wall_s", Float stats.Search.wall);
      ]
  in
  Printf.printf "\n== B6: partial-order reduction x dedup ==\n";
  Printf.printf "%-36s %9s %10s %9s %9s %8s %9s\n" "benchmark" "states"
    "dedup-hits" "pruned" "kept" "leaves" "wall-s";
  let board_rows =
    List.concat_map
      (fun (per_proc, depth, tree_too) ->
        let impl = Impls.fai_from_board () in
        let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
        let run ~dedup ~por () =
          Mc.count_states impl ~workloads:wl ~max_steps:depth ~domains:2
            ~dedup ~por ()
        in
        let modes =
          (* Unreduced tree mode is exponential: omitted at 2x4. *)
          (if tree_too then
             [ ("tree", false, false); ("por-tree", false, true) ]
           else [])
          @ [ ("dedup", true, false); ("por+dedup", true, true) ]
        in
        List.map
          (fun (mode, dedup, por) ->
            let name =
              Printf.sprintf "mc/fai-board 2x%d d%d %s" per_proc depth mode
            in
            row name (best_of_3 (run ~dedup ~por)) ~dedup ~por)
          modes)
      [ (2, 20, true); (3, 22, true); (4, 26, false) ]
  in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let valency_rows =
    List.map
      (fun (mode, por) ->
        let run () =
          (Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20
             ~domains:2 ~dedup:true ~por ())
            .Mc_valency.stats
        in
        row
          (Printf.sprintf "mc/valency-cas d20 %s" mode)
          (best_of_3 run) ~dedup:true ~por)
      [ ("dedup", false); ("por+dedup", true) ]
  in
  let rows = board_rows @ valency_rows in
  write_series "b6" rows;
  rows

(* --smoke count gates: these exploration counts are exact functions
   of the engine semantics (no timing, no scheduling) — any drift
   means the state space or the reduction changed. *)
let mc_count_gates () =
  let open Elin_mc in
  let failed = ref false in
  let gate name expected actual =
    if expected <> actual then begin
      Printf.eprintf "bench-smoke: %s: expected %d, got %d\n" name expected
        actual;
      failed := true
    end
  in
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let run ~dedup ~por =
    Mc.count_states impl ~workloads:wl ~max_steps:20 ~domains:2 ~dedup ~por ()
  in
  let tree = run ~dedup:false ~por:false in
  let por_tree = run ~dedup:false ~por:true in
  let dedup = run ~dedup:true ~por:false in
  let pd = run ~dedup:true ~por:true in
  (* No-dedup/no-por is the [Explore] tree, node for node. *)
  let explore =
    Elin_explore.Explore.iter_leaves impl ~workloads:wl ~max_steps:20
      (fun _ -> ())
  in
  gate "tree states = explore nodes" explore.Elin_explore.Explore.nodes
    tree.Search.states;
  gate "tree leaves = explore leaves" explore.Elin_explore.Explore.leaves
    tree.Search.leaves;
  gate "fai-board 2x2 d20 tree states" 3431 tree.Search.states;
  gate "fai-board 2x2 d20 por-tree states" 985 por_tree.Search.states;
  gate "fai-board 2x2 d20 dedup states" 985 dedup.Search.states;
  gate "fai-board 2x2 d20 dedup hits" 138 dedup.Search.dedup_hits;
  gate "por+dedup states (= dedup states)" dedup.Search.states
    pd.Search.states;
  gate "por+dedup leaves (= dedup leaves)" dedup.Search.leaves
    pd.Search.leaves;
  gate "por+dedup: nothing left to dedup" 0 pd.Search.dedup_hits;
  gate "por+dedup pruned (= no-por dedup hits)" dedup.Search.dedup_hits
    pd.Search.pruned;
  if 2 * por_tree.Search.states > tree.Search.states then begin
    Printf.eprintf
      "bench-smoke: por tree (%d states) not >= 2x smaller than tree (%d)\n"
      por_tree.Search.states tree.Search.states;
    failed := true
  end;
  (* E9 through the engine: the reduction may not change the explored
     state set. *)
  let inputs = [| Value.int 0; Value.int 1 |] in
  let v ~por =
    Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20
      ~domains:2 ~por ()
  in
  let von = v ~por:true and voff = v ~por:false in
  gate "valency-cas d20 states por-invariant"
    voff.Mc_valency.stats.Search.states von.Mc_valency.stats.Search.states;
  if von.Mc_valency.stats.Search.pruned <= 0 then begin
    Printf.eprintf "bench-smoke: valency por pruned nothing\n";
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* B7: observability overhead                                         *)
(* ------------------------------------------------------------------ *)

(* The same exploration (the B6 2x3 d22 por+dedup workload) under
   three observability modes — disabled, metrics-only, full-trace.
   Two things are on trial: the zero-interference contract (the
   exploration counts must be bit-identical in every mode — tracing
   that changes what the checker explores is worse than no tracing)
   and the cost of the machinery itself (the walls quantify it; the
   disabled wall is additionally gated against the committed B6
   baseline by [--regress]).  [--smoke] runs the 2x2 d20 size. *)
let b7 ?(smoke = false) () =
  let open Elin_mc in
  let module Obs = Elin_obs in
  let per_proc, depth = if smoke then (2, 20) else (3, 22) in
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
  let run () =
    Mc.count_states impl ~workloads:wl ~max_steps:depth ~domains:2 ~dedup:true
      ~por:true ()
  in
  let best_of_3 run =
    let best = ref (run ()) in
    for _ = 2 to 3 do
      let s = run () in
      if s.Search.wall < !best.Search.wall then best := s
    done;
    !best
  in
  let in_mode mode f =
    (match mode with
    | `Disabled -> ()
    | `Metrics -> Obs.Metrics.enable ()
    | `Trace ->
      Obs.Metrics.enable ();
      Obs.Trace.enable ());
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.disable ();
        Obs.Metrics.disable ();
        Obs.Trace.clear ();
        Obs.Metrics.reset ())
      f
  in
  Printf.printf "\n== B7: observability overhead (mc/fai-board 2x%d d%d por+dedup) ==\n"
    per_proc depth;
  Printf.printf "%-12s %9s %9s %8s %9s\n" "mode" "states" "pruned" "leaves"
    "wall-s";
  let measured =
    List.map
      (fun (name, mode) ->
        let stats = in_mode mode (fun () -> best_of_3 run) in
        Printf.printf "%-12s %9d %9d %8d %9.3f\n" name stats.Search.states
          stats.Search.pruned stats.Search.leaves stats.Search.wall;
        flush stdout;
        (name, stats))
      [ ("disabled", `Disabled); ("metrics", `Metrics); ("full-trace", `Trace) ]
  in
  (* Zero-interference gate: identical counts in every mode. *)
  let _, base = List.hd measured in
  List.iter
    (fun (name, (s : Search.stats)) ->
      if
        s.Search.states <> base.Search.states
        || s.Search.leaves <> base.Search.leaves
        || s.Search.pruned <> base.Search.pruned
        || s.Search.dedup_hits <> base.Search.dedup_hits
      then begin
        Printf.eprintf
          "b7: exploration counts drift under mode %s (states %d vs %d)\n" name
          s.Search.states base.Search.states;
        exit 1
      end)
    measured;
  let rows =
    List.map
      (fun (name, (s : Search.stats)) ->
        let open Elin_svc.Jsonl in
        Obj
          [
            ("name", Str ("obs/" ^ name));
            ("states", Int s.Search.states);
            ("leaves", Int s.Search.leaves);
            ("wall_s", Float s.Search.wall);
          ])
      measured
  in
  write_series "b7" rows;
  measured

(* ------------------------------------------------------------------ *)
(* B9: search scaling across domains                                  *)
(* ------------------------------------------------------------------ *)

let perf_tol () =
  match Sys.getenv_opt "ELIN_PERF_TOL" with
  | Some s -> float_of_string s
  | None -> 4.0

(* The B6 2x3 d22 por+dedup workload at 1, 2 and 4 domains.  The
   determinism contract is on trial: every exploration count must be
   bit-identical across the three cells (cross-gated here, exact under
   --regress).  The committed BENCH_b9.json rates are gated
   higher-is-better by --regress (any key containing "per_s"). *)
let b9 () =
  let open Elin_mc in
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
  let best_of n run =
    let best = ref (run ()) in
    for _ = 2 to n do
      let s = run () in
      if s.Search.wall < !best.Search.wall then best := s
    done;
    !best
  in
  let run ~domains () =
    Mc.count_states impl ~workloads:wl ~max_steps:22 ~domains ~dedup:true
      ~por:true ()
  in
  Printf.printf "\n== B9: search scaling across domains (2x3 d22 por+dedup) ==\n";
  Printf.printf "%-34s %9s %9s %12s %9s\n" "benchmark" "states" "kept"
    "states/s" "wall-s";
  let cells =
    List.map (fun domains -> (domains, best_of 5 (run ~domains))) [ 1; 2; 4 ]
  in
  let failed = ref false in
  (* Cross-gates: the counts are one set-determined quantity; any cell
     disagreeing with any other is a search bug, not noise. *)
  let (_, ref_stats) = List.hd cells in
  List.iter
    (fun (d, (s : Search.stats)) ->
      let gate name a b =
        if a <> b then begin
          Printf.eprintf "b9: x%d: %s drifted (%d, grid has %d)\n" d name b a;
          failed := true
        end
      in
      gate "states" ref_stats.Search.states s.Search.states;
      gate "dedup_hits" ref_stats.Search.dedup_hits s.Search.dedup_hits;
      gate "kept" ref_stats.Search.kept s.Search.kept;
      gate "pruned" ref_stats.Search.pruned s.Search.pruned;
      gate "frontier_peak" ref_stats.Search.frontier_peak
        s.Search.frontier_peak;
      gate "leaves" ref_stats.Search.leaves s.Search.leaves;
      gate "cut" ref_stats.Search.cut s.Search.cut;
      gate "levels" ref_stats.Search.levels s.Search.levels)
    cells;
  let rate (s : Search.stats) = float_of_int s.Search.states /. s.Search.wall in
  let rows =
    List.map
      (fun (d, (s : Search.stats)) ->
        let name = Printf.sprintf "mc/fai-board 2x3 d22 por+dedup x%d" d in
        Printf.printf "%-34s %9d %9d %12.0f %9.3f\n" name s.Search.states
          s.Search.kept (rate s) s.Search.wall;
        flush stdout;
        let open Elin_svc.Jsonl in
        Obj
          [
            ("name", Str name);
            ("domains", Int d);
            ("states", Int s.Search.states);
            ("dedup_hits", Int s.Search.dedup_hits);
            ("kept", Int s.Search.kept);
            ("pruned", Int s.Search.pruned);
            ("frontier_peak", Int s.Search.frontier_peak);
            ("leaves", Int s.Search.leaves);
            ("cut", Int s.Search.cut);
            ("levels", Int s.Search.levels);
            ("states_per_s", Float (rate s));
          ])
      cells
  in
  if !failed then exit 1;
  write_series "b9" rows;
  rows

(* ------------------------------------------------------------------ *)
(* B10: external-memory spill tier                                     *)
(* ------------------------------------------------------------------ *)

(* The B6/B9 2x3 d22 workload at 2 domains,
   three ways: all-RAM, spill with a hot tier that never fills (2^20
   fingerprints/shard), and spill with a tiny hot tier (1024/shard)
   that seals segments all run long.  On trial:

   - the spill tier is a representation change, never a semantic one:
     every exploration count must be bit-identical across the three
     rows (cross-gated here, exact against the baseline under
     --regress);
   - the spill shape is deterministic: segments, disk bytes, and
     spilled-record counts are integer fields, so --regress gates
     them exactly;
   - throughput: states_per_s gated higher-is-better vs the committed
     baseline, like every other series. *)
let b10 () =
  let open Elin_mc in
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
  let scratch tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "elin-b10-%d-%s" (Unix.getpid ()) tag)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Unix.rmdir d
    end
  in
  let zero_store =
    {
      Elin_store.Tiered_set.segments = 0;
      disk_bytes = 0;
      spilled = 0;
      hot = 0;
      flushes = 0;
      disk_probes = 0;
      disk_probe_hits = 0;
      fence_skips = 0;
    }
  in
  let run ~hot tag () =
    let sp, dir =
      match hot with
      | None -> (None, None)
      | Some hot ->
        let d = scratch tag in
        (Some (Mc.spill ~hot ~identity:"b10" d), Some d)
    in
    let s =
      Mc.count_states impl ~workloads:wl ~max_steps:22 ~domains:2 ~dedup:true
        ~por:true ?spill:sp ()
    in
    let store =
      match sp with
      | Some { Mc.store = Some st; _ } -> st
      | _ -> zero_store
    in
    Option.iter rm_rf dir;
    (s, store)
  in
  let best_of n run =
    let best = ref (run ()) in
    for _ = 2 to n do
      let r = run () in
      if (fst r).Search.wall < (fst !best).Search.wall then best := r
    done;
    !best
  in
  Printf.printf "\n== B10: spill tier (2x3 d22 por+dedup sharded x2) ==\n";
  Printf.printf "%-34s %9s %9s %9s %12s %9s\n" "benchmark" "states" "segs"
    "diskKiB" "states/s" "wall-s";
  let cells =
    [
      ("ram", best_of 3 (run ~hot:None "ram"));
      ("spill hot=1M", best_of 3 (run ~hot:(Some (1 lsl 20)) "big"));
      ("spill hot=1k", best_of 3 (run ~hot:(Some 1024) "tiny"));
    ]
  in
  let failed = ref false in
  let _, (ref_stats, _) = List.hd cells in
  (* Cross-gates: spill on/off and hot-tier size may never move a
     count. *)
  List.iter
    (fun (mode, ((s : Search.stats), _)) ->
      let gate name a b =
        if a <> b then begin
          Printf.eprintf "b10: %s: %s drifted (%d, ram row has %d)\n" mode
            name b a;
          failed := true
        end
      in
      gate "states" ref_stats.Search.states s.Search.states;
      gate "dedup_hits" ref_stats.Search.dedup_hits s.Search.dedup_hits;
      gate "kept" ref_stats.Search.kept s.Search.kept;
      gate "pruned" ref_stats.Search.pruned s.Search.pruned;
      gate "frontier_peak" ref_stats.Search.frontier_peak
        s.Search.frontier_peak;
      gate "leaves" ref_stats.Search.leaves s.Search.leaves;
      gate "cut" ref_stats.Search.cut s.Search.cut;
      gate "levels" ref_stats.Search.levels s.Search.levels)
    cells;
  (* Shape gates: the big cap must never spill, the tiny cap must
     spill nearly everything. *)
  let store_of mode = snd (List.assoc mode cells) in
  if (store_of "spill hot=1M").Elin_store.Tiered_set.segments <> 0 then begin
    Printf.eprintf "b10: hot=1M spilled segments; cap sizing is broken\n";
    failed := true
  end;
  let tiny = store_of "spill hot=1k" in
  if tiny.segments = 0 || tiny.spilled = 0 then begin
    Printf.eprintf "b10: hot=1k never spilled; the tier was not exercised\n";
    failed := true
  end;
  let rate (s : Search.stats) =
    float_of_int s.Search.states /. s.Search.wall
  in
  let rows =
    List.map
      (fun (mode, ((s : Search.stats), (store : Elin_store.Tiered_set.stats)))
      ->
        let name = Printf.sprintf "mc/fai-board 2x3 d22 sharded x2 %s" mode in
        Printf.printf "%-34s %9d %9d %9d %12.0f %9.3f\n" name s.Search.states
          store.segments
          (store.disk_bytes / 1024)
          (rate s) s.Search.wall;
        flush stdout;
        let open Elin_svc.Jsonl in
        Obj
          [
            ("name", Str name);
            ("mode", Str mode);
            ("states", Int s.Search.states);
            ("dedup_hits", Int s.Search.dedup_hits);
            ("kept", Int s.Search.kept);
            ("pruned", Int s.Search.pruned);
            ("frontier_peak", Int s.Search.frontier_peak);
            ("leaves", Int s.Search.leaves);
            ("cut", Int s.Search.cut);
            ("levels", Int s.Search.levels);
            ("segments", Int store.segments);
            ("disk_bytes", Int store.disk_bytes);
            ("spilled", Int store.spilled);
            ("flushes", Int store.flushes);
            ("states_per_s", Float (rate s));
          ])
      cells
  in
  if !failed then exit 1;
  write_series "b10" rows;
  rows

(* ------------------------------------------------------------------ *)
(* B11: decomposed checking engine                                     *)
(* ------------------------------------------------------------------ *)

(* Monolithic vs decomposed min_t over multi-object workloads
   (DESIGN.md §15).  Three sub-series:

   - the Proposition 9 register family (k single-writer registers;
     composed bound 4(k-1)+2): min_t is cross-gated against the
     closed form and node counts are deterministic Ints gated exactly
     under --regress, with the largest sizes required to beat the
     monolithic engine by >= 10x nodes — the series' headline gate;
   - a seeded mixed-object eventual grid (Gen.mixed_eventual), sized
     so the monolithic gallop finishes: min_t must be bit-identical
     between the two paths on every cell;
   - the svc Split path: the same multi-object batch through
     Pool.run_batch and Split.run_batch at 1/2/4 worker domains,
     statuses and min_t cross-gated, jobs/s tolerance-gated
     higher-is-better (flat on a single-core box; recorded
     honestly). *)
let b11 () =
  let reg = Register.spec () in
  let fai = Faicounter.spec () in
  let spec_of_obj o = if o mod 2 = 0 then reg else fai in
  let failed = ref false in
  let time f =
    let t0 = Elin_obs.Clock.now_s () in
    let v = f () in
    (v, Elin_obs.Clock.now_s () -. t0)
  in
  (* Deterministic work; best-of keeps the least-perturbed wall.  Runs
     already past a second are not repeated — their relative noise is
     small and the largest monolithic cells are the expensive ones. *)
  let best_of n f =
    let best = ref (time f) in
    if snd !best < 1.0 then
      for _ = 2 to n do
        let r = time f in
        if snd r < snd !best then best := r
      done;
    !best
  in
  Printf.printf "\n== B11: decomposed checking engine (per-object split) ==\n";
  Printf.printf "%-34s %6s %11s %11s %8s %9s %9s\n" "benchmark" "min_t"
    "mono-nodes" "dec-nodes" "ratio" "mono-s" "dec-s";
  (* One cross-gated comparison row: monolithic vs decomposed min_t on
     [h] must agree (and match [expect] when given); node counts are
     returned for the caller's shape gates and emitted as exact
     Ints. *)
  let compare_row ~name ~spec_of ?expect h =
    let mono_cfg = Engine.config spec_of in
    let dcfg = Decompose.config spec_of in
    let (mono_mt, mono_st), mono_w =
      best_of 3 (fun () -> Eventual.min_t_stats mono_cfg h)
    in
    let (dec_mt, dec_st, dstats), dec_w =
      best_of 3 (fun () -> Decompose.min_t_stats dcfg h)
    in
    if mono_mt <> dec_mt then begin
      Printf.eprintf "b11: %s: min_t split (mono %s, decomposed %s)\n" name
        (match mono_mt with Some t -> string_of_int t | None -> "none")
        (match dec_mt with Some t -> string_of_int t | None -> "none");
      failed := true
    end;
    (match expect with
    | Some e when mono_mt <> Some e ->
      Printf.eprintf "b11: %s: min_t %s, closed form says %d\n" name
        (match mono_mt with Some t -> string_of_int t | None -> "none")
        e;
      failed := true
    | _ -> ());
    let ratio =
      float_of_int mono_st.Eventual.nodes
      /. float_of_int (max 1 dec_st.Eventual.nodes)
    in
    Printf.printf "%-34s %6s %11d %11d %7.1fx %9.4f %9.4f\n" name
      (match mono_mt with Some t -> string_of_int t | None -> "-")
      mono_st.Eventual.nodes dec_st.Eventual.nodes ratio mono_w dec_w;
    flush stdout;
    let open Elin_svc.Jsonl in
    let row =
      Obj
        [
          ("name", Str name);
          ( "min_t",
            match mono_mt with Some t -> Int t | None -> Null );
          ("mono_nodes", Int mono_st.Eventual.nodes);
          ("mono_cuts", Int mono_st.Eventual.cuts_probed);
          ("mono_memo_hits", Int mono_st.Eventual.memo_hits);
          ("dec_nodes", Int dec_st.Eventual.nodes);
          ("dec_cuts", Int dec_st.Eventual.cuts_probed);
          ("dec_memo_hits", Int dec_st.Eventual.memo_hits);
          ("dec_objects", Int dstats.Decompose.objects);
          ("mono_wall_s", Float mono_w);
          ("dec_wall_s", Float dec_w);
        ]
    in
    (row, mono_st.Eventual.nodes, dec_st.Eventual.nodes)
  in
  (* Sub-series 1: the register family. *)
  let family_rows =
    List.map
      (fun k ->
        let h = Locality.register_family k in
        let row, mono_nodes, dec_nodes =
          compare_row
            ~name:(Printf.sprintf "decomp/register_family k=%d" k)
            ~spec_of:(fun _ -> reg)
            ~expect:((4 * (k - 1)) + 2)
            h
        in
        (k, row, mono_nodes, dec_nodes))
      [ 2; 4; 6; 8; 10 ]
  in
  (* Sub-series 2: seeded mixed-object eventual workloads. *)
  let mixed_rows =
    List.map
      (fun (objs, procs, per, seed) ->
        let rng = Elin_kernel.Prng.create seed in
        let h, _bound =
          Gen.mixed_eventual rng ~spec_of_obj ~objs ~procs ~prefix_ops:per
            ~suffix_ops:per ()
        in
        let row, mono_nodes, dec_nodes =
          compare_row
            ~name:
              (Printf.sprintf "decomp/mixed o=%d p=%d per=%d s=%d" objs procs
                 per seed)
            ~spec_of:spec_of_obj h
        in
        (objs, row, mono_nodes, dec_nodes))
      [ (2, 2, 3, 41); (3, 2, 3, 42); (4, 2, 4, 43) ]
  in
  (* The headline gate: on the multi-object family (register_family
     k >= 4, and the largest mixed cell) the decomposition must
     explore >= 10x fewer engine nodes than the monolithic search. *)
  List.iter
    (fun (k, _, mono_nodes, dec_nodes) ->
      if k >= 4 && mono_nodes < 10 * dec_nodes then begin
        Printf.eprintf
          "b11: register_family k=%d: %d mono vs %d decomposed nodes — \
           under the 10x floor\n"
          k mono_nodes dec_nodes;
        failed := true
      end)
    family_rows;
  List.iter
    (fun (objs, _, mono_nodes, dec_nodes) ->
      if objs >= 4 && mono_nodes < 10 * dec_nodes then begin
        Printf.eprintf
          "b11: mixed o=%d: %d mono vs %d decomposed nodes — under the \
           10x floor\n"
          objs mono_nodes dec_nodes;
        failed := true
      end)
    mixed_rows;
  (* Sub-series 3: the same decomposition through the service — each
     sub-history becomes one pool job (Split).  Statuses and min_t are
     cross-gated against the undecomposed pool; node counts differ by
     design (summed over sub-jobs, `Smart order), so only the jobs/s
     rates are emitted, tolerance-gated. *)
  let svc_jobs =
    List.init 12 (fun i ->
        let rng = Elin_kernel.Prng.create (4100 + i) in
        let h, _ =
          Gen.mixed_eventual rng
            ~spec_of_obj:(fun _ -> reg)
            ~objs:3 ~procs:2 ~prefix_ops:3 ~suffix_ops:3 ()
        in
        {
          Elin_svc.Job.id = Printf.sprintf "b11-%d" i;
          seq = i;
          spec = "register";
          check =
            List.nth
              [ Elin_svc.Job.Full; Min_t; Weak; T_lin 2 ]
              (i mod 4);
          node_budget = None;
          timeout_ms = None;
          history_text = Textio.to_string h;
          trace = None;
          parent = None;
        })
  in
  let n_jobs = List.length svc_jobs in
  let mono_vs = Elin_svc.Pool.run_batch ~domains:1 svc_jobs in
  let split_vs = Elin_svc.Split.run_batch ~domains:1 svc_jobs in
  List.iter2
    (fun (m : Elin_svc.Verdict.t) (s : Elin_svc.Verdict.t) ->
      if m.status <> s.status || m.min_t <> s.min_t then begin
        Printf.eprintf "b11: svc %s: decomposed verdict split from pool's\n"
          m.job_id;
        failed := true
      end)
    mono_vs split_vs;
  let throughput run =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Elin_obs.Clock.now_s () in
      let vs = run () in
      let dt = Elin_obs.Clock.now_s () -. t0 in
      assert (List.length vs = n_jobs);
      if dt < !best then best := dt
    done;
    float_of_int n_jobs /. !best
  in
  Printf.printf "%-34s %18s %18s\n" "svc batch (12 multi-object jobs)"
    "jobs/s (split)" "jobs/s (pool)";
  let svc_rows =
    List.map
      (fun domains ->
        let sp =
          throughput (fun () -> Elin_svc.Split.run_batch ~domains svc_jobs)
        in
        let mo =
          throughput (fun () -> Elin_svc.Pool.run_batch ~domains svc_jobs)
        in
        Printf.printf "%-34s %18.0f %18.0f\n"
          (Printf.sprintf "decomp/svc domains %d" domains)
          sp mo;
        flush stdout;
        let open Elin_svc.Jsonl in
        Obj
          [
            ("name", Str (Printf.sprintf "decomp/svc domains %d" domains));
            ("domains", Int domains);
            ("jobs", Int n_jobs);
            ("jobs_per_s_split", jnum sp);
            ("jobs_per_s_pool", jnum mo);
          ])
      [ 1; 2; 4 ]
  in
  if !failed then exit 1;
  let rows =
    List.map (fun (_, r, _, _) -> r) family_rows
    @ List.map (fun (_, r, _, _) -> r) mixed_rows
    @ svc_rows
  in
  write_series "b11" rows;
  rows

(* ------------------------------------------------------------------ *)
(* B12: flight-recorder overhead                                      *)
(* ------------------------------------------------------------------ *)

(* The recorder is the one observability layer that is ON by default —
   every job costs two ring notes (job.start/job.done: a clock read
   and a small allocation each).  This series prices that default on
   the B5 service batch: the same jobs with the recorder forced off
   vs. left on.  Verdict counts must be identical in both modes
   (recording that changes checking is disqualifying), and the on-wall
   is gated against the committed baseline so a future hot-path [note]
   (the documented misuse) shows up as a regression here before anyone
   ships it. *)
let b12 () =
  let open Elin_svc in
  let module Obs = Elin_obs in
  let fai = Faicounter.spec () in
  let jobs =
    List.concat
      (List.init 10 (fun i ->
           let rng = Elin_kernel.Prng.create (300 + i) in
           let h = Gen.linearizable rng ~spec:fai ~procs:4 ~n_ops:24 () in
           let text = Textio.to_string h in
           List.mapi
             (fun j check ->
               {
                 Job.id = Printf.sprintf "b12-%d-%d" i j;
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
  let n = List.length jobs in
  let wall_of ~enabled =
    Obs.Recorder.set_enabled enabled;
    Fun.protect
      ~finally:(fun () ->
        Obs.Recorder.set_enabled true;
        Obs.Recorder.clear ())
      (fun () ->
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Obs.Clock.now_s () in
          let vs = Pool.run_batch ~domains:2 jobs in
          let dt = Obs.Clock.now_s () -. t0 in
          if List.length vs <> n
             || not (List.for_all (fun v -> v.Verdict.status = Verdict.Pass) vs)
          then begin
            Printf.eprintf "b12: verdicts drift with recorder %s\n"
              (if enabled then "on" else "off");
            exit 1
          end;
          if dt < !best then best := dt
        done;
        !best)
  in
  Printf.printf "\n== B12: flight-recorder overhead (%d jobs, 2 domains) ==\n" n;
  Printf.printf "%-12s %12s %14s\n" "recorder" "wall-s" "jobs/s";
  let rows =
    List.map
      (fun (name, enabled) ->
        let w = wall_of ~enabled in
        Printf.printf "%-12s %12.4f %14.0f\n" name w (float_of_int n /. w);
        flush stdout;
        let open Jsonl in
        Obj
          [
            ("name", Str ("recorder/" ^ name));
            ("jobs", Int n);
            ("wall_s", jnum w);
            ("jobs_per_s", jnum (float_of_int n /. w));
          ])
      [ ("off", false); ("on", true) ]
  in
  write_series "b12" rows;
  rows

(* ------------------------------------------------------------------ *)
(* --regress: measured series vs the committed baselines              *)
(* ------------------------------------------------------------------ *)

(* Each regress-gated series regenerates and diffs against its
   committed baseline file. *)
let baseline_path = "bench/baselines/BENCH_b6.json"
let svc_baseline_path = "bench/baselines/BENCH_svc.json"
let b8_baseline_path = "bench/baselines/BENCH_b8.json"
let b9_baseline_path = "bench/baselines/BENCH_b9.json"
let b10_baseline_path = "bench/baselines/BENCH_b10.json"
let b11_baseline_path = "bench/baselines/BENCH_b11.json"
let b12_baseline_path = "bench/baselines/BENCH_b12.json"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Row-by-row comparison of a measured series against its baseline,
   keyed by the "name" field.  Count fields are deterministic and must
   match exactly; measured fields (walls, latencies, rates — matched
   by key, because JSON cannot distinguish [Float 511.] from [Int 511]
   after a round-trip) are gated by tolerance: lower-is-better except
   for rate-like fields (any key containing "per_s"), which are gated
   in the higher-is-better direction [c >= b / tol]. *)
let measured_key k =
  List.exists
    (fun sub -> contains_substring k sub)
    [ "per_s"; "wall"; "_us"; "_ms"; "ns_per" ]

let compare_rows ~fail ~tol ~series brows crows =
  let open Elin_svc.Jsonl in
  let drift fmt = Printf.ksprintf fail fmt in
  let num = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
  in
  let name_of row =
    Option.value ~default:"?" (str_mem "name" row)
  in
  let current = List.map (fun row -> (name_of row, row)) crows in
  List.iter
    (fun brow ->
      let name = Printf.sprintf "%s/%s" series (name_of brow) in
      match List.assoc_opt (name_of brow) current with
      | None -> drift "row %S missing from current run" name
      | Some crow ->
        List.iter
          (fun (k, bv) ->
            match mem k crow with
            | None -> drift "%s: field %S missing" name k
            | Some cv -> (
              match (num bv, num cv) with
              | Some b, Some c when measured_key k ->
                if contains_substring k "per_s" then begin
                  if not (c >= b /. tol) then
                    drift
                      "%s: %s throughput regressed: baseline %.4f, now %.4f \
                       (tol %gx)"
                      name k b c tol
                end
                else if not (c <= b *. tol) then
                  drift "%s: %s regressed: baseline %.4f, now %.4f (tol %gx)"
                    name k b c tol
              | Some b, Some c ->
                if b <> c then
                  drift "%s: %s drifted: baseline %g, now %g" name k b c
              | _ ->
                if bv <> cv then drift "%s: %s differs from baseline" name k))
          (match brow with Obj fields -> fields | _ -> []))
    brows;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun brow -> name_of brow = name) brows) then
        drift "new row %S not in baseline (run 'make perf-baseline')"
          (Printf.sprintf "%s/%s" series name))
    current

let baseline_rows ~path =
  let open Elin_svc.Jsonl in
  match of_string (read_file path) with
  | j -> (
    match mem "results" j with Some (Arr r) -> Some r | _ -> Some [])
  | exception Sys_error e ->
    Printf.eprintf
      "perf-regress: cannot read %s (%s); run 'make perf-baseline' first\n"
      path e;
    None

(* [--regress]: regenerate the gated series (B6 exploration grid, B5
   service throughput, B8 socket loopback sweep) and diff each against
   its committed baseline — integer counts must match exactly; walls,
   latencies, and rates may not drift past ELIN_PERF_TOL (default 4:
   CI boxes are noisy, and an honest perf regression shows up well
   past 4x on these sub-second runs before the counts ever move).
   [--regress-update] rewrites the baselines instead. *)
let regress ~update () =
  let open Elin_svc.Jsonl in
  let rows = b6 () in
  let svc_rows = b5 () in
  let b8_rows = b8 () in
  let b9_rows = b9 () in
  let b10_rows = b10 () in
  let b11_rows = b11 () in
  let b12_rows = b12 () in
  if update then begin
    (try Unix.mkdir "bench/baselines" 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Elin_obs.Jsonl.to_file baseline_path (series_obj "b6" rows);
    Elin_obs.Jsonl.to_file svc_baseline_path (series_obj "svc" svc_rows);
    Elin_obs.Jsonl.to_file b8_baseline_path (series_obj "b8" b8_rows);
    Elin_obs.Jsonl.to_file b9_baseline_path (series_obj "b9" b9_rows);
    Elin_obs.Jsonl.to_file b10_baseline_path (series_obj "b10" b10_rows);
    Elin_obs.Jsonl.to_file b11_baseline_path (series_obj "b11" b11_rows);
    Elin_obs.Jsonl.to_file b12_baseline_path (series_obj "b12" b12_rows);
    Printf.printf "\nwrote baselines %s, %s, %s, %s, %s, %s, %s\n" baseline_path
      svc_baseline_path b8_baseline_path b9_baseline_path b10_baseline_path
      b11_baseline_path b12_baseline_path
  end
  else begin
    let tol = perf_tol () in
    let failed = ref false in
    let drift fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "perf-regress: %s\n" s;
          failed := true)
        fmt
    in
    let brows =
      match baseline_rows ~path:baseline_path with
      | Some r -> r
      | None -> exit 2
    in
    let fail s =
      Printf.eprintf "perf-regress: %s\n" s;
      failed := true
    in
    compare_rows ~fail ~tol ~series:"b6" brows rows;
    (match baseline_rows ~path:svc_baseline_path with
    | Some b -> compare_rows ~fail ~tol ~series:"svc" b svc_rows
    | None -> exit 2);
    (match baseline_rows ~path:b8_baseline_path with
    | Some b -> compare_rows ~fail ~tol ~series:"b8" b b8_rows
    | None -> exit 2);
    (match baseline_rows ~path:b9_baseline_path with
    | Some b -> compare_rows ~fail ~tol ~series:"b9" b b9_rows
    | None -> exit 2);
    (match baseline_rows ~path:b10_baseline_path with
    | Some b -> compare_rows ~fail ~tol ~series:"b10" b b10_rows
    | None -> exit 2);
    (match baseline_rows ~path:b11_baseline_path with
    | Some b -> compare_rows ~fail ~tol ~series:"b11" b b11_rows
    | None -> exit 2);
    (match baseline_rows ~path:b12_baseline_path with
    | Some b -> compare_rows ~fail ~tol ~series:"b12" b b12_rows
    | None -> exit 2);
    let name_of row = Option.value ~default:"?" (str_mem "name" row) in
    (* B7 disabled-overhead gate: with the observability layer
       compiled in but switched off, the por+dedup workload must stay
       within tolerance of the committed B6 baseline wall — the single
       branch on the disabled flag is not allowed to cost anything a
       tolerance-scaled wall clock can see.  (b7 itself exits 1 if
       any mode perturbs the exploration counts.) *)
    let b7_measured = b7 () in
    let b6_wall =
      List.find_map
        (fun brow ->
          if name_of brow = "mc/fai-board 2x3 d22 por+dedup" then
            match mem "wall_s" brow with
            | Some (Float f) -> Some f
            | Some (Int i) -> Some (float_of_int i)
            | _ -> None
          else None)
        brows
    in
    (match (b6_wall, List.assoc_opt "disabled" b7_measured) with
    | Some b, Some s ->
      let c = s.Elin_mc.Search.wall in
      if not (c <= b *. tol) then
        drift "b7 disabled-overhead: baseline %.4f, now %.4f (tol %gx)" b c tol
    | None, _ ->
      drift "b7: baseline row \"mc/fai-board 2x3 d22 por+dedup\" missing"
    | _, None -> drift "b7: disabled mode missing from measurement");
    if !failed then exit 1;
    Printf.printf
      "\nperf-regress OK (%d b6 + %d svc + %d b8 rows + b7 overhead, \
       tolerance %gx)\n"
      (List.length brows) (List.length svc_rows) (List.length b8_rows) tol;
    Printf.printf "b9 domain scaling: %d rows gated (counts exact, rates %gx)\n"
      (List.length b9_rows) tol;
    Printf.printf
      "b11 decomposed checker: %d rows gated (node counts exact, rates %gx)\n"
      (List.length b11_rows) tol;
    Printf.printf
      "b10 spill tier: %d rows gated (counts and spill shape exact, rates \
       %gx)\n"
      (List.length b10_rows) tol;
    Printf.printf
      "b12 flight recorder: %d rows gated (verdict counts exact, walls %gx)\n"
      (List.length b12_rows) tol
  end

let () =
  if Array.exists (fun a -> a = "--smoke") Sys.argv then begin
    (* CI smoke: B4 at tiny sizes; the asserts inside [b4] require
       nonzero exploration counts, and any Budget_exceeded escaping is
       a leak (no budget is configured anywhere in the series).  Then
       the B3/B6 exploration-count gates. *)
    (try b4 ~smoke:true ()
     with Engine.Budget_exceeded ->
       prerr_endline "bench-smoke: Budget_exceeded leaked";
       exit 1);
    mc_count_gates ();
    ignore (b7 ~smoke:true ());
    Printf.printf "\nbench-smoke OK\n"
  end
  else if Array.exists (fun a -> a = "--regress-update") Sys.argv then
    regress ~update:true ()
  else if Array.exists (fun a -> a = "--regress") Sys.argv then
    regress ~update:false ()
  else if Array.exists (fun a -> a = "--svc") Sys.argv then ignore (b5 ())
  else if Array.exists (fun a -> a = "--decomp") Sys.argv then ignore (b11 ())
  else if Array.exists (fun a -> a = "--net") Sys.argv then ignore (b8 ())
  else if Array.exists (fun a -> a = "--scaling") Sys.argv then ignore (b9 ())
  else begin
    Printf.printf
      "elin benchmark harness — experiment series from DESIGN.md section 5\n";
    b1 ();
    b2 ();
    b3 ();
    ignore (b6 ());
    ignore (b7 ());
    ignore (b9 ());
    ignore (b10 ());
    ignore (b11 ());
    ignore (b12 ());
    b4 ();
    e6 ();
    e10 ();
    e9 ();
    e13 ();
    e15 ();
    a1 ();
    ignore (b5 ());
    ignore (b8 ());
    Printf.printf "\nAll benchmark groups completed.\n"
  end
