(** Experiment E15 (extension; the paper's Section 6 open question
    explored): the log-based universal construction from consensus
    cells, and its eventually linearizable instantiation. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let run impl ~workloads ~seed =
  Run.execute impl ~workloads ~sched:(Sched.random ~seed) ()

(* --- linearizable cells: Herlihy universality, mechanically --- *)

let universal_fai_linearizable =
  Support.seeded_prop ~count:40 "universal f&i linearizable" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let impl = Universal.construction ~spec:(Faicounter.spec ()) ~cells:16 () in
      let wl = Run.uniform_workload Op.fetch_inc ~procs:3 ~per_proc:4 in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done && Faic.t_linearizable out.Run.history ~t:0)

let universal_register_linearizable =
  Support.seeded_prop ~count:40 "universal register linearizable" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let spec = Register.spec () in
      let impl = Universal.construction ~spec ~cells:16 () in
      let wl =
        [|
          [ Op.write 1; Op.read; Op.write 2 ];
          [ Op.read; Op.write 1; Op.read ];
        |]
      in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done && Engine.linearizable (Engine.for_spec spec) out.Run.history)

let universal_queue_linearizable =
  Support.seeded_prop ~count:30 "universal queue linearizable" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let spec = Fifo.spec () in
      let impl = Universal.construction ~spec ~cells:16 () in
      let wl = [| [ Op.enq 1; Op.deq; Op.enq 2 ]; [ Op.deq; Op.enq 0; Op.deq ] |] in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done && Engine.linearizable (Engine.for_spec spec) out.Run.history)

let universal_fai_exhaustive () =
  let impl = Universal.construction ~spec:(Faicounter.spec ()) ~cells:8 () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check impl ~workloads:wl ~max_steps:20 (fun h ->
        Faic.t_linearizable h ~t:0)
  in
  (match cex with
  | Some h -> Alcotest.failf "counterexample:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all schedules linearizable" true ok

let universal_lock_free_solo_cost () =
  (* Solo: each op replays the log then wins the next cell: accesses of
     the i-th op = i + 1. *)
  let impl = Universal.construction ~spec:(Faicounter.spec ()) ~cells:8 () in
  let out =
    Run.execute impl
      ~workloads:[| List.init 4 (fun _ -> Op.fetch_inc) |]
      ~sched:(Sched.round_robin ()) ()
  in
  Alcotest.(check (list int)) "access counts grow with the log" [ 1; 2; 3; 4 ]
    out.Run.stats.Run.op_step_counts

let universal_cell_budget () =
  let impl = Universal.construction ~spec:(Faicounter.spec ()) ~cells:2 () in
  let wl = [| List.init 3 (fun _ -> Op.fetch_inc) |] in
  Alcotest.(check bool) "budget exceeded raises" true
    (match Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- eventually linearizable cells: the Section 6 candidate --- *)

let universal_ev_fai_eventually_linearizable =
  Support.seeded_prop ~count:40 "universal-ev f&i eventually linearizable"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let k = Elin_kernel.Prng.int rng 16 in
      let impl =
        Universal.construction ~spec:(Faicounter.spec ()) ~cells:24
          ~cell_base:(`Ev_at_step k) ()
      in
      let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:4 in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done
      && Eventual.is_eventually_linearizable (Faic.check out.Run.history))

let universal_ev_fai_not_linearizable () =
  (* Before stabilization the cells hand every process its own
     proposal: duplicates appear. *)
  let impl =
    Universal.construction ~spec:(Faicounter.spec ()) ~cells:16
      ~cell_base:(`Ev_at_step 1000) ()
  in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let cex =
    (Mc.check impl ~workloads:wl ~max_steps:18 (fun h ->
        Faic.t_linearizable h ~t:0))
    .Mc.counterexample
  in
  Alcotest.(check bool) "pre-stabilization violation exists" true (cex <> None)

let universal_ev_weakly_consistent_exhaustive () =
  let impl =
    Universal.construction ~spec:(Faicounter.spec ()) ~cells:16
      ~cell_base:(`Ev_at_step 6) ()
  in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check impl ~workloads:wl ~max_steps:22 (fun h ->
        Faic.weakly_consistent h)
  in
  (match cex with
  | Some h -> Alcotest.failf "violation:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "weak consistency on all schedules" true ok

let universal_ev_testandset =
  Support.seeded_prop ~count:30 "universal-ev test&set eventually linearizable"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let spec = Testandset.spec () in
      let impl =
        Universal.construction ~spec ~cells:16 ~cell_base:(`Ev_at_step 8) ()
      in
      let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:3 in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done
      && Eventual.is_eventually_linearizable (Eventual.check_spec spec out.Run.history))

let universal_ev_stabilization_bound_freezes () =
  (* The construction genuinely stabilizes: min_t does not chase the
     run length (contrast with the register-only candidates of E14). *)
  let min_t_at per_proc =
    let impl =
      Universal.construction ~spec:(Faicounter.spec ()) ~cells:64
        ~cell_base:(`Ev_at_step 6) ()
    in
    let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
    let out =
      Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()
    in
    match Faic.min_t out.Run.history with
    | Some t -> t
    | None -> Alcotest.fail "must stabilize"
  in
  let t6 = min_t_at 6 and t10 = min_t_at 10 and t14 = min_t_at 14 in
  Alcotest.(check bool) "bound frozen across run lengths" true
    (t6 = t10 && t10 = t14)

(* --- the wait-free (helping) variant --- *)

let wf_linearizable =
  Support.seeded_prop ~count:40 "wait-free universal f&i linearizable"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let impl =
        Universal.construction_wait_free ~spec:(Faicounter.spec ()) ~cells:32
          ~procs:3 ()
      in
      let wl = Run.uniform_workload Op.fetch_inc ~procs:3 ~per_proc:4 in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done && Faic.t_linearizable out.Run.history ~t:0)

let wf_exhaustive () =
  let impl =
    Universal.construction_wait_free ~spec:(Faicounter.spec ()) ~cells:8
      ~procs:2 ()
  in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:1 in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check impl ~workloads:wl ~max_steps:22 (fun h ->
        Faic.t_linearizable h ~t:0)
  in
  (match cex with
  | Some h -> Alcotest.failf "counterexample:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all schedules linearizable" true ok;
  (* Coverage counts schedules: the tree-mode search has one leaf per
     schedule, where the check above merges equal configurations. *)
  let tree =
    Mc.count_states impl ~workloads:wl ~max_steps:22 ~dedup:false ~por:false ()
  in
  Alcotest.(check bool) "real coverage" true (tree.Search.leaves > 500)

let wf_survives_starvation_adversary () =
  (* The decisive contrast with the lock-free variant: the victim still
     completes operations under the adversary that makes the simple
     construction starve (see test_monitors). *)
  let impl =
    Universal.construction_wait_free ~spec:(Faicounter.spec ()) ~cells:512
      ~procs:2 ()
  in
  let victim, other =
    Elin_explore.Monitors.starvation_schedule impl ~victim:0 ~other:1
      ~op:Op.fetch_inc ~rounds:30
  in
  Alcotest.(check bool) "other progresses" true (other > 0);
  Alcotest.(check bool) "victim progresses too (helping)" true (victim > 0)

let wf_queue_linearizable =
  Support.seeded_prop ~count:20 "wait-free universal queue linearizable"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let spec = Fifo.spec () in
      let impl =
        Universal.construction_wait_free ~spec ~cells:32 ~procs:2 ()
      in
      let wl = [| [ Op.enq 1; Op.deq; Op.enq 2 ]; [ Op.deq; Op.enq 0; Op.deq ] |] in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done
      && Engine.linearizable (Engine.for_spec spec) out.Run.history)

let wf_ev_cells_eventually_linearizable =
  Support.seeded_prop ~count:30 "wait-free universal over ev cells" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let k = Elin_kernel.Prng.int rng 12 in
      let impl =
        Universal.construction_wait_free ~spec:(Faicounter.spec ()) ~cells:48
          ~procs:2 ~cell_base:(`Ev_at_step k) ()
      in
      let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:4 in
      let out = run impl ~workloads:wl ~seed in
      out.Run.all_done
      && Eventual.is_eventually_linearizable (Faic.check out.Run.history))

let () =
  Alcotest.run "universal"
    [
      ( "linearizable cells (Herlihy universality)",
        [
          universal_fai_linearizable;
          universal_register_linearizable;
          universal_queue_linearizable;
          Support.slow "exhaustive f&i" universal_fai_exhaustive;
          Support.quick "solo access cost" universal_lock_free_solo_cost;
          Support.quick "cell budget" universal_cell_budget;
        ] );
      ( "eventually linearizable cells (E15)",
        [
          universal_ev_fai_eventually_linearizable;
          Support.quick "not linearizable pre-stabilization"
            universal_ev_fai_not_linearizable;
          Support.slow "weakly consistent exhaustive"
            universal_ev_weakly_consistent_exhaustive;
          universal_ev_testandset;
          Support.quick "stabilization bound freezes"
            universal_ev_stabilization_bound_freezes;
        ] );
      ( "wait-free helping variant",
        [
          wf_linearizable;
          Support.slow "exhaustive" wf_exhaustive;
          Support.quick "survives starvation" wf_survives_starvation_adversary;
          wf_queue_linearizable;
          wf_ev_cells_eventually_linearizable;
        ] );
    ]
