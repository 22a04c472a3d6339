(** Experiment E10: Proposition 16 — the Proposals-array consensus is
    wait-free and eventually linearizable, from linearizable *and* from
    eventually linearizable registers. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let spec = Consensus_spec.spec ()

let propose_wl procs =
  Array.init procs (fun p -> [ Op.propose (p mod 2) ])

let run impl ~procs ~seed =
  Run.execute impl ~workloads:(propose_wl procs) ~sched:(Sched.random ~seed) ()

let eventually_linearizable_lin_regs =
  Support.seeded_prop ~count:60 "ev-lin over linearizable registers"
    (fun rng ->
      let procs = 2 + Elin_kernel.Prng.int rng 3 in
      let seed = Elin_kernel.Prng.int rng 100000 in
      let out = run (Ev_consensus.impl ~procs ()) ~procs ~seed in
      out.Run.all_done
      && Eventual.is_eventually_linearizable
           (Eventual.check_spec spec out.Run.history))

let eventually_linearizable_ev_regs =
  Support.seeded_prop ~count:60 "ev-lin over EVENTUALLY linearizable registers"
    (fun rng ->
      let procs = 2 + Elin_kernel.Prng.int rng 2 in
      let seed = Elin_kernel.Prng.int rng 100000 in
      let k = Elin_kernel.Prng.int rng 12 in
      let out =
        run (Ev_consensus.impl ~procs ~base:(`Ev_at_step k) ()) ~procs ~seed
      in
      out.Run.all_done
      && Eventual.is_eventually_linearizable
           (Eventual.check_spec spec out.Run.history))

let wait_free () =
  (* Each Propose performs at most n+2 register accesses: one read of
     its own register, one write, and the scan of n registers. *)
  let procs = 4 in
  let out = run (Ev_consensus.impl ~procs ()) ~procs ~seed:5 in
  Alcotest.(check bool) "all done" true out.Run.all_done;
  Alcotest.(check bool) "bounded accesses" true
    (out.Run.stats.Run.max_steps_per_op <= procs + 2)

let weakly_consistent_exhaustive () =
  let procs = 2 in
  let impl = Ev_consensus.impl ~procs () in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check impl ~workloads:(propose_wl procs) ~max_steps:16
      (fun h -> Weak.is_weakly_consistent (Weak.for_spec spec) h)
  in
  (match cex with
  | Some h -> Alcotest.failf "violation:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all schedules weakly consistent" true ok

let eventually_linearizable_exhaustive () =
  let procs = 2 in
  let impl = Ev_consensus.impl ~procs () in
  let { Mc.ok; _ } =
    Mc.check impl ~workloads:(propose_wl procs) ~max_steps:16
      (fun h ->
        Eventual.is_eventually_linearizable (Eventual.check_spec spec h))
  in
  Alcotest.(check bool) "all schedules eventually linearizable" true ok

let not_linearizable_witness () =
  (* The implementation is NOT linearizable: two processes can decide
     differently (p0 writes, scans before p1's write lands leftmost...
     in fact disagreement arises when p1 scans after p0's write while
     deciding). Exhibit any non-linearizable schedule. *)
  let procs = 2 in
  let impl = Ev_consensus.impl ~procs () in
  let wl = [| [ Op.propose 0 ]; [ Op.propose 1 ] |] in
  let cex =
    (Mc.check impl ~workloads:wl ~max_steps:16 (fun h ->
        Engine.linearizable (Engine.for_spec spec) h))
    .Mc.counterexample
  in
  Alcotest.(check bool) "non-linearizable schedule exists" true (cex <> None)

let repeated_proposals_stabilize () =
  (* The paper's t-linearization argument: once every write has
     happened and scans run after them, all Propose operations return
     the same value.  Make processes propose repeatedly and check the
     suffix agrees. *)
  let procs = 3 in
  let impl = Ev_consensus.impl ~procs () in
  let wl = Array.init procs (fun p -> List.init 4 (fun _ -> Op.propose (p mod 2))) in
  let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed:11) () in
  let decisions =
    List.filter_map
      (fun (o : Elin_history.Operation.t) ->
        Option.map
          (fun v -> (o.Elin_history.Operation.inv, Value.to_int v))
          (Elin_history.Operation.response_value o))
      (Elin_history.History.ops out.Run.history)
  in
  (* All operations invoked after every process's first write must
     agree; conservatively: the last [procs] operations agree. *)
  let sorted = List.sort compare decisions in
  let last_vals =
    List.filteri
      (fun i _ -> i >= List.length sorted - procs)
      (List.map snd sorted)
  in
  (match last_vals with
  | [] -> Alcotest.fail "no decisions"
  | v :: rest ->
    Alcotest.(check bool) "suffix agrees" true (List.for_all (( = ) v) rest));
  Alcotest.(check bool) "eventually linearizable" true
    (Eventual.is_eventually_linearizable
       (Eventual.check_spec spec out.Run.history))

let crash_tolerance () =
  (* Wait-freedom means survivors finish no matter who crashes: kill
     process 0 right after its write lands; everyone else still
     decides, and the history stays eventually linearizable. *)
  let procs = 3 in
  let impl = Ev_consensus.impl ~procs () in
  let wl = propose_wl procs in
  let sched = Sched.crash ~crashes:[ (0, 3) ] (Sched.round_robin ()) in
  let out = Run.execute impl ~workloads:wl ~sched () in
  let completed_by p =
    List.exists
      (fun (o : Elin_history.Operation.t) ->
        o.Elin_history.Operation.proc = p && Elin_history.Operation.is_complete o)
      (Elin_history.History.ops out.Run.history)
  in
  Alcotest.(check bool) "p1 decided" true (completed_by 1);
  Alcotest.(check bool) "p2 decided" true (completed_by 2);
  Alcotest.(check bool) "history eventually linearizable" true
    (Eventual.is_eventually_linearizable
       (Eventual.check_spec spec out.Run.history))

let pause_tolerance =
  Support.seeded_prop ~count:30 "paused processes still decide" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let procs = 3 in
      let impl = Ev_consensus.impl ~procs () in
      let sched =
        Sched.pause ~proc:1 ~from_step:2 ~until_step:12 (Sched.random ~seed)
      in
      let out = Run.execute impl ~workloads:(propose_wl procs) ~sched () in
      out.Run.all_done
      && Eventual.is_eventually_linearizable
           (Eventual.check_spec spec out.Run.history))

let own_register_visibility () =
  (* The algorithm's correctness hinges on weak consistency of the base
     registers: a process always sees its own proposal, so line 3
     always finds a non-⊥ value.  Even over never-stabilizing
     registers every Propose terminates with a valid decision. *)
  let procs = 2 in
  let impl = Ev_consensus.impl ~procs ~base:(`Ev_after_accesses max_int) () in
  let out = run impl ~procs ~seed:3 in
  Alcotest.(check bool) "all done" true out.Run.all_done;
  List.iter
    (fun (o : Elin_history.Operation.t) ->
      match Elin_history.Operation.response_value o with
      | Some v ->
        Alcotest.(check bool) "decision is someone's input" true
          (Value.equal v (Value.int 0) || Value.equal v (Value.int 1))
      | None -> Alcotest.fail "pending propose")
    (Elin_history.History.ops out.Run.history)

let () =
  Alcotest.run "ev_consensus"
    [
      ( "proposition 16 (E10)",
        [
          eventually_linearizable_lin_regs;
          eventually_linearizable_ev_regs;
          Support.quick "wait-free" wait_free;
          Support.slow "weak consistency exhaustive" weakly_consistent_exhaustive;
          Support.slow "eventual linearizability exhaustive"
            eventually_linearizable_exhaustive;
          Support.quick "not linearizable" not_linearizable_witness;
          Support.quick "repeated proposals stabilize" repeated_proposals_stabilize;
          Support.quick "own register visibility" own_register_visibility;
        ] );
      ( "failure injection",
        [ Support.quick "crash tolerance" crash_tolerance; pause_tolerance ] );
    ]
