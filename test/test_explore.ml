(** Tests for the transition semantics and its bounded exhaustive
    search: leaf counting against hand-computed interleaving counts,
    exhaustiveness (it finds the schedules random testing misses),
    configuration stepping, and the solo-run helpers used by the
    stabilization construction. *)

open Elin_spec
open Elin_runtime
open Elin_explore
open Elin_checker
open Elin_mc
open Elin_test_support

let direct_fai () = Impl.of_spec (Faicounter.spec ())

let leaf_count_single_proc () =
  (* One process, two ops, no base accesses: a single schedule. *)
  let wl = [| [ Op.fetch_inc; Op.fetch_inc ] |] in
  let stats =
    Mc.count_states (direct_fai ()) ~workloads:wl ~dedup:false ~por:false ()
  in
  Alcotest.(check int) "one leaf" 1 stats.Search.leaves

let leaf_count_two_procs () =
  (* Two processes, one 3-step op each (invoke, base access, respond):
     interleavings of two ordered triples = C(6,3) = 20. *)
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:1 in
  let stats =
    Mc.count_states (direct_fai ()) ~workloads:wl ~dedup:false ~por:false ()
  in
  Alcotest.(check int) "twenty interleavings" 20 stats.Search.leaves

let truncation_counted () =
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
  let stats = Mc.count_states (direct_fai ()) ~workloads:wl ~max_steps:3 () in
  Alcotest.(check bool) "truncated leaves" true (stats.Search.cut > 0)

let all_leaf_histories_linearizable () =
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let out =
    Mc.check (direct_fai ()) ~workloads:wl ~max_steps:16 (fun h ->
        Faic.t_linearizable h ~t:0)
  in
  Alcotest.(check bool) "no counterexample" true
    (out.Mc.ok && out.Mc.counterexample = None)

let exists_finds_schedule () =
  (* The direct implementation responds atomically: some interleaving
     has p1's whole op inside p0's op window. *)
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:1 in
  let out =
    Mc.check (direct_fai ()) ~workloads:wl ~max_steps:8 (fun h ->
        match Elin_history.History.ops h with
        | [ a; b ] ->
          not
            (Elin_history.Operation.precedes a b
            || Elin_history.Operation.precedes b a)
        | _ -> true)
  in
  Alcotest.(check bool) "sequentialized schedule exists" true
    (out.Mc.counterexample <> None)

let adversary_branching_explored () =
  (* An eventually linearizable register with Own_or_all views: the
     explorer must cover both views, so some leaf shows the stale read
     and some leaf shows the fresh one. *)
  let base = Ev_base.adversarial_until_step (Register.spec ()) 100 in
  let impl = Impl.direct base in
  let wl = [| [ Op.read ]; [ Op.write 1 ] |] in
  let reads h =
    List.filter_map
      (fun (o : Elin_history.Operation.t) ->
        if Op.equal o.Elin_history.Operation.op Op.read then
          Elin_history.Operation.response_value o
        else None)
      (Elin_history.History.ops h)
  in
  let saw v =
    (Mc.check impl ~workloads:wl ~max_steps:8 (fun h ->
         not (List.exists (Value.equal v) (reads h))))
      .Mc.counterexample
    <> None
  in
  Alcotest.(check bool) "stale read covered" true (saw (Value.int 0));
  Alcotest.(check bool) "fresh read covered" true (saw (Value.int 1))

let config_invocations_tracked () =
  let impl = direct_fai () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:1 in
  let c0 = Explore.initial_config impl ~workloads:wl () in
  Alcotest.(check int) "no invocations yet" 0 c0.Explore.invocations;
  match Explore.step impl c0 0 with
  | [ c1 ] ->
    Alcotest.(check int) "one invocation" 1 c1.Explore.invocations;
    Alcotest.(check int) "one event" 1 c1.Explore.n_events
  | _ -> Alcotest.fail "invoke step is deterministic"

let successors_cover_all_procs () =
  let impl = direct_fai () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:3 ~per_proc:1 in
  let c0 = Explore.initial_config impl ~workloads:wl () in
  Alcotest.(check int) "three successors" 3
    (List.length (Explore.successors impl c0))

let locals_override () =
  let impl =
    {
      Impl.name = "local-reader";
      bases = [||];
      local_init = Value.int 0;
      program =
        (fun ~proc:_ ~local _ -> Program.return (local, local));
    }
  in
  let wl = [| [ Op.read ] |] in
  let out =
    Mc.check impl ~workloads:wl ~locals:[| Value.int 9 |] ~max_steps:4
      (fun h ->
        not
          (List.exists
             (fun (o : Elin_history.Operation.t) ->
               Elin_history.Operation.response_value o = Some (Value.int 9))
             (Elin_history.History.ops h)))
  in
  Alcotest.(check bool) "override visible" true (out.Mc.counterexample <> None)

let complete_current_ops_idles () =
  let impl = Impls.fai_from_cas () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let c0 = Explore.initial_config impl ~workloads:wl () in
  (* Step both processes into the middle of their first op. *)
  let c =
    match Explore.step impl c0 0 with
    | c :: _ -> (match Explore.step impl c 1 with c :: _ -> c | [] -> c0)
    | [] -> c0
  in
  match Explore.complete_current_ops impl c ~fuel:50 with
  | None -> Alcotest.fail "non-blocking implementation must idle"
  | Some c' ->
    Alcotest.(check bool) "quiescent" true (Explore.is_quiescent c')

let () =
  Alcotest.run "explore"
    [
      ( "leaves",
        [
          Support.quick "single proc" leaf_count_single_proc;
          Support.quick "two procs" leaf_count_two_procs;
          Support.quick "truncation" truncation_counted;
          Support.quick "forall" all_leaf_histories_linearizable;
          Support.quick "exists" exists_finds_schedule;
          Support.quick "adversary branching" adversary_branching_explored;
        ] );
      ( "configs",
        [
          Support.quick "invocations tracked" config_invocations_tracked;
          Support.quick "successors" successors_cover_all_procs;
          Support.quick "locals override" locals_override;
          Support.quick "complete current ops" complete_current_ops_idles;
        ] );
    ]
