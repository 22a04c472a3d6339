(** Experiment E11: the trivial eventually linearizable test&set
    (Section 4) — no shared memory at all, eventually linearizable, and
    provably not linearizable. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let spec = Testandset.spec ()

let wl procs per_proc = Run.uniform_workload Op.test_and_set ~procs ~per_proc

let no_shared_objects () =
  let impl = Ev_testandset.impl () in
  Alcotest.(check int) "zero base objects" 0 (Array.length impl.Impl.bases)

let per_process_behaviour () =
  let impl = Ev_testandset.impl () in
  let out =
    Run.execute impl ~workloads:(wl 2 3) ~sched:(Sched.round_robin ()) ()
  in
  let by_proc p =
    List.filter_map
      (fun (o : Elin_history.Operation.t) ->
        if o.Elin_history.Operation.proc = p then
          Option.map Value.to_int (Elin_history.Operation.response_value o)
        else None)
      (Elin_history.History.ops out.Run.history)
  in
  Alcotest.(check (list int)) "p0: 0 then 1s" [ 0; 1; 1 ] (by_proc 0);
  Alcotest.(check (list int)) "p1: 0 then 1s" [ 0; 1; 1 ] (by_proc 1)

let eventually_linearizable_exhaustive () =
  let impl = Ev_testandset.impl () in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check impl ~workloads:(wl 2 2) ~max_steps:20 (fun h ->
        Eventual.is_eventually_linearizable (Eventual.check_spec spec h))
  in
  (match cex with
  | Some h -> Alcotest.failf "violation:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all schedules" true ok

let eventually_linearizable_three_procs =
  Support.seeded_prop ~count:60 "three processes, random schedules"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let out =
        Run.execute (Ev_testandset.impl ()) ~workloads:(wl 3 3)
          ~sched:(Sched.random ~seed) ()
      in
      Eventual.is_eventually_linearizable
        (Eventual.check_spec spec out.Run.history))

let not_linearizable () =
  (* Two sequential winners: the canonical violation. *)
  let impl = Ev_testandset.impl () in
  let cex =
    (Mc.check impl ~workloads:(wl 2 1) ~max_steps:10 (fun h ->
        Engine.linearizable (Engine.for_spec spec) h))
    .Mc.counterexample
  in
  match cex with
  | None -> Alcotest.fail "expected non-linearizable schedule"
  | Some h ->
    (* The violation: both test&sets return 0 even when one strictly
       precedes the other. *)
    let zeros =
      List.length
        (List.filter
           (fun (o : Elin_history.Operation.t) ->
             Elin_history.Operation.response_value o = Some (Value.int 0))
           (Elin_history.History.ops h))
    in
    Alcotest.(check int) "two winners" 2 zeros

let min_t_covers_first_invocations () =
  (* Sequential double win: p0 wins, then p1 (strictly later) also
     wins.  Cutting p0's response (t = 2) suffices: p0's operation can
     be re-ordered after p1's with a recomputed response of 1, while
     t = 1 keeps both zeros and fails. *)
  let open Support in
  let hist =
    h
      [
        inv 0 Op.test_and_set; resi 0 0; inv 1 Op.test_and_set; resi 1 0;
        inv 1 Op.test_and_set; resi 1 1;
      ]
  in
  let v = Eventual.check_spec spec hist in
  Alcotest.(check bool) "weakly consistent" true v.Eventual.weakly_consistent;
  Alcotest.(check (option int)) "min_t" (Some 2) v.Eventual.min_t;
  Alcotest.(check bool) "t=1 keeps both zeros" false
    (Engine.t_linearizable (Engine.for_spec spec) hist ~t:1)

let stays_quiet_after_prefix () =
  (* Once every process has performed its first op, the implementation
     is *linearizably* quiet: a suffix of pure 1s composes with any
     prefix.  Check: suffix projection from the first all-1 point on is
     0-linearizable with initial state 1. *)
  let out =
    Run.execute (Ev_testandset.impl ()) ~workloads:(wl 3 3)
      ~sched:(Sched.random ~seed:17) ()
  in
  let spec1 = Testandset.spec ~initial:1 () in
  let events = Elin_history.History.events out.Run.history in
  (* Drop everything before the first point where every process has
     completed an operation; from there on all responses are 1. *)
  let procs_done = Hashtbl.create 4 in
  let cut = ref 0 in
  List.iteri
    (fun i (e : Elin_history.Event.t) ->
      if Elin_history.Event.is_respond e then begin
        Hashtbl.replace procs_done e.Elin_history.Event.proc ();
        if Hashtbl.length procs_done = 3 && !cut = 0 then cut := i + 1
      end)
    events;
  (* Drop orphan responses whose invocations fell before the cut. *)
  let seen_invoke = Hashtbl.create 4 in
  let suffix_events =
    List.filteri (fun i _ -> i >= !cut) events
    |> List.filter (fun (e : Elin_history.Event.t) ->
           if Elin_history.Event.is_invoke e then begin
             Hashtbl.replace seen_invoke e.Elin_history.Event.proc ();
             true
           end
           else Hashtbl.mem seen_invoke e.Elin_history.Event.proc)
  in
  let suffix = Elin_history.History.of_events suffix_events in
  Alcotest.(check bool) "suffix linearizable from set state" true
    (Engine.linearizable (Engine.for_spec spec1) suffix)

let weakly_consistent_always =
  Support.seeded_prop ~count:60 "weak consistency on all runs" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let out =
        Run.execute (Ev_testandset.impl ()) ~workloads:(wl 3 2)
          ~sched:(Sched.random ~seed) ()
      in
      Weak.is_weakly_consistent (Weak.for_spec spec) out.Run.history)

let () =
  Alcotest.run "testandset"
    [
      ( "E11",
        [
          Support.quick "no shared objects" no_shared_objects;
          Support.quick "per-process behaviour" per_process_behaviour;
          Support.slow "eventually linearizable exhaustive"
            eventually_linearizable_exhaustive;
          eventually_linearizable_three_procs;
          Support.quick "not linearizable" not_linearizable;
          Support.quick "min_t placement" min_t_covers_first_invocations;
          Support.quick "quiet after prefix" stays_quiet_after_prefix;
          weakly_consistent_always;
        ] );
    ]
