(** Experiment E7: Theorem 12's local-copy transformation.

    The theorem: a linearizable obstruction-free implementation from
    eventually linearizable objects yields a communication-free
    wait-free one (replace each object by per-process local copies) —
    impossible for non-trivial types.  Mechanically:

    1. the transformation is behaviour-preserving in the theorem's
       sense — every history of I' is a possible history of I when I's
       bases are eventually linearizable with local views;
    2. for a non-trivial type (register), the transformed
       implementation exhibits non-linearizable histories — certifying
       that the original could not have been linearizable;
    3. the transformed implementation is wait-free (bounded accesses)
       even when the original could block. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let reg = Register.spec ()

(* A register "implementation" whose base is a register accessed
   atomically — the strongest candidate the theorem kills. *)
let direct_reg () = Impl.of_spec reg

let transform_shape () =
  let impl = Local_copy.transform ~procs:3 (Impls.fai_from_cas ()) in
  Alcotest.(check int) "3 copies of 1 base" 3 (Array.length impl.Impl.bases);
  Alcotest.(check string) "name" "fai/cas/local-copies" impl.Impl.name

let redirect_isolates_processes () =
  (* After the transform, p0's writes are invisible to p1. *)
  let impl = Local_copy.transform ~procs:2 (direct_reg ()) in
  let wl = [| [ Op.write 1 ]; [ Op.read ] |] in
  let out =
    Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()
  in
  let read_value =
    List.find_map
      (fun (o : Elin_history.Operation.t) ->
        if Op.equal o.Elin_history.Operation.op Op.read then
          Elin_history.Operation.response_value o
        else None)
      (Elin_history.History.ops out.Run.history)
  in
  Alcotest.(check (option Support.value)) "p1 sees initial value"
    (Some (Value.int 0)) read_value

let transformed_register_not_linearizable () =
  (* The theorem's conclusion, mechanically: the local-copy register
     has a non-linearizable history (write completes, later read misses
     it). *)
  let impl = Local_copy.transform ~procs:2 (direct_reg ()) in
  let wl = [| [ Op.write 1 ]; [ Op.read ] |] in
  let cex =
    (Mc.check impl ~workloads:wl ~max_steps:10 (fun h ->
        Engine.linearizable (Engine.for_spec reg) h))
    .Mc.counterexample
  in
  Alcotest.(check bool) "non-linearizable history exists" true (cex <> None)

let transformed_histories_weakly_consistent () =
  (* Local copies are exactly the Own_only adversary: all histories of
     I' are weakly consistent — the behaviours I's eventually
     linearizable bases were allowed to produce. *)
  let impl = Local_copy.transform ~procs:2 (direct_reg ()) in
  let wl = [| [ Op.write 1; Op.read ]; [ Op.read; Op.write 2; Op.read ] |] in
  let { Mc.ok; _ } =
    Mc.check impl ~workloads:wl ~max_steps:20 (fun h ->
        Weak.is_weakly_consistent (Weak.for_spec reg) h)
  in
  Alcotest.(check bool) "all weakly consistent" true ok

let matches_ev_base_local_views () =
  (* Theorem 12's key step: I' histories = I histories when I's base
     answers from local views.  Run both side by side under the same
     scheduler and compare. *)
  let transformed = Local_copy.transform ~procs:2 (direct_reg ()) in
  let ev_impl = Impl.direct (Ev_base.never_stabilizing reg) in
  let wl = [| [ Op.write 1; Op.read ]; [ Op.read; Op.write 2; Op.read ] |] in
  let h_of impl seed =
    (Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed) ()).Run.history
  in
  List.iter
    (fun seed ->
      Alcotest.check Support.history
        (Printf.sprintf "seed %d: identical histories" seed)
        (h_of transformed seed) (h_of ev_impl seed))
    [ 1; 2; 3; 4; 5 ]

let transformed_wait_free () =
  (* Same per-op access bound as the original, no retries possible on
     private copies: the CAS loop succeeds first try. *)
  let impl = Local_copy.transform ~procs:3 (Impls.fai_from_cas ()) in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:3 ~per_proc:5 in
  let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed:3) () in
  Alcotest.(check bool) "all done" true out.Run.all_done;
  Alcotest.(check int) "bounded accesses (wait-free)" 2
    out.Run.stats.Run.max_steps_per_op

let solo_executions_preserved () =
  (* Theorem 12's wait-freedom argument: a solo run of I' is a solo run
     of I.  Compare p0 solo on both. *)
  let original = Impls.fai_from_cas () in
  let transformed = Local_copy.transform ~procs:2 original in
  let wl = [| List.init 4 (fun _ -> Op.fetch_inc); [] |] in
  let h_of impl =
    (Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()).Run.history
  in
  Alcotest.check Support.history "solo runs identical" (h_of original)
    (h_of transformed)

let trivial_type_survives () =
  (* The only types surviving the transform linearizably are the
     trivial ones (Prop. 14): the constant object's local-copy
     implementation is still linearizable. *)
  let spec = Constant_object.spec () in
  let impl = Local_copy.transform ~procs:2 (Impl.of_spec spec) in
  let wl = [| [ Op.read; Op.read ]; [ Op.read ] |] in
  let { Mc.ok; _ } =
    Mc.check impl ~workloads:wl ~max_steps:16 (fun h ->
        Engine.linearizable (Engine.for_spec spec) h)
  in
  Alcotest.(check bool) "constant object still linearizable" true ok

let () =
  Alcotest.run "theorem12"
    [
      ( "transform",
        [
          Support.quick "shape" transform_shape;
          Support.quick "isolation" redirect_isolates_processes;
          Support.quick "solo preserved" solo_executions_preserved;
          Support.quick "wait-free" transformed_wait_free;
        ] );
      ( "impossibility (E7)",
        [
          Support.quick "register dies" transformed_register_not_linearizable;
          Support.quick "weakly consistent behaviours"
            transformed_histories_weakly_consistent;
          Support.quick "matches ev-base local views" matches_ev_base_local_views;
          Support.quick "trivial type survives" trivial_type_survives;
        ] );
    ]
