(** Experiment E8: the Prop. 14 triviality classifier over the type
    zoo, and the (⇐)-direction communication-free implementation. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let zoo_classification () =
  List.iter
    (fun (e : Zoo.entry) ->
      Alcotest.(check bool)
        (Spec.name e.Zoo.spec ^ " classification")
        e.Zoo.trivial
        (Trivial.is_trivial e.Zoo.spec))
    (Zoo.all ())

let constant_object_trivial_with_table () =
  match Trivial.classify (Constant_object.spec ~value:7 ()) with
  | Trivial.Trivial table ->
    Alcotest.(check int) "one op" 1 (List.length table);
    let _, r = List.hd table in
    Alcotest.check Support.value "constant response" (Value.int 7) r
  | Trivial.Nontrivial _ | Trivial.Unknown ->
    Alcotest.fail "constant object must be trivial"

let register_nontrivial_witness () =
  match Trivial.classify (Register.spec ()) with
  | Trivial.Nontrivial (op, _, _) ->
    Alcotest.check Support.op "read distinguishes states" Op.read op
  | Trivial.Trivial _ | Trivial.Unknown ->
    Alcotest.fail "register must be non-trivial"

let fai_nontrivial_despite_infinite_state () =
  (* Infinite state space, but refuted immediately: fetch&inc returns
     different values in different reachable states. *)
  match Trivial.classify (Faicounter.spec ()) with
  | Trivial.Nontrivial _ -> ()
  | Trivial.Trivial _ | Trivial.Unknown ->
    Alcotest.fail "fetch&increment must be non-trivial"

let unknown_on_unrefutable_bound () =
  (* A type whose visible behaviour only changes after more states than
     the bound explores: triviality undecided within the budget.
     Build a counter readable only modulo nothing — i.e. a counter
     whose read always answers 0 but whose hidden state grows: it IS
     trivial semantically, and classify must prove it only if the
     reachable exploration completes.  With max_states tiny the verdict
     is Unknown. *)
  let hidden_growth =
    let poke op = if Op.name op <> "poke" then invalid_arg (Op.name op) in
    Spec.deterministic ~name:"hidden-growth" ~initial:(Value.int 0)
      ~response:(fun _ op ->
        poke op;
        Value.int 0)
      ~next:(fun q op ->
        poke op;
        Value.int (Value.to_int q + 1))
      ~all_ops:[ Op.make "poke" ]
  in
  (match Trivial.classify ~max_states:5 hidden_growth with
  | Trivial.Unknown -> ()
  | Trivial.Trivial _ | Trivial.Nontrivial _ ->
    Alcotest.fail "tiny bound must yield Unknown");
  Alcotest.(check bool) "is_trivial is conservative" false
    (Trivial.is_trivial ~max_states:5 hidden_growth)

let communication_free_impl_correct () =
  match Trivial.communication_free_impl (Constant_object.spec ~value:3 ()) with
  | None -> Alcotest.fail "trivial type must get an implementation"
  | Some impl ->
    Alcotest.(check int) "no shared objects" 0 (Array.length impl.Impl.bases);
    let wl = [| [ Op.read; Op.read ]; [ Op.read ] |] in
    let { Mc.ok; _ } =
      Mc.check impl ~workloads:wl ~max_steps:16 (fun h ->
          Engine.linearizable
            (Engine.for_spec (Constant_object.spec ~value:3 ()))
            h)
    in
    Alcotest.(check bool) "linearizable on all schedules (wait-free, no comm)"
      true ok

let communication_free_impl_refused () =
  Alcotest.(check bool) "non-trivial type gets none" true
    (Trivial.communication_free_impl (Register.spec ()) = None)

let solo_response_recovers_table () =
  (* Prop. 14 (⇒): running the communication-free implementation solo
     computes r(q0, op). *)
  let spec = Constant_object.spec ~value:5 () in
  match Trivial.communication_free_impl spec with
  | None -> Alcotest.fail "expected implementation"
  | Some impl ->
    Alcotest.(check (option Support.value)) "r(q0, read) = 5"
      (Some (Value.int 5))
      (Trivial.solo_response impl Op.read ())

let solo_response_on_real_impl () =
  (* Solo runs of non-trivial implementations return the initial-state
     response — the value that Prop. 14's argument shows must be
     correct in every reachable state if the type were trivial. *)
  Alcotest.(check (option Support.value)) "solo fetch&inc from cas"
    (Some (Value.int 0))
    (Trivial.solo_response (Impls.fai_from_cas ()) Op.fetch_inc ());
  Alcotest.(check (option Support.value)) "solo fetch&inc from board"
    (Some (Value.int 0))
    (Trivial.solo_response (Impls.fai_from_board ()) Op.fetch_inc ())

let pp_smoke () =
  let s v = Format.asprintf "%a" Trivial.pp_verdict v in
  Alcotest.(check bool) "trivial prints" true
    (String.length (s (Trivial.classify (Constant_object.spec ()))) > 0);
  Alcotest.(check bool) "nontrivial prints" true
    (String.length (s (Trivial.classify (Register.spec ()))) > 0)

let () =
  Alcotest.run "trivial"
    [
      ( "classifier (E8)",
        [
          Support.quick "zoo" zoo_classification;
          Support.quick "constant table" constant_object_trivial_with_table;
          Support.quick "register witness" register_nontrivial_witness;
          Support.quick "fai infinite-state" fai_nontrivial_despite_infinite_state;
          Support.quick "unknown on bound" unknown_on_unrefutable_bound;
        ] );
      ( "construction",
        [
          Support.quick "communication-free impl" communication_free_impl_correct;
          Support.quick "refused for non-trivial" communication_free_impl_refused;
          Support.quick "solo response recovers table" solo_response_recovers_table;
          Support.quick "solo response on real impls" solo_response_on_real_impl;
          Support.quick "pp" pp_smoke;
        ] );
    ]
