(** Tests for sequential specifications: every concrete type's
    transitions, legality of behaviours, reachability, and the zoo's
    documented properties. *)

open Elin_spec
open Elin_test_support

let check_run spec ops expected () =
  let responses = Spec.run spec ops in
  Alcotest.(check (list Support.value)) "responses" expected responses

(* --- register --- *)

let register_semantics =
  let spec = Register.spec () in
  check_run spec
    [ Op.read; Op.write 2; Op.read; Op.write 1; Op.read ]
    [ Value.int 0; Value.unit; Value.int 2; Value.unit; Value.int 1 ]

let register_initial () =
  let spec = Register.spec ~initial:9 () in
  Alcotest.(check (list Support.value)) "initial visible"
    [ Value.int 9 ] (Spec.run spec [ Op.read ])

(* --- fetch&increment --- *)

let fai_semantics =
  let spec = Faicounter.spec () in
  check_run spec
    [ Op.fetch_inc; Op.fetch_inc; Op.fetch_inc ]
    [ Value.int 0; Value.int 1; Value.int 2 ]

let fai_initial =
  let spec = Faicounter.spec ~initial:5 () in
  check_run spec [ Op.fetch_inc; Op.fetch_inc ] [ Value.int 5; Value.int 6 ]

(* --- cas --- *)

let cas_success_failure =
  let spec = Cas_object.spec () in
  check_run spec
    [ Op.cas ~expected:0 ~desired:2; Op.cas ~expected:0 ~desired:1; Op.read ]
    [ Value.bool true; Value.bool false; Value.int 2 ]

(* --- test&set --- *)

let testandset_semantics =
  let spec = Testandset.spec () in
  check_run spec
    [ Op.test_and_set; Op.test_and_set ]
    [ Value.int 0; Value.int 1 ]

(* --- consensus --- *)

let consensus_first_wins =
  let spec = Consensus_spec.spec () in
  check_run spec
    [ Op.propose 1; Op.propose 0; Op.propose 1 ]
    [ Value.int 1; Value.int 1; Value.int 1 ]

(* --- max register --- *)

let maxreg_semantics =
  let spec = Maxreg.spec () in
  check_run spec
    [ Op.max_write 2; Op.max_read; Op.max_write 1; Op.max_read; Op.max_write 3;
      Op.max_read ]
    [ Value.unit; Value.int 2; Value.unit; Value.int 2; Value.unit; Value.int 3 ]

(* --- queue --- *)

let queue_fifo =
  let spec = Fifo.spec () in
  check_run spec
    [ Op.deq; Op.enq 1; Op.enq 2; Op.deq; Op.deq; Op.deq ]
    [ Fifo.empty_response; Value.unit; Value.unit; Value.int 1; Value.int 2;
      Fifo.empty_response ]

(* --- stack --- *)

let stack_lifo =
  let spec = Stack.spec () in
  check_run spec
    [ Op.push 1; Op.push 2; Op.pop; Op.pop; Op.pop ]
    [ Value.unit; Value.unit; Value.int 2; Value.int 1; Stack.empty_response ]

(* --- counter --- *)

let counter_semantics =
  let spec = Counter.spec () in
  check_run spec
    [ Op.read; Op.inc; Op.inc; Op.read ]
    [ Value.int 0; Value.unit; Value.unit; Value.int 2 ]

(* --- snapshot --- *)

let snapshot_semantics =
  let spec = Snapshot.spec ~components:2 () in
  check_run spec
    [ Op.scan; Op.update ~index:1 1; Op.scan ]
    [ Value.list [ Value.int 0; Value.int 0 ]; Value.unit;
      Value.list [ Value.int 0; Value.int 1 ] ]

(* --- swap register --- *)

let swap_semantics =
  let spec = Swap_register.spec () in
  check_run spec
    [ Swap_register.swap 2; Swap_register.swap 1; Op.read ]
    [ Value.int 0; Value.int 2; Value.int 1 ]

(* --- fetch&add --- *)

let fetch_add_semantics =
  let spec = Fetch_add.spec () in
  check_run spec
    [ Fetch_add.fetch_add 5; Op.fetch_inc; Fetch_add.fetch_add 2 ]
    [ Value.int 0; Value.int 5; Value.int 6 ]

(* --- nondeterministic coin --- *)

let coin_nondeterministic () =
  let spec = Nd_coin.spec () in
  let transitions = Spec.apply spec (Spec.initial spec) Nd_coin.flip in
  Alcotest.(check int) "two choices" 2 (List.length transitions);
  Alcotest.(check bool) "finite nondeterminism" true
    (Spec.has_finite_nondeterminism_on spec [ Spec.initial spec ])

(* --- legality --- *)

let legal_behaviour () =
  let spec = Register.spec () in
  Alcotest.(check bool) "legal" true
    (Legal.is_legal spec [ (Op.write 1, Value.unit); (Op.read, Value.int 1) ]);
  Alcotest.(check bool) "illegal read" false
    (Legal.is_legal spec [ (Op.write 1, Value.unit); (Op.read, Value.int 0) ])

let legal_nondeterministic () =
  let spec = Nd_coin.spec () in
  Alcotest.(check bool) "either flip result legal" true
    (Legal.is_legal spec [ (Nd_coin.flip, Value.int 0) ]
    && Legal.is_legal spec [ (Nd_coin.flip, Value.int 1) ]);
  Alcotest.(check bool) "2 is not a flip result" false
    (Legal.is_legal spec [ (Nd_coin.flip, Value.int 2) ])

let legal_complete () =
  let spec = Faicounter.spec () in
  let behaviour = Legal.complete spec [ Op.fetch_inc; Op.fetch_inc ] in
  Alcotest.(check (list Support.value)) "responses"
    [ Value.int 0; Value.int 1 ]
    (List.map snd behaviour)

let legal_responses_enum () =
  let spec = Register.spec () in
  Alcotest.(check (list Support.value)) "read after write"
    [ Value.int 2 ]
    (Legal.legal_responses spec [ (Op.write 2, Value.unit) ] Op.read)

(* --- reachability --- *)

let reachable_finite () =
  let spec = Testandset.spec () in
  let states, complete = Spec.reachable spec ~max_states:10 in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check int) "two states" 2 (List.length states)

let reachable_infinite_hits_bound () =
  let spec = Faicounter.spec () in
  let _, complete = Spec.reachable spec ~max_states:50 in
  Alcotest.(check bool) "bound hit" false complete

(* --- the transition representation --- *)

(* What the checkers' DFS reads: [Spec.transitions], with a
   deterministic spec's one transition rebuilt from [response] and
   [next]. *)
let via_transitions spec q op =
  match Spec.transitions spec with
  | Spec.Deterministic d -> [ (d.response q op, d.next q op) ]
  | Spec.Relation f -> f q op

let same_transitions a b =
  List.equal
    (fun (r, q) (r', q') -> Value.equal r r' && Value.equal q q')
    a b

(* For every zoo type and the nondeterministic coin, over reachable
   states x [all_ops]: [Spec.transitions] yields [Spec.apply]'s
   transitions element for element, in order, and a type is
   [Deterministic] exactly when the zoo documents it deterministic. *)
let transitions_match_apply () =
  let zoo =
    List.map (fun (e : Zoo.entry) -> (e.Zoo.spec, e.Zoo.deterministic))
      (Zoo.all ())
  in
  List.iter
    (fun (spec, deterministic) ->
      let name = Spec.name spec in
      Alcotest.(check bool)
        (name ^ " representation") deterministic
        (match Spec.transitions spec with
        | Spec.Deterministic _ -> true
        | Spec.Relation _ -> false);
      let states, _ = Spec.reachable spec ~max_states:60 in
      List.iter
        (fun q ->
          List.iter
            (fun op ->
              if
                not
                  (same_transitions (via_transitions spec q op)
                     (Spec.apply spec q op))
              then
                Alcotest.failf "%s: transitions of %s in %s differ" name
                  (Op.to_string op) (Value.to_string q))
            (Spec.all_ops spec))
        states)
    ((Nd_coin.spec (), false) :: zoo)

(* --- zoo --- *)

let zoo_determinism () =
  List.iter
    (fun (e : Zoo.entry) ->
      let states, _ = Spec.reachable e.Zoo.spec ~max_states:60 in
      Alcotest.(check bool)
        (Spec.name e.Zoo.spec ^ " determinism matches")
        e.Zoo.deterministic
        (Spec.is_deterministic_on e.Zoo.spec states))
    (Zoo.all ())

let zoo_finite_state () =
  List.iter
    (fun (e : Zoo.entry) ->
      let _, complete = Spec.reachable e.Zoo.spec ~max_states:500 in
      Alcotest.(check bool)
        (Spec.name e.Zoo.spec ^ " finite-state matches")
        e.Zoo.finite_state complete)
    (Zoo.all ())

let zoo_find () =
  Alcotest.(check string) "find register" "register"
    (Spec.name (Zoo.find "register").Zoo.spec);
  Alcotest.check_raises "unknown"
    (Invalid_argument "Zoo.find: unknown spec nope") (fun () ->
      ignore (Zoo.find "nope"))

let apply_det_errors () =
  let spec = Nd_coin.spec () in
  Alcotest.(check bool) "apply_det rejects nondeterminism" true
    (match Spec.apply_det spec (Spec.initial spec) Nd_coin.flip with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "spec"
    [
      ( "semantics",
        [
          Support.quick "register" register_semantics;
          Support.quick "register initial" register_initial;
          Support.quick "fetch&inc" fai_semantics;
          Support.quick "fetch&inc initial" fai_initial;
          Support.quick "cas" cas_success_failure;
          Support.quick "test&set" testandset_semantics;
          Support.quick "consensus" consensus_first_wins;
          Support.quick "max register" maxreg_semantics;
          Support.quick "queue fifo" queue_fifo;
          Support.quick "stack lifo" stack_lifo;
          Support.quick "counter" counter_semantics;
          Support.quick "snapshot" snapshot_semantics;
          Support.quick "swap register" swap_semantics;
          Support.quick "fetch&add" fetch_add_semantics;
          Support.quick "nd coin" coin_nondeterministic;
        ] );
      ( "legality",
        [
          Support.quick "register behaviours" legal_behaviour;
          Support.quick "nondeterministic behaviours" legal_nondeterministic;
          Support.quick "complete" legal_complete;
          Support.quick "legal responses" legal_responses_enum;
        ] );
      ( "reachability",
        [
          Support.quick "finite" reachable_finite;
          Support.quick "infinite hits bound" reachable_infinite_hits_bound;
        ] );
      ( "zoo",
        [
          Support.quick "determinism" zoo_determinism;
          Support.quick "finite-state flags" zoo_finite_state;
          Support.quick "find" zoo_find;
          Support.quick "apply_det errors" apply_det_errors;
          Support.quick "transitions = apply" transitions_match_apply;
        ] );
    ]
