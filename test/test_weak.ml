(** Experiment E5 and unit tests for weak consistency (Definition 1,
    Lemma 10): own-history coherence, no out-of-thin-air responses,
    safety (prefix and finite limit closure), locality (Lemma 8),
    and [Weak.justifiable], the search of the Figure-1 guard. *)

open Elin_spec
open Elin_history
open Elin_checker
open Elin_test_support
open Support

let reg = Register.spec ()
let wreg = Weak.for_spec reg
let fai = Faicounter.spec ()
let wfai = Weak.for_spec fai

let empty_ok () =
  Alcotest.(check bool) "empty weakly consistent" true
    (Weak.is_weakly_consistent wreg (h []))

(* Cross-process staleness is allowed... *)
let stale_read_other_proc_ok () =
  let hist =
    h [ inv 0 (Op.write 1); res 0 Value.unit; inv 1 Op.read; resi 1 0 ]
  in
  Alcotest.(check bool) "stale cross-process read ok" true
    (Weak.is_weakly_consistent wreg hist)

(* ... but a process must see its own writes. *)
let own_write_must_be_seen () =
  let hist =
    h [ inv 0 (Op.write 1); res 0 Value.unit; inv 0 Op.read; resi 0 0 ]
  in
  Alcotest.(check bool) "own write ignored" false
    (Weak.is_weakly_consistent wreg hist)

(* No out-of-left-field values even from other processes. *)
let thin_air_rejected () =
  let hist = h [ inv 0 (Op.write 1); res 0 Value.unit; inv 1 Op.read; resi 1 9 ] in
  Alcotest.(check bool) "value 9 never written" false
    (Weak.is_weakly_consistent wreg hist)

(* A response may only use operations invoked before it completes. *)
let future_ops_unusable () =
  let hist =
    h [ inv 1 Op.read; resi 1 1; inv 0 (Op.write 1); res 0 Value.unit ]
  in
  Alcotest.(check bool) "future write unusable" false
    (Weak.is_weakly_consistent wreg hist)

(* Concurrent-but-invoked-before ops are usable. *)
let concurrent_op_usable () =
  let hist =
    h [ inv 0 (Op.write 1); inv 1 Op.read; resi 1 1; res 0 Value.unit ]
  in
  Alcotest.(check bool) "concurrent write usable" true
    (Weak.is_weakly_consistent wreg hist)

(* fetch&inc: two concurrent 0s are weakly consistent (each justified
   by the singleton history), unlike linearizability. *)
let fai_duplicates_weakly_ok () =
  let hist =
    h [ inv 0 Op.fetch_inc; inv 1 Op.fetch_inc; resi 0 0; resi 1 0 ]
  in
  Alcotest.(check bool) "duplicates fine weakly" true
    (Weak.is_weakly_consistent wfai hist)

(* But a process's own counter must not regress. *)
let fai_own_regression_rejected () =
  let hist =
    h [ inv 0 Op.fetch_inc; resi 0 0; inv 0 Op.fetch_inc; resi 0 0 ]
  in
  Alcotest.(check bool) "own regression" false
    (Weak.is_weakly_consistent wfai hist)

(* A response past every usable operation: two concurrent increments
   can justify at most 2, never 3.  The search tries both orders of the
   two candidates, so this fails if a failed branch leaves its state
   behind for the next candidate. *)
let fai_beyond_candidates_rejected () =
  let hist =
    h
      [
        inv 0 Op.fetch_inc;
        inv 1 Op.fetch_inc;
        inv 2 Op.fetch_inc;
        resi 0 0;
        resi 1 1;
        resi 2 3;
      ]
  in
  Alcotest.(check bool) "3 from two other increments" false
    (Weak.is_weakly_consistent wfai hist);
  Alcotest.(check bool) "faic agrees" false (Faic.weakly_consistent hist)

(* check returns the offending operation. *)
let check_names_culprit () =
  let hist =
    h [ inv 0 Op.fetch_inc; resi 0 0; inv 0 Op.fetch_inc; resi 0 0 ]
  in
  match Weak.check wfai hist with
  | Ok () -> Alcotest.fail "expected violation"
  | Error o ->
    Alcotest.(check int) "second op blamed" 1 o.Operation.id

(* Each operation is decided on its own object.  Op 2 (a register
   read) is justified there, though the test&set object cannot place
   its required ops 0 and 1 together; but then op 1, the last of
   them, is unjustified itself and comes first. *)
let first_violator_is_required_op () =
  let spec_of o = if o = 0 then Support.test_and_set_once else reg in
  let hist =
    h
      [
        inv 0 Op.test_and_set;
        resi 0 0;
        inv 0 Op.test_and_set;
        resi 0 0;
        inv ~obj:1 0 Op.read;
        resi ~obj:1 0 0;
      ]
  in
  (match Weak.check (Weak.config spec_of) hist with
  | Ok () -> Alcotest.fail "expected violation"
  | Error o -> Alcotest.(check int) "op 1 blamed" 1 o.Operation.id);
  Alcotest.(check bool) "oracle agrees" false
    (Oracle.weakly_consistent spec_of hist)

(* Nondeterministic types: a flip justified by *some* transition is
   weakly consistent even if other transitions disagree. *)
let nondeterministic_type_ok () =
  let coin = Nd_coin.spec () in
  let wcoin = Weak.for_spec coin in
  let hist =
    h [ inv 0 Nd_coin.flip; resi 0 1; inv 0 Nd_coin.flip; resi 0 0 ]
  in
  Alcotest.(check bool) "any flip sequence fine" true
    (Weak.is_weakly_consistent wcoin hist);
  let hist = h [ inv 0 Nd_coin.flip; resi 0 5 ] in
  Alcotest.(check bool) "impossible flip rejected" false
    (Weak.is_weakly_consistent wcoin hist)

(* Pending operations never violate Definition 1 (only responses are
   constrained). *)
let pending_never_violates =
  Support.seeded_prop ~count:40 "pending ops never violate" (fun rng ->
      let hist =
        Gen.linearizable_with_pending rng ~spec:reg ~procs:3 ~n_ops:5 ()
      in
      Weak.is_weakly_consistent wreg hist)

(* --- E5: weak consistency is a safety property (Lemma 10) --- *)

let prefix_closed =
  Support.seeded_prop ~count:60 "E5: prefix closure" (fun rng ->
      let hist, _ =
        Gen.eventually_linearizable rng ~spec:reg ~procs:2 ~prefix_ops:3
          ~suffix_ops:3 ()
      in
      Weak.is_weakly_consistent wreg hist
      && List.for_all
           (fun k ->
             Weak.is_weakly_consistent wreg (History.prefix hist k))
           (List.init (History.length hist + 1) (fun k -> k)))

(* Finite-approximation of limit closure: a growing chain of weakly
   consistent histories stays weakly consistent at every level (the
   infinite limit is out of reach mechanically; the chain check is the
   finite shadow). *)
let chain_closed =
  Support.seeded_prop ~count:20 "E5: closure along chains" (fun rng ->
      let hist = Gen.linearizable rng ~spec:reg ~procs:2 ~n_ops:8 () in
      let len = History.length hist in
      let rec grow k =
        if k > len then true
        else
          Weak.is_weakly_consistent wreg (History.prefix hist k) && grow (k + 1)
      in
      grow 0)

(* Non-example: extending a weakly consistent history can break weak
   consistency only through the *new* operation (safety = nothing bad
   yet); check that the violation is detected exactly when it
   appears. *)
let violation_appears_with_event () =
  let good = [ inv 0 (Op.write 1); res 0 Value.unit; inv 0 Op.read ] in
  Alcotest.(check bool) "pending read fine" true
    (Weak.is_weakly_consistent wreg (h good));
  Alcotest.(check bool) "bad response breaks it" false
    (Weak.is_weakly_consistent wreg (h (good @ [ resi 0 0 ])))

(* --- Lemma 8: locality of weak consistency --- *)

let locality_weak =
  Support.seeded_prop ~count:40 "Lemma 8: H weakly consistent iff all H|o"
    (fun rng ->
      (* Interleave two independently generated single-object histories
         onto distinct objects. *)
      let h1 = Gen.linearizable rng ~spec:reg ~procs:2 ~n_ops:4 () in
      let h2, _ =
        Gen.eventually_linearizable rng ~spec:reg ~procs:2 ~prefix_ops:2
          ~suffix_ops:2 ()
      in
      let relabel obj hist =
        List.map
          (fun (e : Event.t) -> { e with Event.obj })
          (History.events hist)
      in
      (* Simple deterministic interleaving: all of h1 then all of h2 —
         still a single history over two objects. *)
      let hist = History.of_events (relabel 0 h1 @ relabel 1 h2) in
      let direct = Weak.is_weakly_consistent wreg hist in
      let local =
        List.for_all
          (fun o ->
            Weak.is_weakly_consistent wreg (History.proj_obj hist o))
          (History.objs hist)
      in
      direct = local)

(* --- Weak.justifiable (Figure 1 line 13) --- *)

let justify_basic () =
  let pool = [ Op.write 1; Op.write 2 ] in
  (* read -> 2 justified by writing 2 last *)
  Alcotest.(check bool) "justified" true
    (Weak.justifiable reg ~pool ~required:[] ~op:Op.read ~resp:(Value.int 2));
  (* read -> 3 not justifiable *)
  Alcotest.(check bool) "not justifiable" false
    (Weak.justifiable reg ~pool ~required:[] ~op:Op.read ~resp:(Value.int 3))

let justify_required () =
  let pool = [ Op.write 1; Op.write 2 ] in
  (* read -> 0 requires placing no ops, fine with no required ops *)
  Alcotest.(check bool) "empty subset ok" true
    (Weak.justifiable reg ~pool ~required:[] ~op:Op.read ~resp:(Value.int 0));
  (* but required index 0 (write 1) forces it into S; read -> 0 then
     needs write 2... order write1 write2? no: read must return last
     write.  With required = [0], S must contain write 1; read -> 0
     impossible since any placement leaves register non-zero... *)
  Alcotest.(check bool) "required write blocks stale read" false
    (Weak.justifiable reg ~pool ~required:[ 0 ] ~op:Op.read
       ~resp:(Value.int 0));
  Alcotest.(check bool) "required write enables its value" true
    (Weak.justifiable reg ~pool ~required:[ 0 ] ~op:Op.read
       ~resp:(Value.int 1))

(* A repeated required index is one required operation. *)
let justify_repeated_required () =
  let pool = [ Op.fetch_inc ] in
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "%d required entries" (List.length required))
        true
        (Weak.justifiable fai ~pool ~required ~op:Op.fetch_inc
           ~resp:(Value.int 1)))
    [ [ 0 ]; [ 0; 0 ] ]

let justify_fai_counts () =
  let pool = [ Op.fetch_inc; Op.fetch_inc; Op.fetch_inc ] in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "fetch&inc -> %d" v)
        (v <= 3)
        (Weak.justifiable fai ~pool ~required:[] ~op:Op.fetch_inc
           ~resp:(Value.int v)))
    [ 0; 1; 2; 3; 4 ]

(* Cross-validation: Weak.check agrees with the fast fetch&inc bounds
   check on generated histories (full Faic cross-check in
   test_faic). *)
let weak_matches_fast =
  Support.seeded_prop ~count:40 "Weak = Faic.weakly_consistent" (fun rng ->
      let hist, _ =
        Gen.eventually_linearizable rng ~spec:fai ~procs:2 ~prefix_ops:3
          ~suffix_ops:3 ()
      in
      let direct = Weak.is_weakly_consistent wfai hist in
      let fast = Faic.weakly_consistent hist in
      direct = fast)

let weak_matches_fast_corrupted =
  Support.seeded_prop ~count:60 "Weak = Faic.weakly_consistent (corrupted)"
    (fun rng ->
      let hist = Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:5 () in
      match Gen.corrupt rng hist with
      | None -> true
      | Some hist ->
        Weak.is_weakly_consistent wfai hist = Faic.weakly_consistent hist)

let () =
  Alcotest.run "weak"
    [
      ( "definition 1",
        [
          Support.quick "empty" empty_ok;
          Support.quick "stale cross-process" stale_read_other_proc_ok;
          Support.quick "own writes visible" own_write_must_be_seen;
          Support.quick "thin air" thin_air_rejected;
          Support.quick "future ops unusable" future_ops_unusable;
          Support.quick "concurrent ops usable" concurrent_op_usable;
          Support.quick "fai duplicates ok" fai_duplicates_weakly_ok;
          Support.quick "fai own regression" fai_own_regression_rejected;
          Support.quick "fai past every candidate"
            fai_beyond_candidates_rejected;
          Support.quick "culprit named" check_names_culprit;
          Support.quick "first violator is a required op"
            first_violator_is_required_op;
          Support.quick "nondeterministic type" nondeterministic_type_ok;
          pending_never_violates;
        ] );
      ( "safety (E5)",
        [
          prefix_closed;
          chain_closed;
          Support.quick "violation timing" violation_appears_with_event;
        ] );
      ("locality (Lemma 8)", [ locality_weak ]);
      ( "justify",
        [
          Support.quick "basic" justify_basic;
          Support.quick "required ops" justify_required;
          Support.quick "repeated required index" justify_repeated_required;
          Support.quick "fai counts" justify_fai_counts;
          weak_matches_fast;
          weak_matches_fast_corrupted;
        ] );
    ]
