(** Differential fuzzing of the decomposed checker ([Decompose])
    against the monolithic engine: verdict, [min_t], weak-consistency,
    and full-report equality on random multi-object histories at
    random cuts, budget self-consistency, gap-cut unit tests
    (including nondeterministic boundary-state threading), and
    hinted-scan verdict equivalence. *)

open Elin_spec
open Elin_history
open Elin_checker
open Elin_test_support
open Support

let fai = Faicounter.spec ()
let reg = Register.spec ()
let spec_of_obj o = if o mod 2 = 0 then reg else fai
let mono = Engine.config spec_of_obj
let wmono = Weak.config spec_of_obj
let dcfg = Decompose.config spec_of_obj

(* A random multi-object history over [spec_of] in one of four shapes:
   linearizable / pending / eventual / corrupted. *)
let random_mixed rng ~spec_of ~objs ~n_ops =
  match Elin_kernel.Prng.int rng 4 with
  | 0 -> Gen.mixed rng ~spec_of_obj:spec_of ~objs ~procs:3 ~n_ops ()
  | 1 -> Gen.mixed_with_pending rng ~spec_of_obj:spec_of ~objs ~procs:3 ~n_ops ()
  | 2 ->
    let per = max 1 (n_ops / (2 * objs)) in
    fst
      (Gen.mixed_eventual rng ~spec_of_obj:spec_of ~objs ~procs:2
         ~prefix_ops:per ~suffix_ops:per ())
  | _ -> (
    let h = Gen.mixed rng ~spec_of_obj:spec_of ~objs ~procs:3 ~n_ops () in
    match Gen.corrupt rng h with Some h' -> h' | None -> h)

let random_cut rng h = Elin_kernel.Prng.int rng (History.length h + 1)
let random_objs rng = 1 + Elin_kernel.Prng.int rng 3

(* --- decomposed = monolithic: verdicts at random cuts --- *)

let verdict_equality =
  Support.seeded_prop ~count:150 "decomposed = monolithic t-lin verdict"
    (fun rng ->
      let objs = random_objs rng in
      let h = random_mixed rng ~spec_of:spec_of_obj ~objs ~n_ops:6 in
      let t = random_cut rng h in
      Decompose.t_linearizable dcfg h ~t = Engine.t_linearizable mono h ~t)

(* --- decomposed min_t = monolithic min_t (exactly, not a bound) --- *)

let min_t_equality =
  Support.seeded_prop ~count:120 "decomposed min_t = monolithic min_t"
    (fun rng ->
      let objs = random_objs rng in
      let h = random_mixed rng ~spec_of:spec_of_obj ~objs ~n_ops:6 in
      Decompose.min_t dcfg h = Eventual.min_t mono h)

(* --- decomposed weak check finds the identical first violator --- *)

let weak_equality =
  Support.seeded_prop ~count:120 "decomposed weak = monolithic weak"
    (fun rng ->
      let objs = random_objs rng in
      let h = random_mixed rng ~spec_of:spec_of_obj ~objs ~n_ops:6 in
      match (Decompose.weak_check dcfg h, Weak.check wmono h) with
      | Ok (), Ok () -> true
      | Error a, Error b -> a.Operation.id = b.Operation.id
      | _ -> false)

(* --- full decomposed report = monolithic report (single-spec) --- *)

let report_fields_equal (a : Report.t) (b : Report.t) =
  a.events = b.events && a.operations = b.operations
  && a.complete = b.complete && a.pending = b.pending && a.procs = b.procs
  && a.objs = b.objs && a.concurrency = b.concurrency
  && a.linearizable = b.linearizable
  && a.weakly_consistent = b.weakly_consistent
  && a.violating_op = b.violating_op
  && a.min_t = b.min_t && a.witness = b.witness
  && a.budget_exhausted = b.budget_exhausted

let analyze_equality =
  Support.seeded_prop ~count:60 "decomposed analyze = Report.analyze"
    (fun rng ->
      let objs = random_objs rng in
      let h = random_mixed rng ~spec_of:(fun _ -> fai) ~objs ~n_ops:6 in
      let mono_r = Report.analyze fai h in
      let dec_r, _ = Decompose.analyze fai h in
      report_fields_equal mono_r dec_r)

(* --- budget self-consistency: a budgeted decomposed analysis never
   escapes with an exception, and when it completes within budget its
   verdicts equal the unbudgeted monolithic ones --- *)

let budget_consistency =
  Support.seeded_prop ~count:80 "budgeted decomposed analyze consistent"
    (fun rng ->
      let objs = random_objs rng in
      let h = random_mixed rng ~spec_of:(fun _ -> fai) ~objs ~n_ops:5 in
      let b = 1 + Elin_kernel.Prng.int rng 200 in
      let dec_r, _ = Decompose.analyze ~node_budget:b fai h in
      if dec_r.Report.budget_exhausted then true
      else report_fields_equal (Report.analyze fai h) dec_r)

(* --- gap cuts: nondeterministic boundary-state threading --- *)

(* Two overlapping writes (either order is a valid linearization),
   a gap, then a read: the segment composition must thread BOTH
   reachable states across the gap. *)
let overlap_writes_then_read v =
  h
    [
      inv 0 (Op.write 1); inv 1 (Op.write 2);
      res 0 Value.unit; res 1 Value.unit;
      inv 0 Op.read; resi 0 v;
    ]

let rdcfg = Decompose.for_spec reg
let rcfg = Engine.for_spec reg

let gap_state_sets () =
  List.iter
    (fun (v, expect) ->
      let hist = overlap_writes_then_read v in
      Alcotest.(check bool)
        (Printf.sprintf "read -> %d decomposed" v)
        expect
        (Decompose.linearizable rdcfg hist);
      Alcotest.(check bool)
        (Printf.sprintf "read -> %d matches monolithic" v)
        (Engine.linearizable rcfg hist)
        (Decompose.linearizable rdcfg hist))
    [ (1, true); (2, true); (0, false) ];
  (* The decomposition actually took the gap path. *)
  let _, st = Decompose.t_linearizable_stats rdcfg (overlap_writes_then_read 1) ~t:0 in
  Alcotest.(check bool) "gap segments used" true (st.Decompose.gap_segments >= 2)

let final_states_both () =
  let seg =
    h [ inv 0 (Op.write 1); inv 1 (Op.write 2); res 0 Value.unit; res 1 Value.unit ]
  in
  let states, v = Engine.final_states (Engine.prepare rcfg seg) in
  Alcotest.(check bool) "0-linearizable" true v.Engine.ok;
  Alcotest.(check int) "two boundary states" 2 (List.length states);
  Alcotest.(check bool) "states are {1, 2}" true
    (List.map (fun s -> s.(0)) states = [ Value.int 1; Value.int 2 ])

(* Pending operations may or may not take effect: both outcomes must
   survive the gap threading.  (A pending write keeps the operation
   open, so the real gap test is after it responds; here we check
   final_states directly.) *)
let final_states_pending () =
  let seg = h [ inv 0 (Op.write 7) ] in
  let states, v = Engine.final_states (Engine.prepare rcfg seg) in
  Alcotest.(check bool) "0-linearizable" true v.Engine.ok;
  Alcotest.(check bool) "dropped and placed states" true
    (List.map (fun s -> s.(0)) states = [ Value.int 0; Value.int 7 ])

(* --- register_family: the composed bound equals the monolithic one
   (Proposition 9 exercises divergence, so equality is informative) --- *)

let family_min_t_exact () =
  List.iter
    (fun k ->
      let hist = Locality.register_family k in
      let dec, _, st = Decompose.min_t_stats rdcfg hist in
      Alcotest.(check (option int))
        (Printf.sprintf "k=%d composed = monolithic" k)
        (Eventual.min_t rcfg hist) dec;
      Alcotest.(check (option int))
        (Printf.sprintf "k=%d exact value" k)
        (Some ((4 * (k - 1)) + 2))
        dec;
      Alcotest.(check int)
        (Printf.sprintf "k=%d sub-histories" k)
        k st.Decompose.objects)
    [ 1; 2; 3; 5 ]

let empty_history () =
  Alcotest.(check (option int)) "empty min_t" (Some 0)
    (Decompose.min_t dcfg History.empty);
  Alcotest.(check bool) "empty weak" true
    (Decompose.is_weakly_consistent dcfg History.empty);
  Alcotest.(check bool) "empty linearizable" true
    (Decompose.linearizable dcfg History.empty)

(* --- a hinted scan decides the same predicate as the unhinted one --- *)

let hinted_equiv =
  Support.seeded_prop ~count:150 "hinted = unhinted" (fun rng ->
      let objs = random_objs rng in
      let h = random_mixed rng ~spec_of:spec_of_obj ~objs ~n_ops:6 in
      let t = random_cut rng h in
      let p = Engine.prepare mono h in
      let n = History.n_ops h in
      let unhinted = (Engine.check_at p ~t).Engine.ok in
      let hint = Array.make n 0 in
      let v1 = Engine.check_at ~hint p ~t in
      (* Same hint array threaded through a second run, then random
         scores with ties: the verdict is heuristic-independent. *)
      let v2 = Engine.check_at ~hint p ~t in
      let scores = Array.init n (fun _ -> Elin_kernel.Prng.int rng 3) in
      let v3 = Engine.check_at ~hint:scores p ~t in
      v1.Engine.ok = unhinted && v2.Engine.ok = unhinted
      && v3.Engine.ok = unhinted)

let () =
  Alcotest.run "decompose"
    [
      ( "differential",
        [ verdict_equality; min_t_equality; weak_equality; analyze_equality ]
      );
      ("budget", [ budget_consistency ]);
      ( "gap cuts",
        [
          Support.quick "state-set threading" gap_state_sets;
          Support.quick "final_states both orders" final_states_both;
          Support.quick "final_states pending" final_states_pending;
        ] );
      ( "composition",
        [
          Support.quick "register_family exact" family_min_t_exact;
          Support.quick "empty history" empty_history;
        ] );
      ("hinted scan", [ hinted_equiv ]);
    ]
