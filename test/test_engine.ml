(** Tests for the generic linearizability engine (t = 0): classic
    textbook histories, pending-operation handling, nondeterministic
    types, multi-object histories, witnesses, budgets. *)

open Elin_spec
open Elin_history
open Elin_checker
open Elin_test_support
open Support

let reg = Register.spec ()
let rcfg = Engine.for_spec reg
let fai = Faicounter.spec ()
let fcfg = Engine.for_spec fai

let empty_history () =
  Alcotest.(check bool) "empty linearizable" true
    (Engine.linearizable rcfg (h []))

let sequential_legal () =
  Alcotest.(check bool) "legal sequential" true
    (Engine.linearizable rcfg
       (seq [ (Op.write 1, Value.unit); (Op.read, Value.int 1) ]))

let sequential_illegal () =
  Alcotest.(check bool) "stale sequential read" false
    (Engine.linearizable rcfg
       (seq [ (Op.write 1, Value.unit); (Op.read, Value.int 0) ]))

(* Herlihy–Wing's classic: overlapping write/read can be ordered
   either way. *)
let overlapping_either_order () =
  let hist =
    h [ inv 0 (Op.write 1); inv 1 Op.read; resi 1 1; res 0 Value.unit ]
  in
  Alcotest.(check bool) "read new value" true (Engine.linearizable rcfg hist);
  let hist =
    h [ inv 0 (Op.write 1); inv 1 Op.read; resi 1 0; res 0 Value.unit ]
  in
  Alcotest.(check bool) "read old value" true (Engine.linearizable rcfg hist)

let real_time_respected () =
  (* Write completes strictly before the read is invoked: the read must
     see it. *)
  let hist = h [ inv 0 (Op.write 1); res 0 Value.unit; inv 1 Op.read; resi 1 0 ] in
  Alcotest.(check bool) "stale read after write" false
    (Engine.linearizable rcfg hist)

let out_of_thin_air () =
  let hist = h [ inv 0 Op.read; resi 0 7 ] in
  Alcotest.(check bool) "value from nowhere" false
    (Engine.linearizable rcfg hist)

(* Pending operations: a pending write can justify a read. *)
let pending_write_takes_effect () =
  let hist = h [ inv 0 (Op.write 1); inv 1 Op.read; resi 1 1 ] in
  Alcotest.(check bool) "pending write may linearize" true
    (Engine.linearizable rcfg hist)

let pending_op_may_be_dropped () =
  let hist = h [ inv 0 (Op.write 1); inv 1 Op.read; resi 1 0 ] in
  Alcotest.(check bool) "pending write may be dropped" true
    (Engine.linearizable rcfg hist)

(* fetch&inc: duplicates and gaps. *)
let fai_duplicate_values () =
  let hist =
    h [ inv 0 Op.fetch_inc; inv 1 Op.fetch_inc; resi 0 0; resi 1 0 ]
  in
  Alcotest.(check bool) "duplicate fetch&inc results" false
    (Engine.linearizable fcfg hist)

let fai_gap_requires_pending () =
  (* A single completed op returning 1 needs another op in slot 0: a
     pending op can fill it... *)
  let hist = h [ inv 1 Op.fetch_inc; inv 0 Op.fetch_inc; resi 0 1 ] in
  Alcotest.(check bool) "pending fills the gap" true
    (Engine.linearizable fcfg hist);
  (* ... but with no pending op the gap is fatal. *)
  let hist = h [ inv 0 Op.fetch_inc; resi 0 1 ] in
  Alcotest.(check bool) "gap with no filler" false
    (Engine.linearizable fcfg hist)

(* Queue: the classic non-linearizable dequeue order. *)
let queue_order_violation () =
  let q = Fifo.spec () in
  let qcfg = Engine.for_spec q in
  let hist =
    h
      [
        inv 0 (Op.enq 1); res 0 Value.unit; inv 0 (Op.enq 2); res 0 Value.unit;
        inv 1 Op.deq; resi 1 2;
      ]
  in
  Alcotest.(check bool) "FIFO violated" false (Engine.linearizable qcfg hist);
  let hist =
    h
      [
        inv 0 (Op.enq 1); res 0 Value.unit; inv 0 (Op.enq 2); res 0 Value.unit;
        inv 1 Op.deq; resi 1 1;
      ]
  in
  Alcotest.(check bool) "FIFO respected" true (Engine.linearizable qcfg hist)

(* Nondeterministic type: any flip outcome is fine; states branch. *)
let nondeterministic_ok () =
  let coin = Nd_coin.spec () in
  let ccfg = Engine.for_spec coin in
  let hist =
    h [ inv 0 Nd_coin.flip; resi 0 1; inv 1 Nd_coin.flip; resi 1 0 ]
  in
  Alcotest.(check bool) "coin histories linearizable" true
    (Engine.linearizable ccfg hist);
  let hist = h [ inv 0 Nd_coin.flip; resi 0 2 ] in
  Alcotest.(check bool) "illegal coin value" false
    (Engine.linearizable ccfg hist)

(* Multi-object histories. *)
let multi_object () =
  let spec_of_obj = function
    | 0 -> reg
    | 1 -> fai
    | _ -> invalid_arg "unknown object"
  in
  let cfg = Engine.config spec_of_obj in
  let hist =
    h
      [
        inv ~obj:0 0 (Op.write 1); res ~obj:0 0 Value.unit;
        inv ~obj:1 1 Op.fetch_inc; res ~obj:1 1 (Value.int 0);
        inv ~obj:0 1 Op.read; res ~obj:0 1 (Value.int 1);
      ]
  in
  Alcotest.(check bool) "multi-object linearizable" true
    (Engine.linearizable cfg hist);
  let hist =
    h
      [
        inv ~obj:0 0 (Op.write 1); res ~obj:0 0 Value.unit;
        inv ~obj:0 1 Op.read; res ~obj:0 1 (Value.int 0);
        inv ~obj:1 1 Op.fetch_inc; res ~obj:1 1 (Value.int 0);
      ]
  in
  Alcotest.(check bool) "violation in one object dooms the whole" false
    (Engine.linearizable cfg hist)

(* Witness reconstruction. *)
let witness_is_legal () =
  let hist =
    h [ inv 0 (Op.write 1); inv 1 Op.read; resi 1 1; res 0 Value.unit ]
  in
  match Engine.witness rcfg hist ~t:0 with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
    let behaviour = List.map (fun ((o : Operation.t), r) -> (o.Operation.op, r)) w in
    Alcotest.(check bool) "witness legal" true (Legal.is_legal reg behaviour);
    Alcotest.(check int) "witness covers completed ops" 2 (List.length w)

let witness_none_when_unlinearizable () =
  let hist = h [ inv 0 Op.read; resi 0 7 ] in
  Alcotest.(check bool) "no witness" true
    (Engine.witness rcfg hist ~t:0 = None)

(* Node budget. *)
let budget_respected () =
  let cfg = Engine.for_spec ~node_budget:1 fai in
  let hist = paper_fai_family 5 in
  Alcotest.(check bool) "budget raises" true
    (match Engine.t_linearizable cfg hist ~t:0 with
    | exception Engine.Budget_exceeded -> true
    | _ -> false)

(* Regression: witness must honor the node budget exactly like search
   (it used to explore the whole tree unbounded). *)
let witness_honors_budget () =
  let hist = paper_fai_family 5 in
  let cfg = Engine.for_spec ~node_budget:1 fai in
  Alcotest.(check bool) "search raises" true
    (match Engine.t_linearizable cfg hist ~t:0 with
    | exception Engine.Budget_exceeded -> true
    | _ -> false);
  Alcotest.(check bool) "witness raises on the same budget" true
    (match Engine.witness cfg hist ~t:0 with
    | exception Engine.Budget_exceeded -> true
    | _ -> false);
  (* Both run the identical tree: a budget covering search's
     exploration also covers witness reconstruction. *)
  let t = History.length hist in
  let nodes = (Engine.search fcfg hist ~t).Engine.nodes_explored in
  let cfg = Engine.for_spec ~node_budget:nodes fai in
  Alcotest.(check bool) "witness fits search's node count" true
    (Engine.witness cfg hist ~t <> None)

(* The unsatisfiable pending-writes family again, as a budget
   discriminator: within the memoized node count, a memoized witness
   search refutes cleanly while a memo-free one must blow the budget —
   so witness observably honors [memoize] too. *)
let witness_honors_memoize () =
  let k = 6 in
  let reg_k = Register.spec ~domain:(List.init k (fun i -> i + 1)) () in
  let events =
    List.init k (fun i -> inv (i + 1) (Op.write (i + 1)))
    @ List.concat_map
        (fun i -> [ inv 0 Op.read; resi 0 (i + 1) ])
        (List.init k (fun i -> i))
    @ [ inv 0 Op.read; resi 0 1 ]
  in
  let hist = h events in
  let memo_nodes =
    (Engine.search (Engine.for_spec reg_k) hist ~t:0).Engine.nodes_explored
  in
  let with_memo = Engine.for_spec ~node_budget:memo_nodes reg_k in
  Alcotest.(check bool) "memoized witness refutes within budget" true
    (Engine.witness with_memo hist ~t:0 = None);
  let no_memo = Engine.for_spec ~node_budget:memo_nodes ~memoize:false reg_k in
  Alcotest.(check bool) "memo-free witness exceeds the same budget" true
    (match Engine.witness no_memo hist ~t:0 with
    | exception Engine.Budget_exceeded -> true
    | _ -> false)

(* The two historically distinct budget exceptions are now one: a raise
   from the weak-consistency checker is caught by a handler naming the
   engine's exception (and by the kernel's). *)
let unified_budget_exception () =
  let hist = paper_fai_family 4 in
  let wcfg = Weak.for_spec ~node_budget:1 fai in
  Alcotest.(check bool) "Weak raise caught as Engine.Budget_exceeded" true
    (match Weak.is_weakly_consistent wcfg hist with
    | exception Engine.Budget_exceeded -> true
    | _ -> false);
  Alcotest.(check bool) "Weak raise caught as Budget.Exceeded" true
    (match Weak.is_weakly_consistent wcfg hist with
    | exception Elin_kernel.Budget.Exceeded -> true
    | _ -> false);
  Alcotest.(check bool) "Engine raise caught as Weak.Budget_exceeded" true
    (match
       Engine.t_linearizable (Engine.for_spec ~node_budget:1 fai) hist ~t:0
     with
    | exception Weak.Budget_exceeded -> true
    | _ -> false)

let memo_hits_counted () =
  let k = 6 in
  let reg_k = Register.spec ~domain:(List.init k (fun i -> i + 1)) () in
  let events =
    List.init k (fun i -> inv (i + 1) (Op.write (i + 1)))
    @ List.concat_map
        (fun i -> [ inv 0 Op.read; resi 0 (i + 1) ])
        (List.init k (fun i -> i))
    @ [ inv 0 Op.read; resi 0 1 ]
  in
  let hist = h events in
  let v = Engine.search (Engine.for_spec reg_k) hist ~t:0 in
  Alcotest.(check bool) "memo hits on refutation-heavy family" true
    (v.Engine.memo_hits > 0);
  let v' = Engine.search (Engine.for_spec ~memoize:false reg_k) hist ~t:0 in
  Alcotest.(check int) "no hits with memo off" 0 v'.Engine.memo_hits;
  Alcotest.(check bool) "memo explores strictly less" true
    (v.Engine.nodes_explored < v'.Engine.nodes_explored)

(* Object slots follow ascending object ids, whatever order the
   objects first appear in: [?init] vectors are indexed that way. *)
let object_slots_ascending () =
  let hist =
    h
      [
        inv ~obj:5 0 (Op.write 1);
        res ~obj:5 0 Value.unit;
        inv ~obj:2 1 Op.read;
        resi ~obj:2 1 0;
        inv ~obj:9 0 Op.read;
        inv ~obj:2 1 (Op.write 3);
      ]
  in
  let objs, slot = Engine.object_slots (History.ops_array hist) in
  Alcotest.(check (array int)) "objs" [| 2; 5; 9 |] objs;
  Alcotest.(check (list int)) "History.objs order" (History.objs hist)
    (Array.to_list objs);
  Alcotest.(check (array int)) "slots" [| 1; 0; 2; 0 |] slot

(* The first 50 histories of test_checker_pins' svc_check-shaped
   family (seed 1, 4 processes, 10 + 10 fetch&inc operations). *)
let svc_check_shaped () =
  let rng = Elin_kernel.Prng.create 1 in
  List.init 50 (fun _ ->
      fst
        (Gen.eventually_linearizable rng ~spec:fai ~procs:4 ~prefix_ops:10
           ~suffix_ops:10 ()))

(* Summed nodes and memo hits of the min_t gallops of [hists]. *)
let gallop_counts cfg hists =
  List.fold_left
    (fun (nodes, hits) h ->
      let st = snd (Eventual.min_t_stats cfg h) in
      (nodes + st.Eventual.nodes, hits + st.Eventual.memo_hits))
    (0, 0) hists

(* The model checker runs one check per leaf (122 158 of them on
   fai/board 2x4 d26), so a small history's check must stay in the
   minor heap.  A memo created at 1 024 buckets put 1 025 words
   straight into the major heap on every call. *)
let no_major_allocation_per_check () =
  let rng = Elin_kernel.Prng.create 0xa110c in
  let hists =
    List.init 1000 (fun _ ->
        Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 ())
  in
  let prepared = List.map (Engine.prepare fcfg) hists in
  let per_call what f =
    let words = Support.direct_major_words f /. 1000. in
    if words >= 1. then
      Alcotest.failf "%s: %.2f words allocated in the major heap per call" what
        words
  in
  per_call "Engine.linearizable" (fun () ->
      List.iter (fun h -> assert (Engine.linearizable fcfg h)) hists);
  per_call "Engine.final_states" (fun () ->
      List.iter
        (fun p -> assert (snd (Engine.final_states p)).Engine.ok)
        prepared)

(* A min_t gallop probes about ten cuts, and a long probe grows its
   memo past the 256 words the minor heap takes: when every probe
   built its own table from 16 slots, the 50 histories below put
   12 735 words per history straight in the major heap (dev profile).
   Runs now borrow their domain's spare table, which the warm-up pass
   grows, so the timed pass regrows nothing. *)
let no_major_allocation_per_gallop () =
  let hists = svc_check_shaped () in
  let pass () = ignore (gallop_counts fcfg hists) in
  pass ();
  let words = Support.direct_major_words pass /. 50. in
  if words >= 1. then
    Alcotest.failf "%.1f words allocated in the major heap per min_t gallop"
      words

(* Minor-heap words per DFS node of [Eventual.min_t_stats] on 50
   svc_check-shaped histories (the first 50 of test_checker_pins'
   family), per 8-op [Engine.linearizable] check (the model checker's
   leaf check, prepare included), and per 8-op check given an all-zero
   hint array, as [Decompose]'s first probe is, each after a warm-up
   pass.  A node expansion allocates nothing (a deterministic spec is
   read through [response] and [next], with no transition list), a
   run whose hints are all 0 builds no scan permutation, and a run
   borrows its domain's memo table, which the warm-up pass grew, so
   what remains is the per-run cut tables and closures.  This build
   ([dune runtest], dev profile) reads 1.5 words per node, 190.9 per
   check and 207.9 per hinted check (the hint array included),
   against 6.5, 225.9 and 242.9 while every run built its own memo
   from 16 slots, 34.8 and 286.4 while [Spec.apply]'s lists were
   built, 200.6 and 940.3 before the placed set and the memo went in
   place, and 369.8 per hinted check while hints came with a per-run
   scan order; the bounds leave about 15 % headroom. *)
let checker_minor_words () =
  let words_per f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    let units = f () in
    (Gc.minor_words () -. w0) /. float_of_int units
  in
  let hists = svc_check_shaped () in
  let per_node = words_per (fun () -> fst (gallop_counts fcfg hists)) in
  let rng = Elin_kernel.Prng.create 0xa110c in
  let small =
    List.init 1000 (fun _ ->
        Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 ())
  in
  let per_check =
    words_per (fun () ->
        List.iter (fun h -> assert (Engine.linearizable fcfg h)) small;
        1000)
  in
  let per_hinted_check =
    words_per (fun () ->
        List.iter
          (fun h ->
            let hint = Array.make (History.n_ops h) 0 in
            let p = Engine.prepare fcfg h in
            assert (Engine.check_at ~hint p ~t:0).Engine.ok)
          small;
        1000)
  in
  if per_node >= 1.75 then
    Alcotest.failf "%.2f minor words per DFS node (bound 1.75)" per_node;
  if per_check >= 220. then
    Alcotest.failf "%.1f minor words per 8-op check (bound 220)" per_check;
  if per_hinted_check >= 240. then
    Alcotest.failf "%.1f minor words per hinted 8-op check (bound 240)"
      per_hinted_check

(* Minor-heap words per state of the model checker's work outside the
   leaf check (successors, fingerprints, dedup, routing): fai/board
   2x3 d22 at one domain, where the search runs on the calling domain,
   and [count_states] checks no leaf.  This build ([dune runtest],
   compiled -opaque) reads 135.5; the bound leaves about 10 %
   headroom.  A release build allocates less (inlined threaded
   absorbers), so the figure is specific to this profile. *)
let mc_minor_words_per_state () =
  let open Elin_mc in
  let impl = Elin_runtime.Impls.fai_from_board () in
  let workloads =
    Elin_runtime.Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3
  in
  let run () = Mc.count_states impl ~workloads ~max_steps:22 ~domains:1 () in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let stats = run () in
  let words = (Gc.minor_words () -. w0) /. float_of_int stats.Search.states in
  Alcotest.(check int) "states" 23_951 stats.Search.states;
  if words >= 150. then
    Alcotest.failf "%.1f minor words per state (bound 150)" words

(* --- Runs borrow their domain's memo table ------------------------ *)

(* [n] pending fetch&inc calls beside one completed call whose
   response (1 000) no order allows: the DFS at t = 0 fails on every
   subset of the pending calls, so it explores 2^n nodes and keeps
   2^n failure keys. *)
let pending_fai n =
  h
    (List.init n (fun i -> inv (i + 1) Op.fetch_inc)
    @ [ inv 0 Op.fetch_inc; resi 0 1000 ])

let counts v = (v.Engine.nodes_explored, v.Engine.memo_hits)

(* A run started from another run's [poll] hook finds its domain's
   spare lent out and builds its own table: the inner gallops read the
   isolated counts, and the outer ones, whose memo the inner runs
   would otherwise empty or fill, do too. *)
let borrow_nested_run () =
  let hists = svc_check_shaped () in
  let isolated = gallop_counts fcfg hists in
  let inner = List.nth hists 7 in
  let inner_isolated = gallop_counts fcfg [ inner ] in
  let inner_runs = ref 0 in
  let poll () =
    incr inner_runs;
    Alcotest.(check (pair int int))
      "inner gallop" inner_isolated
      (gallop_counts fcfg [ inner ])
  in
  Alcotest.(check (pair int int))
    "outer gallops" isolated
    (gallop_counts (Engine.for_spec ~poll fai) hists);
  Alcotest.(check bool) "inner runs started" true (!inner_runs > 0)

(* Two systhreads on one domain, each yielding to the other from its
   runs' [poll] hook, so each holds a run open while the other starts
   one: both read the isolated counts. *)
let borrow_systhreads () =
  let hists = svc_check_shaped () in
  let isolated = gallop_counts fcfg hists in
  let last = ref (-1) and switches = ref 0 in
  let poll me () =
    if !last <> me then incr switches;
    last := me;
    Thread.yield ()
  in
  let got = Array.make 2 (0, 0) in
  let run me =
    got.(me) <- gallop_counts (Engine.for_spec ~poll:(poll me) fai) hists
  in
  let threads = List.init 2 (fun me -> Thread.create run me) in
  List.iter Thread.join threads;
  Alcotest.(check (pair int int)) "thread 0" isolated got.(0);
  Alcotest.(check (pair int int)) "thread 1" isolated got.(1);
  Alcotest.(check bool) "runs interleaved" true (!switches > 2)

(* A run that raises still gives its table back, emptied: the same
   search afterwards reads the isolated counts, not fewer nodes from
   the failures the cut-short run left behind. *)
let borrow_after_budget_exceeded () =
  let hist = pending_fai 10 in
  let isolated = counts (Engine.search fcfg hist ~t:0) in
  Alcotest.(check bool) "cut short" true
    (match Engine.search (Engine.for_spec ~node_budget:600 fai) hist ~t:0 with
    | exception Engine.Budget_exceeded -> true
    | _ -> false);
  Alcotest.(check (pair int int))
    "next run" isolated
    (counts (Engine.search fcfg hist ~t:0))

(* A table is kept up to 4 096 slots (2 048 keys): one grown past that
   is dropped, so a costly job leaves no table on its domain. *)
let borrow_retention_bound () =
  let v = Engine.search fcfg (pending_fai 11) ~t:0 in
  Alcotest.(check int) "2 048 keys" 2048 v.Engine.nodes_explored;
  Alcotest.(check int) "kept at the bound" 4096 (Memo_key.spare_slots ());
  let v = Engine.search fcfg (pending_fai 12) ~t:0 in
  Alcotest.(check int) "4 096 keys" 4096 v.Engine.nodes_explored;
  Alcotest.(check int) "dropped past it" 0 (Memo_key.spare_slots ());
  ignore (Engine.search fcfg (pending_fai 2) ~t:0);
  Alcotest.(check int) "a fresh table kept" 16 (Memo_key.spare_slots ())

(* Property: generated linearizable histories always pass. *)
let generated_pass =
  Support.seeded_prop ~count:100 "generated histories linearizable" (fun rng ->
      let h = Gen.linearizable rng ~spec:fai ~procs:3 ~n_ops:7 () in
      Engine.linearizable fcfg h)

(* The adversarial refutation family from the A1 ablation: k concurrent
   pending writes and an unsatisfiable read sequence.  Exercises deep
   backtracking with memoization. *)
let pending_writes_refuted () =
  let k = 7 in
  let reg_k = Register.spec ~domain:(List.init k (fun i -> i + 1)) () in
  let events =
    List.init k (fun i -> inv (i + 1) (Op.write (i + 1)))
    @ List.concat_map
        (fun i -> [ inv 0 Op.read; resi 0 (i + 1) ])
        (List.init k (fun i -> i))
    @ [ inv 0 Op.read; resi 0 1 ]
  in
  let hist = h events in
  Alcotest.(check bool) "refuted" false
    (Engine.linearizable (Engine.for_spec reg_k) hist);
  (* The satisfiable variant (final read repeats the last value). *)
  let events_sat =
    List.init k (fun i -> inv (i + 1) (Op.write (i + 1)))
    @ List.concat_map
        (fun i -> [ inv 0 Op.read; resi 0 (i + 1) ])
        (List.init k (fun i -> i))
    @ [ inv 0 Op.read; resi 0 k ]
  in
  Alcotest.(check bool) "satisfiable variant accepted" true
    (Engine.linearizable (Engine.for_spec reg_k) (h events_sat))

(* Witness validity: whenever the engine accepts, its reconstructed
   witness satisfies all four Definition 2 conditions. *)
let witness_valid =
  Support.seeded_prop ~count:80 "witnesses satisfy Definition 2" (fun rng ->
      let h =
        match Elin_kernel.Prng.int rng 2 with
        | 0 -> Gen.linearizable rng ~spec:fai ~procs:3 ~n_ops:6 ()
        | _ ->
          fst
            (Gen.eventually_linearizable rng ~spec:fai ~procs:2 ~prefix_ops:2
               ~suffix_ops:3 ())
      in
      let t = Option.value ~default:0 (Eventual.min_t fcfg h) in
      match Engine.witness fcfg h ~t with
      | None -> false
      | Some w ->
        (* legal *)
        let behaviour =
          List.map (fun ((o : Operation.t), r) -> (o.Operation.op, r)) w
        in
        Legal.is_legal fai behaviour
        (* completed ops covered *)
        && List.for_all
             (fun (o : Operation.t) ->
               List.exists
                 (fun ((o' : Operation.t), _) -> o'.Operation.id = o.Operation.id)
                 w)
             (History.complete_ops h)
        (* responses after the cut preserved *)
        && List.for_all
             (fun ((o : Operation.t), r) ->
               match o.Operation.resp with
               | Some (v, ri) when ri >= t -> Value.equal v r
               | Some _ | None -> true)
             w
        (* real-time order among surviving pairs *)
        &&
        let pos id =
          let rec go i = function
            | [] -> None
            | ((o : Operation.t), _) :: rest ->
              if o.Operation.id = id then Some i else go (i + 1) rest
          in
          go 0 w
        in
        List.for_all
          (fun (o1 : Operation.t) ->
            match o1.Operation.resp with
            | Some (_, r1) when r1 >= t ->
              List.for_all
                (fun (o2 : Operation.t) ->
                  if o2.Operation.inv >= t && r1 < o2.Operation.inv then
                    match pos o1.Operation.id, pos o2.Operation.id with
                    | Some p1, Some p2 -> p1 < p2
                    | _, None -> true
                    | None, Some _ -> false
                  else true)
                (History.ops h)
            | Some _ | None -> true)
          (History.ops h))

(* [check_at] takes one hint score per operation and rejects any other
   length before it searches. *)
let hint_length_checked () =
  let hist = paper_fai_family 3 in
  let p = Engine.prepare fcfg hist and n = History.n_ops hist in
  List.iter
    (fun len ->
      Alcotest.check_raises
        (Printf.sprintf "hint of %d scores for %d operations" len n)
        (Invalid_argument
           "Engine.check_at: hint length is not the operation count")
        (fun () -> ignore (Engine.check_at ~hint:(Array.make len 1) p ~t:0)))
    [ 0; n - 1; n + 1 ];
  Alcotest.(check bool) "hint of n scores" false
    (Engine.check_at ~hint:(Array.make n 1) p ~t:0).Engine.ok

let verdict_counts_nodes () =
  let hist = paper_fai_family 3 in
  let v = Engine.search fcfg hist ~t:0 in
  Alcotest.(check bool) "nodes counted" true (v.Engine.nodes_explored > 0);
  Alcotest.(check bool) "not linearizable" false v.Engine.ok

let () =
  Alcotest.run "engine"
    [
      ( "register",
        [
          Support.quick "empty" empty_history;
          Support.quick "sequential legal" sequential_legal;
          Support.quick "sequential illegal" sequential_illegal;
          Support.quick "overlap orders" overlapping_either_order;
          Support.quick "real time" real_time_respected;
          Support.quick "thin air" out_of_thin_air;
        ] );
      ( "pending",
        [
          Support.quick "pending write effects" pending_write_takes_effect;
          Support.quick "pending write dropped" pending_op_may_be_dropped;
        ] );
      ( "types",
        [
          Support.quick "fai duplicates" fai_duplicate_values;
          Support.quick "fai gaps" fai_gap_requires_pending;
          Support.quick "queue order" queue_order_violation;
          Support.quick "nondeterministic" nondeterministic_ok;
          Support.quick "multi-object" multi_object;
          Support.quick "object slots ascending" object_slots_ascending;
        ] );
      ( "witness",
        [
          Support.quick "legal witness" witness_is_legal;
          Support.quick "no witness" witness_none_when_unlinearizable;
        ] );
      ( "mechanics",
        [
          Support.quick "budget" budget_respected;
          Support.quick "witness honors budget" witness_honors_budget;
          Support.quick "witness honors memoize" witness_honors_memoize;
          Support.quick "unified budget exception" unified_budget_exception;
          Support.quick "memo hits" memo_hits_counted;
          Support.quick "verdict stats" verdict_counts_nodes;
          Support.quick "no major-heap allocation per check"
            no_major_allocation_per_check;
          Support.quick "mc minor words per state" mc_minor_words_per_state;
          Support.quick "no major-heap allocation per gallop"
            no_major_allocation_per_gallop;
          Support.quick "checker minor words per node" checker_minor_words;
          Support.quick "pending-writes family" pending_writes_refuted;
          generated_pass;
          witness_valid;
          Support.quick "hint length checked" hint_length_checked;
        ] );
      ( "memo borrow",
        [
          Support.quick "nested run" borrow_nested_run;
          Support.quick "systhreads on one domain" borrow_systhreads;
          Support.quick "after Budget_exceeded" borrow_after_budget_exceeded;
          Support.quick "retention bound" borrow_retention_bound;
        ] );
    ]
