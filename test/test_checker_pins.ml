(** Checker count pins: constants recorded once and never re-recorded.

    The svc goldens, the decomposed goldens and the B4/B11 baselines
    carry the DFS's node counts and memo hits, so any change to the
    engine's scan order, hint order and bumps, memo or budget cadence
    must leave every value below bit-identical.  The hinted pins
    thread one hint array through each history's gallop, as
    [Decompose] does, and the decomposed pin runs [Decompose] itself.
    Each family draws its histories in sequence from its own fresh
    [Prng.create seed]; a pin is the family's summed counts. *)

open Elin_spec
open Elin_history
open Elin_checker
open Elin_test_support

let fai = Faicounter.spec ()

let draw seed count gen =
  let rng = Elin_kernel.Prng.create seed in
  List.init count (fun _ -> gen rng)

let check_int what ~want got = Alcotest.(check int) what want got

(* 300 histories shaped like perfbench's svc_check jobs. *)
let svc_check_shaped () =
  draw 1 300 (fun rng ->
      fst
        (Gen.eventually_linearizable rng ~spec:fai ~procs:4 ~prefix_ops:10
           ~suffix_ops:10 ()))

let min_t_totals ?(stats = Eventual.min_t_stats) cfg hists =
  List.fold_left
    (fun (sum_t, cuts, nodes, hits) h ->
      let mt, s = stats cfg h in
      ( sum_t + Option.get mt,
        cuts + s.Eventual.cuts_probed,
        nodes + s.Eventual.nodes,
        hits + s.Eventual.memo_hits ))
    (0, 0, 0, 0) hists

let check_min_t ?stats name cfg hists ~sum_t ~cuts ~nodes ~hits =
  let sum_t', cuts', nodes', hits' = min_t_totals ?stats cfg hists in
  check_int (name ^ ": sum of min_t") ~want:sum_t sum_t';
  check_int (name ^ ": cuts probed") ~want:cuts cuts';
  check_int (name ^ ": nodes") ~want:nodes nodes';
  check_int (name ^ ": memo hits") ~want:hits hits'

(* The gallop with one zero-initialised hint array per history,
   threaded through every probe as [Decompose] threads it. *)
let hinted_min_t_stats cfg h =
  let p = Engine.prepare cfg h in
  let hint = Array.make (History.n_ops h) 0 in
  let cuts = ref 0 and nodes = ref 0 and hits = ref 0 in
  let mt =
    Eventual.min_t_search
      (fun t ->
        let v = Engine.check_at ~hint p ~t in
        incr cuts;
        nodes := !nodes + v.Engine.nodes_explored;
        hits := !hits + v.Engine.memo_hits;
        v.Engine.ok)
      ~len:(Engine.history_length p)
  in
  (mt, { Eventual.cuts_probed = !cuts; nodes = !nodes; memo_hits = !hits })

let min_t_history_order () =
  check_min_t "`History" (Engine.for_spec fai) (svc_check_shaped ())
    ~sum_t:5_133 ~cuts:3_104 ~nodes:484_783 ~hits:1_076_672

let min_t_hinted () =
  check_min_t ~stats:hinted_min_t_stats "hinted"
    (Engine.for_spec fai)
    (svc_check_shaped ()) ~sum_t:5_133 ~cuts:3_104 ~nodes:356_520
    ~hits:768_853

let final_states_with_pending () =
  let hists =
    draw 3 200 (fun rng ->
        Gen.linearizable_with_pending rng ~spec:fai ~procs:3 ~n_ops:8 ())
  in
  let states, nodes, hits =
    List.fold_left
      (fun (states, nodes, hits) h ->
        let finals, v =
          Engine.final_states (Engine.prepare (Engine.for_spec fai) h)
        in
        ( states + List.length finals,
          nodes + v.Engine.nodes_explored,
          hits + v.Engine.memo_hits ))
      (0, 0, 0) hists
  in
  check_int "states" ~want:383 states;
  check_int "nodes" ~want:2_299 nodes;
  check_int "memo hits" ~want:201 hits

(* 66 operations: the placed set spans two words. *)
let min_t_two_word () =
  let hists =
    draw 7 20 (fun rng ->
        fst
          (Gen.eventually_linearizable rng ~spec:fai ~procs:3 ~prefix_ops:6
             ~suffix_ops:60 ()))
  in
  let sum_t, _, nodes, hits = min_t_totals (Engine.for_spec fai) hists in
  check_int "sum of min_t" ~want:171 sum_t;
  check_int "nodes" ~want:5_394 nodes;
  check_int "memo hits" ~want:1_218 hits

(* 130-180 operations: the placed and ready sets span three words, so
   the scans cross two 62-bit word boundaries. *)
let three_word () =
  draw 11 20 (fun rng ->
      let n_ops = 130 + Elin_kernel.Prng.int rng 51 in
      fst
        (Gen.eventually_linearizable rng ~spec:fai ~procs:4 ~prefix_ops:10
           ~suffix_ops:(n_ops - 10) ()))

let min_t_three_word_history () =
  check_min_t "`History" (Engine.for_spec fai) (three_word ()) ~sum_t:339
    ~cuts:208 ~nodes:41_586 ~hits:72_455

let min_t_three_word_hinted () =
  check_min_t ~stats:hinted_min_t_stats "hinted"
    (Engine.for_spec fai)
    (three_word ()) ~sum_t:339 ~cuts:208 ~nodes:32_336 ~hits:49_556

(* [Decompose.min_t_stats] on mixed register/fetch&increment histories
   of one to four objects: per-object gallops with hint arrays, gap
   cuts at t = 0. *)
let decomposed_mixed () =
  let reg = Register.spec () in
  let spec_of_obj o = if o mod 2 = 0 then reg else fai in
  let dcfg = Decompose.config spec_of_obj in
  let hists =
    draw 13 200 (fun rng ->
        let objs = 1 + Elin_kernel.Prng.int rng 4 in
        let per = 2 + Elin_kernel.Prng.int rng 3 in
        fst
          (Gen.mixed_eventual rng ~spec_of_obj ~objs ~procs:2 ~prefix_ops:per
             ~suffix_ops:per ()))
  in
  let sum_t, segments, fallbacks, cuts, nodes, hits =
    List.fold_left
      (fun (sum_t, segments, fallbacks, cuts, nodes, hits) h ->
        let mt, _, s = Decompose.min_t_stats dcfg h in
        ( sum_t + Option.get mt,
          segments + s.Decompose.gap_segments,
          fallbacks + s.Decompose.gap_fallbacks,
          cuts + s.Decompose.cuts_probed,
          nodes + s.Decompose.nodes,
          hits + s.Decompose.memo_hits ))
      (0, 0, 0, 0, 0, 0) hists
  in
  check_int "sum of min_t" ~want:1_650 sum_t;
  check_int "gap segments" ~want:1_797 segments;
  check_int "gap fallbacks" ~want:0 fallbacks;
  check_int "cuts probed" ~want:1_281 cuts;
  check_int "nodes" ~want:8_990 nodes;
  check_int "memo hits" ~want:365 hits

let search_two_word () =
  let hists =
    draw 7 20 (fun rng -> Gen.linearizable rng ~spec:fai ~procs:3 ~n_ops:70 ())
  in
  let ok, nodes, hits =
    List.fold_left
      (fun (ok, nodes, hits) h ->
        let v = Engine.search (Engine.for_spec fai) h ~t:0 in
        ( ok && v.Engine.ok,
          nodes + v.Engine.nodes_explored,
          hits + v.Engine.memo_hits ))
      (true, 0, 0) hists
  in
  Alcotest.(check bool) "all linearizable" true ok;
  check_int "nodes" ~want:1_420 nodes;
  check_int "memo hits" ~want:0 hits

let () =
  Alcotest.run "checker-pins"
    [
      ( "checker pins",
        [
          Support.quick "min_t svc_check-shaped `History" min_t_history_order;
          Support.quick "min_t svc_check-shaped hinted" min_t_hinted;
          Support.quick "final_states with pending" final_states_with_pending;
          Support.quick "min_t 66 ops" min_t_two_word;
          Support.quick "search 70 ops" search_two_word;
          Support.quick "min_t 130-180 ops `History" min_t_three_word_history;
          Support.quick "min_t 130-180 ops hinted" min_t_three_word_hinted;
          Support.quick "decomposed min_t mixed" decomposed_mixed;
        ] );
    ]
