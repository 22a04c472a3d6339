(** Checker count pins: constants recorded once and never re-recorded.

    The svc goldens, the decomposed goldens and the B4/B11 baselines
    carry the DFS's node counts and memo hits, so any change to the
    engine's scan order, hint bumps, dead-node rejection, memo or
    budget cadence must leave every value below bit-identical.  Each
    family draws its histories in sequence from its own fresh
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

let min_t_totals cfg hists =
  List.fold_left
    (fun (sum_t, cuts, nodes, hits) h ->
      let mt, s = Eventual.min_t_stats cfg h in
      ( sum_t + Option.get mt,
        cuts + s.Eventual.cuts_probed,
        nodes + s.Eventual.nodes,
        hits + s.Eventual.memo_hits ))
    (0, 0, 0, 0) hists

let check_min_t name cfg hists ~sum_t ~cuts ~nodes ~hits =
  let sum_t', cuts', nodes', hits' = min_t_totals cfg hists in
  check_int (name ^ ": sum of min_t") ~want:sum_t sum_t';
  check_int (name ^ ": cuts probed") ~want:cuts cuts';
  check_int (name ^ ": nodes") ~want:nodes nodes';
  check_int (name ^ ": memo hits") ~want:hits hits'

let min_t_history_order () =
  check_min_t "`History" (Engine.for_spec fai) (svc_check_shaped ())
    ~sum_t:5_133 ~cuts:3_104 ~nodes:484_783 ~hits:1_076_672

let min_t_smart_order () =
  check_min_t "`Smart"
    (Engine.for_spec ~order:`Smart fai)
    (svc_check_shaped ()) ~sum_t:5_133 ~cuts:3_104 ~nodes:491_595
    ~hits:1_098_899

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

let min_t_three_word_smart () =
  check_min_t "`Smart"
    (Engine.for_spec ~order:`Smart fai)
    (three_word ()) ~sum_t:339 ~cuts:208 ~nodes:42_037 ~hits:74_176

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
          Support.quick "min_t svc_check-shaped `Smart" min_t_smart_order;
          Support.quick "final_states with pending" final_states_with_pending;
          Support.quick "min_t 66 ops" min_t_two_word;
          Support.quick "search 70 ops" search_two_word;
          Support.quick "min_t 130-180 ops `History" min_t_three_word_history;
          Support.quick "min_t 130-180 ops `Smart" min_t_three_word_smart;
        ] );
    ]
