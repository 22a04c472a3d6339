(** Tests for the parallel model-checking engine (lib/mc): determinism
    under parallelism (1/2/4 domains agree on state counts and on the
    lexicographically minimal counterexample), equivalence with the
    sequential [Explore] tree search, fingerprint collision smoke
    tests, dedup soundness (the reachable-history set is preserved),
    symmetry reduction, and the rewired users (valency analysis,
    Prop. 18 stability certificates). *)

open Elin_spec
open Elin_runtime
open Elin_explore
open Elin_checker
open Elin_mc
open Elin_test_support

let direct_fai () = Impl.of_spec (Faicounter.spec ())

let domain_counts = [ 1; 2; 4 ]

(* --- determinism under parallelism ------------------------------- *)

(* Trivial (communication-free) test&set: not linearizable — the
   engine must report the same two-winners counterexample whatever the
   domain count. *)
let tands_same_verdict_all_domains () =
  let impl = Elin_core.Ev_testandset.impl () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:1 in
  let cfg = Engine.for_spec (Testandset.spec ()) in
  let outs =
    List.map
      (fun domains ->
        Mc.check impl ~workloads:wl ~max_steps:12 ~domains (fun h ->
            Engine.linearizable cfg h))
      domain_counts
  in
  match outs with
  | first :: rest ->
    Alcotest.(check bool) "violation found" false first.Mc.ok;
    let cex =
      match first.Mc.counterexample with
      | Some h -> h
      | None -> Alcotest.fail "expected a counterexample"
    in
    Alcotest.(check bool) "counterexample violates" false
      (Engine.linearizable cfg cex);
    List.iteri
      (fun i out ->
        let name n = Printf.sprintf "%s (domains=%d)" n (List.nth domain_counts (i + 1)) in
        Alcotest.(check int) (name "states") first.Mc.stats.Search.states
          out.Mc.stats.Search.states;
        Alcotest.(check int) (name "leaves") first.Mc.stats.Search.leaves
          out.Mc.stats.Search.leaves;
        Alcotest.check Support.history (name "counterexample") cex
          (Option.get out.Mc.counterexample))
      rest
  | [] -> assert false

(* The minimal counterexample must also be minimal under the trace
   order, not merely some violation. *)
let tands_counterexample_is_minimal () =
  let impl = Elin_core.Ev_testandset.impl () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:1 in
  let cfg = Engine.for_spec (Testandset.spec ()) in
  let out =
    Mc.check impl ~workloads:wl ~max_steps:12 ~domains:2 (fun h ->
        Engine.linearizable cfg h)
  in
  let cex = Option.get out.Mc.counterexample in
  (* Collect every violating leaf by exhaustive enumeration and check
     none of equal-or-shallower depth precedes it lexicographically. *)
  let violations = ref [] in
  let _ =
    Explore.iter_leaves impl ~workloads:wl ~max_steps:12 (fun c ->
        let h = Explore.history c in
        if not (Engine.linearizable cfg h) then violations := h :: !violations)
  in
  Alcotest.(check bool) "explore also finds violations" true
    (!violations <> []);
  let min_len =
    List.fold_left
      (fun m h -> min m (Elin_history.History.length h))
      max_int !violations
  in
  let same_level =
    List.filter (fun h -> Elin_history.History.length h = min_len) !violations
  in
  (* BFS levels are steps, not events, but for this workload every
     leaf is a finished execution: the shallowest violating level
     contains exactly the shortest violating histories. *)
  List.iter
    (fun h ->
      Alcotest.(check bool) "lex-minimal among shallowest" true
        (Canon.compare_history cex h <= 0))
    same_level

(* The Figure-1 guard wrapped around the misbehaving board: engine
   verdict and state counts agree across domain counts, and with the
   sequential explorer's verdict. *)
let guard_agrees_with_explore () =
  let impl =
    Elin_core.Guard.wrap ~spec:(Faicounter.spec ()) (Impls.fai_ev_board ~k:8 ())
  in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:1 in
  let p h = Faic.t_linearizable h ~t:0 in
  let ok_explore, _, _ =
    Explore.for_all_histories impl ~workloads:wl ~max_steps:14 p
  in
  let outs =
    List.map
      (fun domains -> Mc.check impl ~workloads:wl ~max_steps:14 ~domains p)
      domain_counts
  in
  match outs with
  | first :: rest ->
    Alcotest.(check bool) "verdict matches explore" ok_explore first.Mc.ok;
    List.iter
      (fun out ->
        Alcotest.(check int) "states agree" first.Mc.stats.Search.states
          out.Mc.stats.Search.states;
        Alcotest.(check bool) "verdict agrees" first.Mc.ok out.Mc.ok;
        match first.Mc.counterexample, out.Mc.counterexample with
        | None, None -> ()
        | Some a, Some b -> Alcotest.check Support.history "same counterexample" a b
        | _ -> Alcotest.fail "counterexample presence differs")
      rest
  | [] -> assert false

(* --- equivalence with the sequential explorer -------------------- *)

(* With dedup and POR off, the BFS expands exactly the tree [Explore]
   walks. *)
let no_dedup_matches_explore_node_counts () =
  List.iter
    (fun (impl, per_proc, max_steps) ->
      let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
      let explore_stats =
        Explore.iter_leaves impl ~workloads:wl ~max_steps (fun _ -> ())
      in
      let stats =
        Mc.count_states impl ~workloads:wl ~max_steps ~domains:2 ~dedup:false
          ~por:false ()
      in
      Alcotest.(check int) "nodes" explore_stats.Explore.nodes
        stats.Search.states;
      Alcotest.(check int) "leaves" explore_stats.Explore.leaves
        stats.Search.leaves;
      Alcotest.(check int) "truncated" explore_stats.Explore.truncated
        stats.Search.cut)
    [
      (direct_fai (), 2, 16);
      (Impls.fai_from_board (), 1, 20);
      (Impls.fai_from_cas (), 2, 10) (* truncates: cut-leaf accounting *);
    ]

(* --- fingerprints ------------------------------------------------- *)

let fingerprint_collision_smoke () =
  let open Elin_kernel in
  let n = 100_000 in
  let seen = Hashtbl.create (2 * n) in
  let collisions = ref 0 in
  let record fp = if Hashtbl.mem seen fp then incr collisions else Hashtbl.add seen fp () in
  (* Distinct ints, pairs, and strings: ~3n distinct encodings. *)
  for i = 0 to n - 1 do
    record (Fingerprint.(finish (int (start ()) i)));
    record
      (Fingerprint.(finish (int (int (start ()) (i land 0xff)) (i lsr 8))));
    record (Fingerprint.(finish (string (start ()) (string_of_int i))))
  done;
  Alcotest.(check int) "no collisions" 0 !collisions

(* ~10^5 generated configurations: step through a real execution tree
   and fingerprint every node reached; distinct nodes (by canonical
   identity) must not collide.  We approximate "distinct" by the full
   history+state encoding differing, which holds for BFS nodes with
   dedup on: every kept node is new. *)
let fingerprint_distinct_configs () =
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
  (* POR off throughout: this test characterizes the raw state space
     (the reduced tree is ~8x smaller and generates no duplicates). *)
  let stats =
    Mc.count_states impl ~workloads:wl ~max_steps:22 ~domains:1 ~por:false ()
  in
  (* With dedup on, [states] counts exactly the distinct fingerprints
     inserted; re-running without dedup must expand at least as many
     nodes — if distinct states collided, dedup would drop real states
     and [states] would fall short of the true distinct count. *)
  let stats_nodedup =
    Mc.count_states impl ~workloads:wl ~max_steps:22 ~domains:1 ~dedup:false
      ~por:false ()
  in
  Alcotest.(check bool) "scale reached (~10^5 configs)" true
    (stats_nodedup.Search.states >= 100_000);
  Alcotest.(check bool) "dedup found duplicates" true
    (stats.Search.dedup_hits > 0);
  (* Leaf-history sets agree (collision-freedom witness: a collision
     between distinct states would lose some reachable history). *)
  let hs_dedup, _ =
    Mc.leaf_histories impl ~workloads:wl ~max_steps:22 ~por:false ()
  in
  let hs_plain, _ =
    Mc.leaf_histories impl ~workloads:wl ~max_steps:22 ~dedup:false ~por:false
      ()
  in
  Alcotest.(check int) "history sets equal" 0
    (List.compare Canon.compare_history hs_dedup hs_plain)

(* --- dedup soundness --------------------------------------------- *)

let dedup_preserves_reachable_histories () =
  List.iter
    (fun (impl, per_proc, max_steps) ->
      let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
      let with_dedup, stats =
        Mc.leaf_histories impl ~workloads:wl ~max_steps ~por:false ()
      in
      let without, _ =
        Mc.leaf_histories impl ~workloads:wl ~max_steps ~dedup:false ~por:false
          ()
      in
      (* The engine's own two modes agree... *)
      Alcotest.(check int) "dedup on = off" 0
        (List.compare Canon.compare_history with_dedup without);
      (* ...and match the sequential explorer's reachable set. *)
      let explore_set = ref [] in
      let _ =
        Explore.iter_leaves impl ~workloads:wl ~max_steps (fun c ->
            explore_set := Explore.history c :: !explore_set)
      in
      let explore_set =
        List.sort_uniq Canon.compare_history !explore_set
      in
      Alcotest.(check int) "matches explore" 0
        (List.compare Canon.compare_history with_dedup explore_set);
      Alcotest.(check bool) "dedup did work" true
        (stats.Search.dedup_hits > 0))
    [ (Impls.fai_from_board (), 1, 20); (direct_fai (), 2, 16) ]

(* --- symmetry reduction ------------------------------------------ *)

let symmetry_reduces_and_preserves_verdict () =
  let impl = direct_fai () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let plain = Mc.count_states impl ~workloads:wl ~max_steps:16 () in
  let sym = Mc.count_states impl ~workloads:wl ~max_steps:16 ~symmetry:true () in
  Alcotest.(check bool) "fewer states under symmetry" true
    (sym.Search.states < plain.Search.states);
  let out =
    Mc.check impl ~workloads:wl ~max_steps:16 ~symmetry:true (fun h ->
        Faic.t_linearizable h ~t:0)
  in
  Alcotest.(check bool) "linearizable (renaming-invariant predicate)" true
    out.Mc.ok

let symmetry_requires_identical_workloads () =
  let impl = direct_fai () in
  let wl = [| [ Op.fetch_inc ]; [ Op.fetch_inc; Op.fetch_inc ] |] in
  Alcotest.check_raises "asymmetric workloads rejected"
    (Invalid_argument "Mc: symmetry reduction requires identical workloads")
    (fun () ->
      ignore (Mc.count_states impl ~workloads:wl ~max_steps:8 ~symmetry:true ()))

(* --- partial-order reduction ------------------------------------- *)

(* The soundness gate: sleep-set POR must leave every observable —
   verdicts, reachable-history sets, and (under dedup) the explored
   state set itself — bit-identical, across domain counts.  Workloads
   cover write-heavy commuting accesses (board), a universal object
   (cas), the spec-direct implementation, and the adversarial
   eventually-linearizable board whose unstabilized accesses are
   step-sensitive (dependent with everything). *)
let por_preserves_histories () =
  List.iter
    (fun (impl, per_proc, max_steps) ->
      let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
      let base, base_stats =
        Mc.leaf_histories impl ~workloads:wl ~max_steps ~por:false ()
      in
      List.iter
        (fun domains ->
          List.iter
            (fun dedup ->
              let name n =
                Printf.sprintf "%s %s (domains=%d dedup=%b)" impl.Impl.name n
                  domains dedup
              in
              let hs, stats =
                Mc.leaf_histories impl ~workloads:wl ~max_steps ~domains ~dedup
                  ~por:true ()
              in
              Alcotest.(check int) (name "history sets equal") 0
                (List.compare Canon.compare_history base hs);
              (* Under dedup the reduction may only cut *redundant
                 generation* (dedup_hits): the distinct-state counts
                 are exactly those of the unreduced run. *)
              if dedup then begin
                Alcotest.(check int) (name "states")
                  base_stats.Search.states stats.Search.states;
                Alcotest.(check int) (name "kept") base_stats.Search.kept
                  stats.Search.kept;
                Alcotest.(check int) (name "leaves")
                  base_stats.Search.leaves stats.Search.leaves
              end)
            [ true; false ])
        domain_counts)
    [
      (Impls.fai_from_board (), 2, 16);
      (Impls.fai_from_cas (), 2, 10);
      (direct_fai (), 2, 14);
      (Impls.fai_ev_board ~k:2 (), 1, 14);
    ]

(* A failing predicate: the lex-minimal counterexample must survive
   the reduction unchanged (the violating history's state is still
   reached, at the same BFS level). *)
let por_preserves_counterexample () =
  let impl = Elin_core.Ev_testandset.impl () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:1 in
  let cfg = Engine.for_spec (Testandset.spec ()) in
  let p h = Engine.linearizable cfg h in
  let off = Mc.check impl ~workloads:wl ~max_steps:12 ~por:false p in
  Alcotest.(check bool) "violation found without por" false off.Mc.ok;
  List.iter
    (fun domains ->
      let on = Mc.check impl ~workloads:wl ~max_steps:12 ~domains ~por:true p in
      Alcotest.(check bool) "same verdict" off.Mc.ok on.Mc.ok;
      Alcotest.check Support.history "same lex-min counterexample"
        (Option.get off.Mc.counterexample)
        (Option.get on.Mc.counterexample))
    domain_counts

(* The perf gate (EXPERIMENTS.md §B6): in tree mode (no dedup) the
   reduction must cut the explored node count at least in half on the
   wait-free board fetch&inc.  On this workload sleep sets in fact
   achieve the perfect trace quotient: one tree node per distinct
   state — por-tree nodes = dedup distinct states, and under
   por+dedup nothing is left for dedup to catch. *)
let por_tree_reduction () =
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  let run ~dedup ~por =
    Mc.count_states impl ~workloads:wl ~max_steps:20 ~domains:2 ~dedup ~por ()
  in
  let tree = run ~dedup:false ~por:false in
  let por_tree = run ~dedup:false ~por:true in
  let dedup = run ~dedup:true ~por:false in
  let por_dedup = run ~dedup:true ~por:true in
  Alcotest.(check bool) ">= 2x fewer tree states" true
    (2 * por_tree.Search.states <= tree.Search.states);
  Alcotest.(check bool) "pruning counted" true (por_tree.Search.pruned > 0);
  Alcotest.(check int) "perfect trace quotient" dedup.Search.states
    por_tree.Search.states;
  Alcotest.(check int) "por+dedup states" dedup.Search.states
    por_dedup.Search.states;
  Alcotest.(check int) "por+dedup: nothing left to dedup" 0
    por_dedup.Search.dedup_hits;
  Alcotest.(check int) "pruned = old dedup hits" dedup.Search.dedup_hits
    por_dedup.Search.pruned

(* E9: the valency engine's decision sets and (dedup) state counts are
   por-invariant, for both a correct and a broken protocol. *)
let por_valency_gate () =
  let open Elin_valency in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let cmp a b = List.compare Value.compare (Array.to_list a) (Array.to_list b) in
  let norm ds = List.sort_uniq cmp ds in
  let off =
    Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20
      ~domains:1 ~por:false ()
  in
  List.iter
    (fun domains ->
      let on =
        Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20
          ~domains ~por:true ()
      in
      let name n = Printf.sprintf "%s (domains=%d)" n domains in
      Alcotest.(check int) (name "decision sets equal") 0
        (List.compare cmp
           (norm off.Mc_valency.decisions)
           (norm on.Mc_valency.decisions));
      Alcotest.(check int) (name "states equal")
        off.Mc_valency.stats.Search.states on.Mc_valency.stats.Search.states;
      Alcotest.(check bool) (name "terminated") off.Mc_valency.terminated
        on.Mc_valency.terminated)
    domain_counts;
  let p = Protocols.registers_plus_ev_testandset ~stabilize_at:1000 () in
  let on = Mc_valency.check_consensus p ~inputs ~max_steps:30 ~por:true () in
  let off = Mc_valency.check_consensus p ~inputs ~max_steps:30 ~por:false () in
  Alcotest.(check bool) "por still finds disagreement" true
    (on.Mc_valency.agreement_violation <> None);
  Alcotest.(check int) "same decision sets on broken protocol" 0
    (List.compare cmp
       (norm off.Mc_valency.decisions)
       (norm on.Mc_valency.decisions));
  (* Threshold crossing: with a small stabilize-at the ev test&set
     flips from step-sensitive to stable mid-run, the regime where a
     valency decision step must NOT commute with a step-sensitive
     access (the decision still advances the global step counter).
     k = 3 stabilizes just before the adversary reaches the test&set
     (agreement holds), k = 4 just after (disagreement) — the
     reduction must agree with the full search on both sides. *)
  List.iter
    (fun k ->
      let p = Protocols.registers_plus_ev_testandset ~stabilize_at:k () in
      let on = Mc_valency.check_consensus p ~inputs ~max_steps:30 ~por:true () in
      let off =
        Mc_valency.check_consensus p ~inputs ~max_steps:30 ~por:false ()
      in
      let name n = Printf.sprintf "%s (stabilize_at=%d)" n k in
      Alcotest.(check int) (name "decision sets equal across threshold") 0
        (List.compare cmp
           (norm off.Mc_valency.decisions)
           (norm on.Mc_valency.decisions));
      Alcotest.(check bool) (name "terminated equal") off.Mc_valency.terminated
        on.Mc_valency.terminated;
      Alcotest.(check bool) (name "agreement verdict equal")
        (off.Mc_valency.agreement_violation = None)
        (on.Mc_valency.agreement_violation = None))
    [ 3; 4 ]

(* A step-sensitive access must stay dependent with a valency decision
   step: the decision still advances the global step counter, so
   commuting the two moves the access across the stabilization
   threshold and changes its enabled responses.  First the relation
   itself, then an end-to-end protocol where the pruning hole would
   lose a decision vector. *)
let por_decision_vs_step_sensitive () =
  let access ~sensitive =
    Indep.Access { obj = 0; writes = false; step_sensitive = sensitive }
  in
  Alcotest.(check bool) "Local dependent with step-sensitive access" false
    (Indep.independent Indep.Local (access ~sensitive:true));
  Alcotest.(check bool) "step-sensitive access dependent with Local" false
    (Indep.independent (access ~sensitive:true) Indep.Local);
  Alcotest.(check bool) "Local independent of stable access" true
    (Indep.independent Indep.Local (access ~sensitive:false));
  Alcotest.(check bool) "Local independent of Local" true
    (Indep.independent Indep.Local Indep.Local);
  Alcotest.(check bool) "Local independent of Log" true
    (Indep.independent Indep.Local Indep.Log);
  (* Step-oracle protocol: p0 decides its input immediately (a poised
     decision step from the root); p1 decides what it reads off a
     step-sensitive oracle — did its read land at step >= 1?
     Scheduling p1 before p0 decides yields (0, 0); after, (0, 1).
     Sleeping the decision step across the oracle read prunes the
     branch that decides (0, 0). *)
  let open Elin_valency in
  let oracle =
    {
      Base.name = "step-oracle";
      init = Value.unit;
      access = (fun ~state ~proc:_ ~step _ -> [ (Value.bool (step >= 1), state) ]);
      step_sensitive = (fun _ -> true);
    }
  in
  let p =
    {
      Valency.name = "step-oracle-race";
      bases = [| oracle |];
      code =
        (fun ~proc ~input ->
          if proc = 0 then Program.return input
          else
            let ( let* ) = Program.bind in
            let* late = Program.access 0 Op.read in
            Program.return (Value.int (if Value.to_bool late then 1 else 0)));
    }
  in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let cmp a b = List.compare Value.compare (Array.to_list a) (Array.to_list b) in
  let norm ds = List.sort_uniq cmp ds in
  List.iter
    (fun dedup ->
      let on =
        Mc_valency.check_consensus p ~inputs ~max_steps:8 ~dedup ~por:true ()
      in
      let off =
        Mc_valency.check_consensus p ~inputs ~max_steps:8 ~dedup ~por:false ()
      in
      let name n = Printf.sprintf "%s (dedup=%b)" n dedup in
      Alcotest.(check int) (name "full search sees both decision vectors") 2
        (List.length (norm off.Mc_valency.decisions));
      Alcotest.(check int) (name "por preserves the decision set") 0
        (List.compare cmp
           (norm off.Mc_valency.decisions)
           (norm on.Mc_valency.decisions));
      Alcotest.(check bool) (name "terminated equal") off.Mc_valency.terminated
        on.Mc_valency.terminated)
    [ true; false ]

(* --- rewired users ----------------------------------------------- *)

let valency_mc_matches_dfs () =
  let open Elin_valency in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let norm ds =
    List.sort_uniq
      (fun a b -> List.compare Value.compare (Array.to_list a) (Array.to_list b))
      ds
  in
  (* Correct protocol: same decision set, no violations, dedup hits.
     POR off here — under the reduction every duplicate generation is
     pruned at the source, so [dedup_hits] would be 0. *)
  let dfs = Valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20 in
  List.iter
    (fun domains ->
      let mc =
        Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:20
          ~domains ~por:false ()
      in
      Alcotest.(check bool) "terminated" dfs.Valency.terminated
        mc.Mc_valency.terminated;
      Alcotest.(check int) "decision sets equal" 0
        (List.compare
           (fun a b ->
             List.compare Value.compare (Array.to_list a) (Array.to_list b))
           (norm dfs.Valency.decisions)
           (norm mc.Mc_valency.decisions));
      Alcotest.(check bool) "agreement holds" true
        (mc.Mc_valency.agreement_violation = None);
      Alcotest.(check bool) "dedup hit-rate > 0" true
        (mc.Mc_valency.stats.Search.dedup_hits > 0))
    domain_counts;
  (* Broken protocol: the ev-lin test&set disagreement is found. *)
  let p = Protocols.registers_plus_ev_testandset ~stabilize_at:1000 () in
  let dfs = Valency.check_consensus p ~inputs ~max_steps:30 in
  let mc = Mc_valency.check_consensus p ~inputs ~max_steps:30 ~domains:2 () in
  Alcotest.(check bool) "dfs finds disagreement" true
    (dfs.Valency.agreement_violation <> None);
  Alcotest.(check bool) "mc finds disagreement" true
    (mc.Mc_valency.agreement_violation <> None)

let stabilize_mc_engine_matches_dfs () =
  let check h ~t = Faic.t_linearizable h ~t in
  let impl = Impls.fai_ev_board ~k:1 () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:8 in
  let via engine =
    Elin_core.Stabilize.construct ~engine impl ~workloads:wl ~depth:8 ~check ()
  in
  match
    ( via Elin_core.Stabilize.Dfs,
      via (Elin_core.Stabilize.Mc { domains = Some 2; dedup = true; por = true }),
      via
        (Elin_core.Stabilize.Mc { domains = Some 2; dedup = true; por = false })
    )
  with
  | Some dfs, Some mc, Some mc_nopor ->
    let open Elin_core.Stabilize in
    Alcotest.(check int) "same cut" dfs.certificate.cut mc.certificate.cut;
    Alcotest.(check int) "same v0" dfs.anchor.v0 mc.anchor.v0;
    Alcotest.(check bool) "same derived name" true
      (dfs.derived.Impl.name = mc.derived.Impl.name);
    Alcotest.(check int) "por invariant: cut" mc_nopor.certificate.cut
      mc.certificate.cut;
    Alcotest.(check int) "por invariant: leaves checked"
      mc_nopor.certificate.leaves_checked mc.certificate.leaves_checked;
    Alcotest.(check int) "por invariant: v0" mc_nopor.anchor.v0 mc.anchor.v0
  | _ -> Alcotest.fail "all engines must certify a stable configuration"

(* --- partition independence ------------------------------------- *)

(* The search at 2 and 4 domains must reproduce the 1-domain run bit
   for bit: every stats field except [per_domain]/[domains]/[wall],
   the verdict, and the lex-min counterexample, across domain counts x
   por — including the merge path (por+dedup), where sleep-mask
   intersection happens at the owning domain. *)

let check_stats_equal name (a : Search.stats) (b : Search.stats) =
  let f fname v w = Alcotest.(check int) (name ^ " " ^ fname) v w in
  f "states" a.Search.states b.Search.states;
  f "dedup_hits" a.Search.dedup_hits b.Search.dedup_hits;
  f "kept" a.Search.kept b.Search.kept;
  f "pruned" a.Search.pruned b.Search.pruned;
  f "leaves" a.Search.leaves b.Search.leaves;
  f "cut" a.Search.cut b.Search.cut;
  f "levels" a.Search.levels b.Search.levels;
  f "frontier_peak" a.Search.frontier_peak b.Search.frontier_peak

(* Violating workload: verdict, counterexample and counts. *)
let sharded_same_verdict_and_counts () =
  let impl = Elin_core.Ev_testandset.impl () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:1 in
  let cfg = Engine.for_spec (Testandset.spec ()) in
  let p h = Engine.linearizable cfg h in
  List.iter
    (fun por ->
      let reference =
        Mc.check impl ~workloads:wl ~max_steps:12 ~domains:1 ~por p
      in
      Alcotest.(check bool) "violation found" false reference.Mc.ok;
      List.iter
        (fun domains ->
          let name n = Printf.sprintf "%s (domains=%d por=%b)" n domains por in
          let out = Mc.check impl ~workloads:wl ~max_steps:12 ~domains ~por p in
          Alcotest.(check bool) (name "ok") reference.Mc.ok out.Mc.ok;
          (match reference.Mc.counterexample, out.Mc.counterexample with
          | None, None -> ()
          | Some a, Some b ->
            Alcotest.check Support.history (name "lex-min counterexample") a b
          | _ -> Alcotest.fail (name "counterexample presence"));
          check_stats_equal (name "stats") reference.Mc.stats out.Mc.stats)
        domain_counts)
    [ true; false ]

(* Exhaustive counts over the full dedup x por grid. *)
let sharded_same_counts_exhaustive () =
  let impl = Impls.fai_from_board () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  List.iter
    (fun (dedup, por) ->
      let reference =
        Mc.count_states impl ~workloads:wl ~max_steps:16 ~domains:1 ~dedup
          ~por ()
      in
      List.iter
        (fun domains ->
          let name =
            Printf.sprintf "domains=%d dedup=%b por=%b" domains dedup por
          in
          let stats =
            Mc.count_states impl ~workloads:wl ~max_steps:16 ~domains ~dedup
              ~por ()
          in
          check_stats_equal name reference stats)
        domain_counts)
    [ (true, true); (true, false); (false, true); (false, false) ]

(* The valency rewiring: decision sets and consensus verdicts. *)
let sharded_valency_equivalence () =
  let open Elin_valency in
  let inputs = [| Value.int 0; Value.int 1 |] in
  let cmp a b =
    List.compare Value.compare (Array.to_list a) (Array.to_list b)
  in
  List.iter
    (fun (p, max_steps) ->
      let reference =
        Mc_valency.check_consensus p ~inputs ~max_steps ~domains:1 ()
      in
      List.iter
        (fun domains ->
          let name n =
            Printf.sprintf "%s %s (domains=%d)" p.Valency.name n domains
          in
          let r = Mc_valency.check_consensus p ~inputs ~max_steps ~domains () in
          Alcotest.(check int) (name "decision sets") 0
            (List.compare cmp reference.Mc_valency.decisions
               r.Mc_valency.decisions);
          Alcotest.(check bool) (name "terminated")
            reference.Mc_valency.terminated r.Mc_valency.terminated;
          Alcotest.(check bool) (name "agreement violation")
            (reference.Mc_valency.agreement_violation <> None)
            (r.Mc_valency.agreement_violation <> None);
          check_stats_equal (name "stats") reference.Mc_valency.stats
            r.Mc_valency.stats)
        domain_counts)
    [
      (Protocols.cas (), 20);
      (Protocols.registers_plus_ev_testandset ~stabilize_at:1000 (), 30);
    ]

let () =
  Alcotest.run "mc"
    [
      ( "determinism",
        [
          Support.quick "test&set verdict, 1/2/4 domains"
            tands_same_verdict_all_domains;
          Support.quick "counterexample lex-minimal"
            tands_counterexample_is_minimal;
          Support.quick "guard agrees with explore" guard_agrees_with_explore;
        ] );
      ( "equivalence",
        [
          Support.quick "no-dedup node counts" no_dedup_matches_explore_node_counts;
          Support.quick "dedup preserves histories"
            dedup_preserves_reachable_histories;
        ] );
      ( "fingerprints",
        [
          Support.quick "collision smoke (3x10^5 encodings)"
            fingerprint_collision_smoke;
          Support.slow "distinct configs at 10^5 scale"
            fingerprint_distinct_configs;
        ] );
      ( "symmetry",
        [
          Support.quick "reduces and preserves verdict"
            symmetry_reduces_and_preserves_verdict;
          Support.quick "requires identical workloads"
            symmetry_requires_identical_workloads;
        ] );
      ( "por",
        [
          Support.quick "preserves histories (domains x dedup)"
            por_preserves_histories;
          Support.quick "preserves lex-min counterexample"
            por_preserves_counterexample;
          Support.quick "tree reduction >= 2x" por_tree_reduction;
          Support.quick "valency gate" por_valency_gate;
          Support.quick "decision vs step-sensitive access"
            por_decision_vs_step_sensitive;
        ] );
      ( "engines",
        [
          Support.quick "verdict + counterexample (engines x domains x por)"
            sharded_same_verdict_and_counts;
          Support.quick "exhaustive counts (engines x domains x dedup x por)"
            sharded_same_counts_exhaustive;
          Support.quick "valency decision sets (engines x domains)"
            sharded_valency_equivalence;
        ] );
      ( "rewired users",
        [
          Support.quick "valency mc = dfs" valency_mc_matches_dfs;
          Support.quick "stabilize mc engine = dfs"
            stabilize_mc_engine_matches_dfs;
        ] );
    ]
