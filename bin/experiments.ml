(** The experiment suite behind [elin experiments]: one quick,
    deterministic run per experiment id in DESIGN.md §5, printing the
    claim, what was run, and the verdict.  The full-strength versions
    (property tests, exhaustive sweeps) live in test/; this report
    regenerates the paper-facing summary recorded in EXPERIMENTS.md. *)

open Elin_spec
open Elin_history
open Elin_checker
open Elin_runtime

let results : (string * string * bool) list ref = ref []

let record id claim ok =
  results := (id, claim, ok) :: !results;
  Printf.printf "  [%s] %-4s %s\n%!" (if ok then "PASS" else "FAIL") id claim

let fai = Faicounter.spec ()
let fcfg = Engine.for_spec fai
let reg = Register.spec ()
let rcfg = Engine.for_spec reg

let paper_fai_family k =
  History.of_events
    ([ Event.invoke ~proc:0 ~obj:0 Op.fetch_inc;
       Event.respond ~proc:0 ~obj:0 (Value.int 0) ]
    @ List.concat_map
        (fun i ->
          [ Event.invoke ~proc:1 ~obj:0 Op.fetch_inc;
            Event.respond ~proc:1 ~obj:0 (Value.int i) ])
        (List.init k (fun i -> i)))

let e1 () =
  let rng = Elin_kernel.Prng.create 11 in
  let h, _ =
    Gen.eventually_linearizable rng ~spec:fai ~procs:2 ~prefix_ops:3
      ~suffix_ops:3 ()
  in
  let ok =
    match Eventual.min_t fcfg h with
    | Some t ->
      Engine.t_linearizable fcfg h ~t:(t + 1)
      && Engine.t_linearizable fcfg h ~t:(t + 3)
    | None -> false
  in
  record "E1" "Lemma 5: t-linearizability is monotone in t" ok

let e2 () =
  let rng = Elin_kernel.Prng.create 12 in
  let h, _ =
    Gen.eventually_linearizable rng ~spec:fai ~procs:2 ~prefix_ops:3
      ~suffix_ops:3 ()
  in
  let ok =
    match Eventual.min_t fcfg h with
    | Some t ->
      List.for_all
        (fun k -> Engine.t_linearizable fcfg (History.prefix h k) ~t)
        (List.init (History.length h + 1) (fun k -> k))
    | None -> false
  in
  record "E2" "Lemma 6: t-linearizability is prefix closed" ok

let e3 () =
  let bound k =
    Option.get (Eventual.min_t rcfg (Locality.register_family k))
  in
  let per_object_stable =
    List.for_all
      (fun o ->
        Eventual.min_t rcfg (History.proj_obj (Locality.register_family 5) o)
        = Some 2)
      (History.objs (Locality.register_family 5))
  in
  record "E3"
    "Lemmas 7-9: locality holds; the infinite-register family's whole-history \
     bound diverges while per-object bounds stay at 2"
    (per_object_stable && bound 1 < bound 3 && bound 3 < bound 5)

let e4 () =
  let prefixes_ok =
    List.for_all
      (fun k -> Faic.t_linearizable (paper_fai_family k) ~t:2)
      [ 0; 2; 5; 10 ]
  in
  let kept_fails =
    List.for_all
      (fun k -> not (Faic.t_linearizable (paper_fai_family k) ~t:1))
      [ 2; 5; 10 ]
  in
  record "E4"
    "Sec 3.2: every finite prefix of the f&i family is 2-linearizable, yet \
     keeping the first response is fatal (t-lin is not a safety property)"
    (prefixes_ok && kept_fails)

let e5 () =
  let rng = Elin_kernel.Prng.create 13 in
  let h, _ =
    Gen.eventually_linearizable rng ~spec:reg ~procs:2 ~prefix_ops:3
      ~suffix_ops:3 ()
  in
  let wc = Weak.is_weakly_consistent (Weak.for_spec reg) in
  let ok =
    wc h
    && List.for_all
         (fun k -> wc (History.prefix h k))
         (List.init (History.length h + 1) (fun k -> k))
  in
  record "E5" "Lemma 10: weak consistency is a safety property (prefix-closed)" ok

let e6 () =
  let ( let* ) = Program.bind in
  let weird : Impl.t =
    {
      Impl.name = "fai/weird";
      bases = [| Base.linearizable (Announce_board.spec ()) |];
      local_init = Value.unit;
      program =
        (fun ~proc ~local op ->
          match Op.name op with
          | "fetch&inc" ->
            let* idx =
              Program.access 0 (Announce_board.announce (Value.int proc))
            in
            let idx = Value.to_int idx in
            Program.return
              ((if idx >= 4 then Value.int idx else Value.int 7), local)
          | other -> invalid_arg other);
    }
  in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:3 ~per_proc:4 in
  let bad =
    (Run.execute weird ~workloads:wl ~sched:(Sched.random ~seed:5) ()).Run.history
  in
  let guarded = Elin_core.Guard.wrap ~spec:fai weird in
  let good =
    (Run.execute guarded ~workloads:wl ~sched:(Sched.random ~seed:5) ()).Run.history
  in
  record "E6"
    "Prop 11 / Figure 1: the announce/verify guard restores weak consistency \
     while preserving eventual linearizability"
    ((not (Faic.weakly_consistent bad))
    && Faic.weakly_consistent good
    && Faic.min_t good <> None)

let e7 () =
  let impl =
    Elin_core.Local_copy.transform ~procs:2 (Impl.of_spec reg)
  in
  let wl = [| [ Op.write 1 ]; [ Op.read ] |] in
  let out =
    Elin_mc.Mc.check impl ~workloads:wl ~max_steps:10 (fun h ->
        Engine.linearizable rcfg h)
  in
  record "E7"
    "Thm 12: the local-copy transform of a register implementation exhibits \
     non-linearizable histories (no linearizable object from ev-lin bases)"
    (out.Elin_mc.Mc.counterexample <> None)

let e8 () =
  let ok =
    List.for_all
      (fun (e : Zoo.entry) ->
        Elin_core.Trivial.is_trivial e.Zoo.spec = e.Zoo.trivial)
      (Zoo.all ())
  in
  record "E8"
    "Prop 14: the triviality classifier matches expectations on the whole \
     type zoo (only the constant object is trivial)"
    ok

let e9 () =
  let inputs = [| Value.int 0; Value.int 1 |] in
  let open Elin_valency in
  let open Elin_mc in
  let cas_ok =
    let r =
      Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:25 ()
    in
    r.Mc_valency.terminated && r.Mc_valency.agreement_violation = None
  in
  let ts_ok =
    let r =
      Mc_valency.check_consensus
        (Protocols.registers_plus_linearizable_testandset ())
        ~inputs ~max_steps:40 ()
    in
    r.Mc_valency.agreement_violation = None
  in
  let ev_ts_fails =
    let r =
      Mc_valency.check_consensus (Protocols.registers_plus_ev_testandset ())
        ~inputs ~max_steps:40 ()
    in
    r.Mc_valency.agreement_violation <> None
  in
  record "E9"
    "Prop 15: registers + linearizable test&set solve 2-consensus; the same \
     code over an EVENTUALLY linearizable test&set disagrees"
    (cas_ok && ts_ok && ev_ts_fails)

let e10 () =
  let procs = 3 in
  let spec = Consensus_spec.spec () in
  let run base seed =
    let impl = Elin_core.Ev_consensus.impl ~procs ~base () in
    let wl = Array.init procs (fun p -> [ Op.propose (p mod 2) ]) in
    (Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed) ()).Run.history
  in
  let ok h =
    Eventual.is_eventually_linearizable (Eventual.check_spec spec h)
  in
  record "E10"
    "Prop 16: the Proposals-array consensus is wait-free and eventually \
     linearizable, over linearizable AND over eventually linearizable registers"
    (ok (run `Linearizable 3) && ok (run (`Ev_at_step 8) 3))

let e11 () =
  let impl = Elin_core.Ev_testandset.impl () in
  let spec = Testandset.spec () in
  let wl = Run.uniform_workload Op.test_and_set ~procs:2 ~per_proc:2 in
  let all_ev =
    (Elin_mc.Mc.check impl ~workloads:wl ~max_steps:20 (fun h ->
         Eventual.is_eventually_linearizable (Eventual.check_spec spec h)))
      .Elin_mc.Mc.ok
  in
  let not_lin =
    not
      (Elin_mc.Mc.check impl ~workloads:wl ~max_steps:20
         (Engine.linearizable (Engine.for_spec spec)))
        .Elin_mc.Mc.ok
  in
  record "E11"
    "Sec 4: the communication-free test&set is eventually linearizable on \
     every schedule, and not linearizable"
    (all_ev && not_lin)

let e12 () =
  let impl = Impls.fai_ev_board ~k:4 () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:6 in
  let h =
    (Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed:7) ()).Run.history
  in
  let ok =
    match Faic.min_t h with
    | None -> false
    | Some t ->
      List.for_all
        (fun t' ->
          let prefixes_pass =
            List.for_all
              (fun k -> Faic.t_linearizable (History.prefix h k) ~t:t')
              (List.init (History.length h + 1) (fun k -> k))
          in
          prefixes_pass = Faic.t_linearizable h ~t:t')
        (List.init (t + 2) (fun t' -> t'))
  in
  record "E12"
    "Lemma 17: on eventually linearizable f&i runs, all-prefixes \
     t-linearizability coincides with whole-history t-linearizability"
    ok

let e13 () =
  let check h ~t = Faic.t_linearizable h ~t in
  let impl = Impls.fai_ev_board ~k:3 () in
  let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:12 in
  let ok =
    match Elin_core.Stabilize.construct impl ~workloads:wl ~depth:10 ~check () with
    | None -> false
    | Some o ->
      let wl' = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
      (Elin_mc.Mc.check o.Elin_core.Stabilize.derived ~workloads:wl'
         ~locals:o.Elin_core.Stabilize.derived_locals ~max_steps:18 (fun h ->
           Faic.t_linearizable h ~t:0))
        .Elin_mc.Mc.ok
  in
  record "E13"
    "Prop 18 (the paradox): A' derived from the eventually linearizable f&i A \
     is fully linearizable on every schedule (exhaustively model-checked)"
    ok

let e14 () =
  (* Register-only candidates do not stabilize; the board-based one
     does. *)
  let min_t_at impl per_proc =
    let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
    let h =
      (Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()).Run.history
    in
    match Faic.min_t h with Some t -> t | None -> max_int
  in
  let ( let* ) = Program.bind in
  let rmw : Impl.t =
    {
      Impl.name = "fai/rmw";
      bases = [| Base.linearizable reg |];
      local_init = Value.unit;
      program =
        (fun ~proc:_ ~local op ->
          match Op.name op with
          | "fetch&inc" ->
            let* v = Program.access 0 Op.read in
            let v = Value.to_int v in
            let* _ = Program.access 0 (Op.write (v + 1)) in
            Program.return (Value.int v, local)
          | other -> invalid_arg other);
    }
  in
  let grows = min_t_at rmw 4 < min_t_at rmw 8 && min_t_at rmw 8 < min_t_at rmw 12 in
  let frozen =
    let b = Impls.fai_ev_board ~k:3 () in
    min_t_at b 4 = min_t_at b 10 && min_t_at b 10 = min_t_at b 16
  in
  record "E14"
    "Cor 19: register-only f&i candidates never stabilize (min_t chases the \
     run), unlike the board-based eventually linearizable implementation"
    (grows && frozen)

let e15 () =
  (* Extension: the Section 6 open question explored — the log-based
     universal construction over linearizable vs eventually
     linearizable consensus cells. *)
  let run cell_base seed =
    let impl =
      Elin_core.Universal.construction ~spec:fai ~cells:48 ~cell_base ()
    in
    let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:4 in
    (Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed) ()).Run.history
  in
  let lin_ok = Faic.t_linearizable (run `Linearizable 3) ~t:0 in
  let ev_h = run (`Ev_at_step 8) 3 in
  let ev_ok =
    (not (Faic.t_linearizable ev_h ~t:0))
    && Eventual.is_eventually_linearizable (Faic.check ev_h)
  in
  record "E15"
    "Sec 6 (extension): the universal construction is linearizable over \
     linearizable consensus cells and eventually linearizable over \
     eventually linearizable ones"
    (lin_ok && ev_ok)

let e16 () =
  (* Extension: the Section 2 quantifier gap.  The delayed-winner
     test&set family is eventually linearizable per execution but has
     no uniform bound; the board-based f&i has one. *)
  let ts = Testandset.spec () in
  let tcfg = Engine.for_spec ts in
  let diverges =
    match
      Serafini.classify
        (Serafini.family_min_ts Serafini.delayed_winner_family
           ~min_t:(Eventual.min_t tcfg) ~probes:[ 1; 3; 6 ])
    with
    | Serafini.Diverging _ -> true
    | Serafini.Uniformly_bounded _ | Serafini.Not_eventually_linearizable _ ->
      false
  in
  let frozen =
    let family per_proc =
      let impl = Impls.fai_ev_board ~k:3 () in
      let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
      (Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()).Run.history
    in
    match
      Serafini.classify
        (Serafini.family_min_ts family ~min_t:Faic.min_t ~probes:[ 4; 8; 12 ])
    with
    | Serafini.Uniformly_bounded _ -> true
    | Serafini.Diverging _ | Serafini.Not_eventually_linearizable _ -> false
  in
  record "E16"
    "Sec 2 (extension): the per-execution definition is strictly weaker \
     than Serafini et al.'s uniform-bound definition (delayed-winner \
     test&set family diverges; board f&i family freezes)"
    (diverges && frozen)

let run_all () =
  Printf.printf
    "elin experiment suite — Guerraoui & Ruppert, PODC 2014 (quick runs; \
     test/ holds the full-strength versions)\n\n";
  e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 ();
  e11 (); e12 (); e13 (); e14 (); e15 (); e16 ();
  let all = List.rev !results in
  let passed = List.length (List.filter (fun (_, _, ok) -> ok) all) in
  Printf.printf "\n%d/%d experiments passed\n" passed (List.length all);
  if passed <> List.length all then exit 1
