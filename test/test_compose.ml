(** Tests for implementation composition ([Compose.flatten]): identity
    flattening preserves behaviour exactly; towers of implementations
    (universal construction over consensus-from-CAS over atomic CAS)
    remain linearizable; and flattening over an eventually linearizable
    inner inherits its misbehaviour — the compositional face of the
    paper's negative results. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let fai = Faicounter.spec ()

let fai_wl procs per_proc = Run.uniform_workload Op.fetch_inc ~procs ~per_proc

let identity_flatten_preserves_histories () =
  let outer = Impls.fai_from_cas () in
  let flat =
    Compose.flatten ~outer ~inner:(fun i ->
        Compose.identity_inner outer.Impl.bases.(i))
  in
  List.iter
    (fun seed ->
      let h_of impl =
        (Run.execute impl ~workloads:(fai_wl 3 4) ~sched:(Sched.random ~seed) ())
          .Run.history
      in
      Alcotest.check Support.history
        (Printf.sprintf "seed %d identical" seed)
        (h_of outer) (h_of flat))
    [ 1; 2; 3 ]

let consensus_from_cas_correct () =
  (* The inner building block on its own: exhaustively linearizable. *)
  let impl = Compose.consensus_from_cas () in
  let spec = Consensus_spec.spec () in
  let wl = [| [ Op.propose 0 ]; [ Op.propose 1 ] |] in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check impl ~workloads:wl ~max_steps:14 (fun h ->
        Engine.linearizable (Engine.for_spec spec) h)
  in
  (match cex with
  | Some h -> Alcotest.failf "counterexample:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all schedules linearizable" true ok

let tower_universal_over_cas =
  (* fetch&increment <- universal construction <- consensus cells
     <- compare&swap: a three-level tower, flattened and checked. *)
  Support.seeded_prop ~count:30 "tower f&i<-universal<-consensus<-cas"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let outer = Universal.construction ~spec:fai ~cells:24 () in
      let flat =
        Compose.flatten ~outer ~inner:(fun _ -> Compose.consensus_from_cas ())
      in
      let out =
        Run.execute flat ~workloads:(fai_wl 2 4) ~sched:(Sched.random ~seed) ()
      in
      out.Run.all_done && Faic.t_linearizable out.Run.history ~t:0)

let tower_exhaustive () =
  let outer = Universal.construction ~spec:fai ~cells:6 () in
  let flat =
    Compose.flatten ~outer ~inner:(fun _ -> Compose.consensus_from_cas ())
  in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check flat ~workloads:(fai_wl 2 1) ~max_steps:20
      (fun h -> Faic.t_linearizable h ~t:0)
  in
  (match cex with
  | Some h -> Alcotest.failf "counterexample:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all schedules linearizable" true ok;
  (* Coverage counts schedules: the tree-mode search has one leaf per
     schedule, where the check above merges equal configurations. *)
  let tree =
    Mc.count_states flat ~workloads:(fai_wl 2 1) ~max_steps:20 ~dedup:false
      ~por:false ()
  in
  Alcotest.(check bool) "real coverage" true (tree.Search.leaves > 100)

let ev_inner_inherits_misbehaviour () =
  (* Flatten the board-based f&i over an eventually linearizable inner
     board: duplicates appear — building on eventually linearizable
     parts does not give a linearizable whole (the compositional
     reading of Theorem 12's premise). *)
  let outer = Impls.fai_from_board () in
  let flat =
    Compose.flatten ~outer ~inner:(fun _ ->
        Impl.direct (Ev_base.never_stabilizing (Announce_board.spec ())))
  in
  let cex =
    (Mc.check flat ~workloads:(fai_wl 2 2) ~max_steps:14
      (fun h -> Faic.t_linearizable h ~t:0))
    .Mc.counterexample
  in
  Alcotest.(check bool) "violation exists" true (cex <> None);
  (* ... while weak consistency survives (the inner views preserve it). *)
  let { Mc.ok; _ } =
    Mc.check flat ~workloads:(fai_wl 2 2) ~max_steps:14
      (fun h -> Faic.weakly_consistent h)
  in
  Alcotest.(check bool) "weak consistency inherited" true ok

let locals_isolated_per_process () =
  (* Inner locals are per process: two processes using an inner
     implementation with local counters must not share them. *)
  let counting_inner : Impl.t =
    {
      Impl.name = "counting";
      bases = [| Base.linearizable (Register.spec ()) |];
      local_init = Value.int 0;
      program =
        (fun ~proc:_ ~local _op ->
          let n = Value.to_int local in
          Program.return (Value.int n, Value.int (n + 1)));
    }
  in
  let outer : Impl.t =
    {
      Impl.name = "outer";
      bases = [| Base.linearizable (Register.spec ()) |];
      local_init = Value.unit;
      program =
        (fun ~proc:_ ~local op ->
          Program.bind (Program.access 0 op) (fun r ->
              Program.return (r, local)));
    }
  in
  let flat = Compose.flatten ~outer ~inner:(fun _ -> counting_inner) in
  let wl = Run.uniform_workload Op.read ~procs:2 ~per_proc:3 in
  let out = Run.execute flat ~workloads:wl ~sched:(Sched.round_robin ()) () in
  let by_proc p =
    List.filter_map
      (fun (o : Elin_history.Operation.t) ->
        if o.Elin_history.Operation.proc = p then
          Option.map Value.to_int (Elin_history.Operation.response_value o)
        else None)
      (Elin_history.History.ops out.Run.history)
  in
  Alcotest.(check (list int)) "p0 counts its own" [ 0; 1; 2 ] (by_proc 0);
  Alcotest.(check (list int)) "p1 counts its own" [ 0; 1; 2 ] (by_proc 1)

let base_count_flattened () =
  let outer = Universal.construction ~spec:fai ~cells:5 () in
  let flat =
    Compose.flatten ~outer ~inner:(fun _ -> Compose.consensus_from_cas ())
  in
  (* 5 consensus cells, each one CAS cell. *)
  Alcotest.(check int) "flat base count" 5 (Array.length flat.Impl.bases)

let () =
  Alcotest.run "compose"
    [
      ( "flatten",
        [
          Support.quick "identity preserves histories"
            identity_flatten_preserves_histories;
          Support.quick "consensus from cas" consensus_from_cas_correct;
          tower_universal_over_cas;
          Support.slow "tower exhaustive" tower_exhaustive;
          Support.quick "ev inner inherits misbehaviour"
            ev_inner_inherits_misbehaviour;
          Support.quick "locals isolated" locals_isolated_per_process;
          Support.quick "base counts" base_count_flattened;
        ] );
    ]
