(** Experiment E13 — the paradox (Proposition 18): an eventually
    linearizable fetch&increment implementation A, run through the
    stable-configuration construction, yields a fully linearizable
    implementation A′ over the same base objects.  Verified end-to-end
    by exhaustive model checking of A′, for a sweep of stabilization
    parameters k. *)

open Elin_spec
open Elin_runtime
open Elin_explore
open Elin_checker
open Elin_core
open Elin_mc
open Elin_test_support

let check h ~t = Faic.t_linearizable h ~t

let fai_wl procs per_proc = Run.uniform_workload Op.fetch_inc ~procs ~per_proc

let construct_for ~k =
  let impl = Impls.fai_ev_board ~k () in
  Stabilize.construct impl ~workloads:(fai_wl 2 (2 * k + 6)) ~depth:10 ~check ()

let construction_succeeds () =
  match construct_for ~k:3 with
  | None -> Alcotest.fail "construction must succeed"
  | Some o ->
    Alcotest.(check bool) "v0 positive" true (o.Stabilize.anchor.Stabilize.v0 > 0);
    Alcotest.(check bool) "certificate explored leaves" true
      (o.Stabilize.certificate.Stabilize.leaves_checked > 0)

let derived_linearizable_sweep () =
  (* The headline: for each k, A′ is linearizable on every schedule. *)
  List.iter
    (fun k ->
      match construct_for ~k with
      | None -> Alcotest.failf "construction failed for k=%d" k
      | Some o ->
        let { Mc.ok; counterexample = cex; stats } =
          Mc.check o.Stabilize.derived
            ~workloads:(fai_wl 2 3) ~locals:o.Stabilize.derived_locals
            ~max_steps:18
            (fun h -> Faic.t_linearizable h ~t:0)
        in
        (match cex with
        | Some h ->
          Alcotest.failf "k=%d counterexample:\n%s" k
            (Elin_history.History.to_string h)
        | None -> ());
        Alcotest.(check bool) (Printf.sprintf "k=%d all leaves" k) true ok;
        Alcotest.(check bool) "real coverage" true (stats.Search.leaves > 1000))
    [ 1; 2; 3; 4 ]

let derived_counts_from_zero () =
  (* A′ is a fetch&increment *initialized to 0*: a solo run returns
     0, 1, 2, ... *)
  match construct_for ~k:3 with
  | None -> Alcotest.fail "construction failed"
  | Some o ->
    let out =
      Run.execute o.Stabilize.derived
        ~workloads:[| List.init 4 (fun _ -> Op.fetch_inc) |]
        ~sched:(Sched.round_robin ()) ()
    in
    (* Run.execute cannot thread derived locals; step the configuration
       solo instead for a faithful run. *)
    ignore out;
    let solo_wl = [| List.init 4 (fun _ -> Op.fetch_inc); [] |] in
    let c0 =
      Explore.initial_config o.Stabilize.derived ~workloads:solo_wl
        ~locals:o.Stabilize.derived_locals ()
    in
    (match
       Explore.run_solo o.Stabilize.derived c0 0
         ~until:(fun c -> if Explore.is_done c then Some () else None)
         40
     with
    | None -> Alcotest.fail "solo run did not finish"
    | Some (c, ()) ->
      let h = Explore.history c in
      let values =
        List.filter_map
          (fun (o : Elin_history.Operation.t) ->
            Option.map Value.to_int (Elin_history.Operation.response_value o))
          (Elin_history.History.ops h)
      in
      Alcotest.(check (list int)) "counts from zero" [ 0; 1; 2; 3 ] values)

let stable_configuration_is_genuinely_stable () =
  (* Deeper certification of the found configuration than the one used
     during search. *)
  let impl = Impls.fai_ev_board ~k:2 () in
  match
    Stabilize.find_stable impl ~workloads:(fai_wl 2 8) ~depth:8 ~check ()
  with
  | None -> Alcotest.fail "no stable configuration"
  | Some cert ->
    (match
       Stabilize.certify impl cert.Stabilize.config ~depth:14 ~check
     with
    | Some deeper ->
      Alcotest.(check bool) "deeper certificate holds" true
        (deeper.Stabilize.leaves_checked >= cert.Stabilize.leaves_checked)
    | None -> Alcotest.fail "deeper exploration refutes stability")

let unstable_configuration_rejected () =
  (* The initial configuration of a misbehaving implementation is NOT
     stable: certification must fail. *)
  let impl = Impls.fai_ev_board ~k:4 () in
  let c0 = Explore.initial_config impl ~workloads:(fai_wl 2 4) () in
  Alcotest.(check bool) "initial config unstable" true
    (Stabilize.certify impl c0 ~depth:12 ~check = None)

let anchor_value_matches_invocations () =
  let impl = Impls.fai_ev_board ~k:2 () in
  match
    Stabilize.construct impl ~workloads:(fai_wl 2 10) ~depth:8 ~check ()
  with
  | None -> Alcotest.fail "construction failed"
  | Some o ->
    Alcotest.(check int) "v0 = invocations at C0"
      o.Stabilize.anchor.Stabilize.config0.Explore.invocations
      o.Stabilize.anchor.Stabilize.v0

let derived_preserves_base_objects () =
  (* A′ uses the same base objects as A (same behaviour function), only
     re-initialized — the paper's "from the same set O". *)
  match construct_for ~k:2 with
  | None -> Alcotest.fail "construction failed"
  | Some o ->
    let a = (Impls.fai_ev_board ~k:2 ()).Impl.bases in
    let a' = o.Stabilize.derived.Impl.bases in
    Alcotest.(check int) "same base count" (Array.length a) (Array.length a');
    Alcotest.(check string) "same base type" a.(0).Base.name a'.(0).Base.name;
    Alcotest.(check bool) "initial state differs (post-stabilization)" false
      (Value.equal a.(0).Base.init a'.(0).Base.init)

let progress_condition_preserved () =
  (* The paper's remark after Prop. 18: the construction preserves the
     progress condition.  A (fai/ev-board) is wait-free with exactly
     one base access per operation; A′ must be too. *)
  match construct_for ~k:3 with
  | None -> Alcotest.fail "construction failed"
  | Some o ->
    let wl = fai_wl 2 4 in
    (* Run A′ on the first schedule (lowest process first, first
       adversary branch) by stepping configurations, to honour the
       derived locals, and measure accesses per op. *)
    let rec first_leaf (c : Explore.config) =
      if Explore.is_done c || c.Explore.steps >= 30 then c
      else first_leaf (List.hd (Explore.successors o.Stabilize.derived c))
    in
    let c =
      first_leaf
        (Explore.initial_config o.Stabilize.derived ~workloads:wl
           ~locals:o.Stabilize.derived_locals ())
    in
    (* Count Access steps per op: steps = invocations*2 + accesses;
       with one access per op, steps = 3 * ops at completion. *)
    let accesses =
      if Explore.is_done c then c.Explore.steps - (2 * c.Explore.invocations)
      else 0
    in
    Alcotest.(check int) "one access per op in A'" (2 * 4) accesses

let k_zero_already_linearizable () =
  (* Degenerate: A with k=0 is linearizable; the construction finds the
     root stable and v0 = anchor's first response + 1. *)
  match construct_for ~k:0 with
  | None -> Alcotest.fail "construction failed"
  | Some o ->
    Alcotest.(check int) "stable at the root" 0
      o.Stabilize.certificate.Stabilize.cut

let () =
  Alcotest.run "stabilize"
    [
      ( "proposition 18 (E13)",
        [
          Support.quick "construction succeeds" construction_succeeds;
          Support.slow "derived A' linearizable (k sweep)" derived_linearizable_sweep;
          Support.quick "counts from zero" derived_counts_from_zero;
          Support.quick "stability deepens" stable_configuration_is_genuinely_stable;
          Support.quick "unstable rejected" unstable_configuration_rejected;
          Support.quick "anchor bookkeeping" anchor_value_matches_invocations;
          Support.quick "same base objects" derived_preserves_base_objects;
          Support.quick "progress preserved (remark)" progress_condition_preserved;
          Support.quick "k=0 degenerate" k_zero_already_linearizable;
        ] );
    ]
