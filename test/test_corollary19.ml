(** Experiment E14: Corollary 19 — no non-blocking eventually
    linearizable fetch&increment for two processes from linearizable
    registers.

    The proof chains Prop. 18 (an eventually linearizable f&i would
    yield a linearizable one) with the classical impossibility of
    consensus from registers.  Mechanically we verify the chain's
    links and refute an enumerable family of register-only candidate
    implementations: each either fails eventual linearizability
    (weak-consistency or unbounded-min_t violation witnessed by the
    explorer) or fails to be non-blocking. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_test_support

let ( let* ) = Program.bind

let fai_wl procs per_proc = Run.uniform_workload Op.fetch_inc ~procs ~per_proc

(* --- Candidate register-only fetch&increment implementations.  All
   use only read/write registers; each is killed mechanically. --- *)

(* Candidate 1: read-increment-write a shared register. *)
let rmw_candidate () : Impl.t =
  {
    Impl.name = "fai/rmw-register";
    bases = [| Base.linearizable (Register.spec ()) |];
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

(* Candidate 2: per-process registers; return own count plus last-read
   other count (double counting under races). *)
let split_candidate () : Impl.t =
  {
    Impl.name = "fai/split-registers";
    bases =
      [| Base.linearizable (Register.spec ()); Base.linearizable (Register.spec ()) |];
    local_init = Value.int 0;
    program =
      (fun ~proc ~local op ->
        match Op.name op with
        | "fetch&inc" ->
          let own = Value.to_int local in
          let* _ = Program.access proc (Op.write (own + 1)) in
          let* other = Program.access (1 - proc) Op.read in
          Program.return
            (Value.int (own + Value.to_int other), Value.int (own + 1))
        | other -> invalid_arg other);
  }

(* Candidate 3: local-only counting (ignores the other process
   entirely — violates eventual linearizability in infinite runs; in
   bounded runs its min_t grows with the run). *)
let local_candidate () : Impl.t =
  {
    Impl.name = "fai/local-only";
    bases = [| Base.linearizable (Register.spec ()) |];
    local_init = Value.int 0;
    program =
      (fun ~proc:_ ~local op ->
        match Op.name op with
        | "fetch&inc" ->
          let own = Value.to_int local in
          Program.return (Value.int own, Value.int (own + 1))
        | other -> invalid_arg other);
  }

(* A violation of eventual linearizability visible in bounded runs: a
   schedule whose history fails t-linearizability for EVERY cut that
   leaves at least the final segment constrained.  We use the pragmatic
   criterion that distinguishes stabilizing from non-stabilizing
   implementations in bounded runs: min_t must not keep pace with the
   history length as the run grows (see test_lemma17 for the honest
   implementations, whose min_t is bounded by 4k). *)

let min_t_at_end hist =
  match Faic.min_t hist with
  | Some t -> t
  | None -> max_int

let rmw_candidate_not_linearizable_schedule () =
  (* The lost-update schedule: both read 0, both write 1, both return
     0. *)
  let cex =
    (Mc.check (rmw_candidate ()) ~workloads:(fai_wl 2 1)
      ~max_steps:10
      (fun h -> Faic.t_linearizable h ~t:0))
    .Mc.counterexample
  in
  Alcotest.(check bool) "lost update exists" true (cex <> None)

let rmw_candidate_min_t_grows () =
  (* Under the alternating adversary the duplicates recur forever: the
     stabilization bound chases the end of the history. *)
  let adversary_run per_proc =
    (* interleave reads and writes so every generation collides *)
    let impl = rmw_candidate () in
    let wl = fai_wl 2 per_proc in
    let out =
      Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ()
    in
    out.Run.history
  in
  let t4 = min_t_at_end (adversary_run 4) in
  let t8 = min_t_at_end (adversary_run 8) in
  let t12 = min_t_at_end (adversary_run 12) in
  Alcotest.(check bool) "bound grows with run length" true (t4 < t8 && t8 < t12)

let split_candidate_violates () =
  let cex =
    (Mc.check (split_candidate ()) ~workloads:(fai_wl 2 2)
      ~max_steps:16
      (fun h -> Faic.t_linearizable h ~t:0))
    .Mc.counterexample
  in
  Alcotest.(check bool) "violating schedule exists" true (cex <> None)

let split_candidate_min_t_grows () =
  let run per_proc =
    (Run.execute (split_candidate ()) ~workloads:(fai_wl 2 per_proc)
       ~sched:(Sched.round_robin ()) ())
      .Run.history
  in
  let t4 = min_t_at_end (run 4) and t10 = min_t_at_end (run 10) in
  Alcotest.(check bool) "no fixed stabilization" true (t4 < t10)

let local_candidate_min_t_grows () =
  let run per_proc =
    (Run.execute (local_candidate ()) ~workloads:(fai_wl 2 per_proc)
       ~sched:(Sched.round_robin ()) ())
      .Run.history
  in
  let t4 = min_t_at_end (run 4) and t10 = min_t_at_end (run 10) in
  Alcotest.(check bool) "no fixed stabilization" true (t4 < t10)

(* Contrast: the board-based implementation (which is NOT register-
   only — the board is a stronger history object) does stabilize: its
   min_t stays put as the run grows.  This isolates exactly where the
   corollary bites. *)
let board_impl_stabilizes () =
  let run per_proc =
    (Run.execute (Impls.fai_ev_board ~k:3 ()) ~workloads:(fai_wl 2 per_proc)
       ~sched:(Sched.round_robin ()) ())
      .Run.history
  in
  let t4 = min_t_at_end (run 4) and t10 = min_t_at_end (run 10) in
  let t16 = min_t_at_end (run 16) in
  Alcotest.(check bool) "bound frozen" true (t4 = t10 && t10 = t16)

(* The chain's first link, restated here for the corollary: IF a
   register-only candidate were eventually linearizable, Prop. 18 (see
   test_stabilize) would make it linearizable, and a linearizable f&i
   plus registers solves 2-consensus (Herlihy) — which test_valency
   shows registers cannot.  Mechanical sanity of the last step: a
   linearizable f&i solves 2-process consensus. *)
let fai_solves_consensus () =
  let r =
    Mc_valency.check_consensus
      (Elin_valency.Protocols.registers_plus_fai ())
      ~inputs:[| Value.int 0; Value.int 1 |] ~max_steps:40 ()
  in
  Alcotest.(check bool) "terminated" true r.Mc_valency.terminated;
  Alcotest.(check bool) "agreement" true
    (r.Mc_valency.agreement_violation = None);
  Alcotest.(check bool) "validity" true
    (r.Mc_valency.validity_violation = None)

let () =
  Alcotest.run "corollary19"
    [
      ( "candidate refutations (E14)",
        [
          Support.quick "rmw loses updates" rmw_candidate_not_linearizable_schedule;
          Support.quick "rmw min_t grows" rmw_candidate_min_t_grows;
          Support.quick "split violates" split_candidate_violates;
          Support.quick "split min_t grows" split_candidate_min_t_grows;
          Support.quick "local min_t grows" local_candidate_min_t_grows;
          Support.quick "board impl stabilizes (contrast)" board_impl_stabilizes;
        ] );
      ("chain sanity", [ Support.quick "f&i solves consensus" fai_solves_consensus ]);
    ]
