(** The paper's headline result (Proposition 18), end to end.

    Take A = an eventually linearizable fetch&increment that misbehaves
    for its first k announcements.  The paper proves any such A
    *contains* a fully linearizable fetch&increment A′: initialize A's
    variables as they are in a stable configuration and subtract v0
    from every response.  This example executes each proof step and
    exhaustively model-checks the result.

    Run with [dune exec examples/paradox_fai.exe]. *)

open Elin_spec
open Elin_checker
open Elin_runtime
open Elin_core
open Elin_mc

let k = 3

let () =
  let impl = Impls.fai_ev_board ~k () in
  Format.printf "A = %s@." impl.Impl.name;

  (* Show A misbehaving: a schedule with duplicate responses exists. *)
  let wl2 = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:2 in
  (match
     (Mc.check impl ~workloads:wl2 ~max_steps:16 (fun h ->
          Faic.t_linearizable h ~t:0))
       .Mc.counterexample
   with
  | Some h ->
    Format.printf
      "@.A is NOT linearizable; lexicographically minimal witness:@.%a@."
      Elin_history.History.pp h
  | None -> Format.printf "@.unexpected: no violation found@.");

  (* ...but A is eventually linearizable on every schedule. *)
  let out =
    Mc.check impl ~workloads:wl2 ~max_steps:16 (fun h ->
        Eventual.is_eventually_linearizable (Faic.check h))
  in
  Format.printf
    "@.A is eventually linearizable on every bounded schedule (%d distinct \
     leaf configurations): %b@."
    out.Mc.stats.Search.leaves out.Mc.ok;

  (* Step 1 (Claim 1): find and certify a stable configuration C —
     every extension to the depth bound keeps the history
     |history-at-C|-linearizable. *)
  let check h ~t = Faic.t_linearizable h ~t in
  let workloads =
    Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:(2 * k + 6)
  in
  match Stabilize.construct impl ~workloads ~depth:10 ~check () with
  | None -> Format.printf "construction failed@."
  | Some o ->
    let cert = o.Stabilize.certificate in
    Format.printf
      "@.Step 1 — stable configuration certified at %d history events (%d \
       distinct extension leaves checked to depth %d)@."
      cert.Stabilize.cut cert.Stabilize.leaves_checked
      cert.Stabilize.extension_depth;

    (* Step 2: C_idle, then run one process solo until op0 returns the
       number of operations invoked before it: that fixes v0. *)
    Format.printf
      "Step 2 — anchor op0 found; v0 = %d operations linearized before the \
       new origin@."
      o.Stabilize.anchor.Stabilize.v0;

    (* Step 3: A′ = A with base objects and local memories initialized
       as in C0, responses shifted down by v0. *)
    let derived = o.Stabilize.derived in
    Format.printf "Step 3 — A' = %s over the SAME base objects@."
      derived.Impl.name;

    (* Verification: A′ is linearizable on every bounded schedule. *)
    let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
    let out =
      Mc.check derived ~workloads:wl ~locals:o.Stabilize.derived_locals
        ~max_steps:18 (fun h -> Faic.t_linearizable h ~t:0)
    in
    (match out.Mc.counterexample with
    | Some h ->
      Format.printf "counterexample?!@.%a@." Elin_history.History.pp h
    | None -> ());
    Format.printf
      "@.Verification — A' is LINEARIZABLE on every bounded schedule (%d \
       distinct leaf configurations): %b@."
      out.Mc.stats.Search.leaves out.Mc.ok;
    Format.printf
      "@.The paradox: weakening linearizability to eventual linearizability \
       bought nothing for fetch&increment — the eventually linearizable \
       implementation already contained a fully linearizable one.@."
