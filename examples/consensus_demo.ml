(** The other horn of the paradox: consensus.

    Linearizable consensus is the hardest object there is (it is
    universal), yet eventually linearizable consensus is trivial
    (Proposition 16) — and conversely, eventually linearizable objects
    cannot help registers solve real consensus (Proposition 15).  This
    example shows both directions.

    Run with [dune exec examples/consensus_demo.exe]. *)

open Elin_spec
open Elin_checker
open Elin_runtime
open Elin_core
open Elin_valency
open Elin_mc

let () =
  (* Direction 1 (Prop. 16): the Proposals-array algorithm — a few
     register operations, no synchronization primitive — implements
     eventually linearizable consensus, even over registers that are
     themselves only eventually linearizable. *)
  let procs = 4 in
  let spec = Consensus_spec.spec () in
  let wl = Array.init procs (fun p -> [ Op.propose (p mod 2) ]) in

  let demo name base =
    let impl = Ev_consensus.impl ~procs ~base () in
    let out = Run.execute impl ~workloads:wl ~sched:(Sched.random ~seed:9) () in
    let decisions =
      List.filter_map
        (fun (o : Elin_history.Operation.t) ->
          Option.map Value.to_int (Elin_history.Operation.response_value o))
        (Elin_history.History.ops out.Run.history)
    in
    Format.printf "%-36s decisions=%s  verdict=%a@." name
      (String.concat "," (List.map string_of_int decisions))
      Eventual.pp_verdict
      (Eventual.check_spec spec out.Run.history)
  in
  Format.printf "Proposition 16 — eventually linearizable consensus:@.";
  demo "proposals over linearizable regs" `Linearizable;
  demo "proposals over EV regs (k=8)" (`Ev_at_step 8);

  (* Direction 2 (Prop. 15): eventually linearizable objects cannot
     boost registers to real (linearizable) consensus.  The identical
     protocol — write input, fire test&set, winner keeps its value —
     is correct with a linearizable test&set and disagrees with an
     eventually linearizable one.  Exhaustive check over ALL schedules
     and adversary choices. *)
  Format.printf "@.Proposition 15 — no consensus boost from ev-lin objects:@.";
  let inputs = [| Value.int 0; Value.int 1 |] in
  let verdict name protocol =
    let r = Mc_valency.check_consensus protocol ~inputs ~max_steps:40 () in
    (match r.Mc_valency.agreement_violation with
    | None ->
      Format.printf "%-36s agreement holds on all schedules@." name
    | Some d ->
      Format.printf "%-36s DISAGREEMENT: p0 decides %s, p1 decides %s@." name
        (Value.to_string d.(0)) (Value.to_string d.(1)))
  in
  verdict "registers + linearizable test&set"
    (Protocols.registers_plus_linearizable_testandset ());
  verdict "registers + EV test&set"
    (Protocols.registers_plus_ev_testandset ());

  (* The FLP-style machinery behind the proof: the CAS protocol's
     critical configuration. *)
  Format.printf
    "@.Valency analysis of the CAS consensus (the proof's engine):@.";
  (match Mc_valency.find_critical (Protocols.cas ()) ~inputs ~max_steps:25 with
  | Some crit ->
    Format.printf
      "critical configuration at step %d; both poised steps access base \
       object %s — the synchronization primitive is where bivalence dies.@."
      crit.Mc_valency.config.Valency.steps
      (String.concat ","
         (List.map
            (fun (o, _) ->
              match o with Some o -> string_of_int o | None -> "-")
            (Array.to_list crit.Mc_valency.moves)))
  | None -> Format.printf "no critical configuration found@.")
