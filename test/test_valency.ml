(** Experiment E9: Proposition 15 — eventually linearizable objects do
    not boost the consensus power of registers.  Exhaustive valency
    analysis over candidate two-process protocols. *)

open Elin_spec
open Elin_valency
open Elin_mc
open Elin_test_support

let inputs = [| Value.int 0; Value.int 1 |]

(* --- register-only protocols fail (FLP / Loui–Abu-Amara) --- *)

let naive_registers_disagree () =
  let r =
    Mc_valency.check_consensus (Protocols.naive_registers ()) ~inputs
      ~max_steps:25 ()
  in
  Alcotest.(check bool) "terminates" true r.Mc_valency.terminated;
  match r.Mc_valency.agreement_violation with
  | Some d ->
    Alcotest.(check bool) "genuinely different decisions" true
      (not (Value.equal d.(0) d.(1)))
  | None -> Alcotest.fail "expected an agreement violation"

let naive_registers_same_inputs_fine () =
  (* With equal inputs the flawed protocol cannot disagree. *)
  let r =
    Mc_valency.check_consensus (Protocols.naive_registers ())
      ~inputs:[| Value.int 1; Value.int 1 |] ~max_steps:25 ()
  in
  Alcotest.(check bool) "no violation" true
    (r.Mc_valency.agreement_violation = None)

(* --- CAS consensus is correct: the positive control --- *)

let cas_correct () =
  let r =
    Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:25 ()
  in
  Alcotest.(check bool) "terminated" true r.Mc_valency.terminated;
  Alcotest.(check bool) "agreement" true (r.Mc_valency.agreement_violation = None);
  Alcotest.(check bool) "validity" true (r.Mc_valency.validity_violation = None);
  (* Both decision vectors (0,0) and (1,1) are reachable. *)
  Alcotest.(check int) "both outcomes reachable" 2
    (List.length r.Mc_valency.decisions)

let cas_critical_configuration () =
  match Mc_valency.find_critical (Protocols.cas ()) ~inputs ~max_steps:25 with
  | None -> Alcotest.fail "multivalent protocol must have a critical config"
  | Some crit ->
    (* At the critical configuration both poised steps target the same
       (universal) object — the paper's Case-3-with-CAS situation where
       the commutation argument fails. *)
    let objs =
      Array.to_list (Array.map (fun (o, _) -> o) crit.Mc_valency.moves)
    in
    Alcotest.(check (list (option int))) "both poised on the CAS"
      [ Some 0; Some 0 ] objs;
    (* And the two moves have opposite valencies. *)
    (match
       Array.to_list (Array.map (fun (_, v) -> v) crit.Mc_valency.moves)
     with
    | [ Mc_valency.Univalent a; Mc_valency.Univalent b ] ->
      Alcotest.(check bool) "opposite valencies" false (Value.equal a b)
    | _ -> Alcotest.fail "critical children must be univalent")

(* --- registers + linearizable test&set solve consensus --- *)

let linearizable_ts_correct () =
  let r =
    Mc_valency.check_consensus
      (Protocols.registers_plus_linearizable_testandset ())
      ~inputs ~max_steps:40 ()
  in
  Alcotest.(check bool) "terminated" true r.Mc_valency.terminated;
  Alcotest.(check bool) "agreement" true (r.Mc_valency.agreement_violation = None);
  Alcotest.(check bool) "validity" true (r.Mc_valency.validity_violation = None)

(* --- the same code over an EVENTUALLY linearizable test&set fails --- *)

let ev_ts_disagrees () =
  let r =
    Mc_valency.check_consensus (Protocols.registers_plus_ev_testandset ())
      ~inputs ~max_steps:40 ()
  in
  Alcotest.(check bool) "terminated" true r.Mc_valency.terminated;
  match r.Mc_valency.agreement_violation with
  | Some d ->
    Alcotest.(check bool) "both processes win and keep their input" true
      (not (Value.equal d.(0) d.(1)))
  | None -> Alcotest.fail "expected disagreement over the ev test&set"

let ev_ts_fails_for_any_stabilization_time () =
  (* Prop. 15 is about *any* eventually linearizable object: whatever
     stabilization bound the object promises, once both processes can
     reach the test&set before it (4 accesses suffice: two register
     writes, two test&sets), the adversary wins.  Disagreement exists
     for every bound >= 4; below that the object is effectively
     linearizable for this protocol and agreement holds — the boundary
     is checked both ways. *)
  List.iter
    (fun k ->
      let r =
        Mc_valency.check_consensus
          (Protocols.registers_plus_ev_testandset ~stabilize_at:k ())
          ~inputs ~max_steps:40 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "disagreement with stabilization at %d" k)
        true
        (r.Mc_valency.agreement_violation <> None))
    [ 4; 6; 10; 1000 ];
  List.iter
    (fun k ->
      let r =
        Mc_valency.check_consensus
          (Protocols.registers_plus_ev_testandset ~stabilize_at:k ())
          ~inputs ~max_steps:40 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "agreement with early stabilization %d" k)
        true
        (r.Mc_valency.agreement_violation = None))
    [ 0; 3 ]

let ev_ts_stabilized_early_is_fine () =
  (* Degenerate control: stabilization at step 0 = linearizable object
     = consensus works. *)
  let r =
    Mc_valency.check_consensus
      (Protocols.registers_plus_ev_testandset ~stabilize_at:0 ())
      ~inputs ~max_steps:40 ()
  in
  Alcotest.(check bool) "agreement restored" true
    (r.Mc_valency.agreement_violation = None)

(* --- consensus power of the zoo's number-2 types (Herlihy) --- *)

let queue_consensus_correct () =
  let r =
    Mc_valency.check_consensus (Protocols.registers_plus_linearizable_queue ())
      ~inputs ~max_steps:40 ()
  in
  Alcotest.(check bool) "terminated" true r.Mc_valency.terminated;
  Alcotest.(check bool) "agreement" true (r.Mc_valency.agreement_violation = None);
  Alcotest.(check bool) "validity" true (r.Mc_valency.validity_violation = None)

let ev_queue_disagrees () =
  (* Prop. 15 with a consensus-number-2 object: the eventually
     linearizable queue hands "win" to both. *)
  let r =
    Mc_valency.check_consensus (Protocols.registers_plus_ev_queue ())
      ~inputs ~max_steps:40 ()
  in
  Alcotest.(check bool) "disagreement" true
    (r.Mc_valency.agreement_violation <> None)

let fai_consensus_correct () =
  let r =
    Mc_valency.check_consensus (Protocols.registers_plus_fai ()) ~inputs
      ~max_steps:40 ()
  in
  Alcotest.(check bool) "terminated" true r.Mc_valency.terminated;
  Alcotest.(check bool) "agreement" true (r.Mc_valency.agreement_violation = None);
  Alcotest.(check bool) "validity" true (r.Mc_valency.validity_violation = None)

(* --- commutation (the proof's Case 1–3 engine) --- *)

let different_objects_commute () =
  (* In the naive register protocol the first two steps hit different
     registers: stepping p0;p1 and p1;p0 from the root must yield the
     same decision sets — the heart of the proof's "events commute"
     argument. *)
  let p = Protocols.naive_registers () in
  let node = Mc_valency.root p ~inputs in
  let a, b = Mc_valency.commute_check p node 0 1 ~max_steps:25 in
  Alcotest.(check bool) "decision sets equal" true (a = b)

let cas_steps_do_not_commute () =
  let p = Protocols.cas () in
  let node = Mc_valency.root p ~inputs in
  let a, b = Mc_valency.commute_check p node 0 1 ~max_steps:25 in
  Alcotest.(check bool) "CAS order matters" true (a <> b)

(* --- valence machinery --- *)

let root_multivalent () =
  let p = Protocols.cas () in
  match Mc_valency.valence p (Mc_valency.root p ~inputs) ~max_steps:25 with
  | Mc_valency.Multivalent vs ->
    Alcotest.(check int) "two reachable decisions" 2 (List.length vs)
  | Mc_valency.Univalent _ | Mc_valency.Undetermined ->
    Alcotest.fail "root must be multivalent (solo runs decide own input)"

let truncation_detected () =
  (* A protocol that never decides: valence undetermined. *)
  let spinner : Valency.protocol =
    let reg = Register.spec () in
    let rec spin () =
      Elin_runtime.Program.bind (Elin_runtime.Program.access 0 Op.read)
        (fun _ -> spin ())
    in
    {
      Valency.name = "spinner";
      bases = [| Elin_runtime.Base.linearizable reg |];
      code = (fun ~proc:_ ~input:_ -> spin ());
    }
  in
  (match
     Mc_valency.valence spinner (Mc_valency.root spinner ~inputs) ~max_steps:10
   with
  | Mc_valency.Undetermined -> ()
  | _ -> Alcotest.fail "spinner must be undetermined");
  let r = Mc_valency.check_consensus spinner ~inputs ~max_steps:10 () in
  Alcotest.(check bool) "non-termination reported" false r.Mc_valency.terminated

(* --- a bound that cuts paths: no verdict unless a decided path violates --- *)

let cut_by_bound () =
  (* At depth 3 no CAS path decides: nothing to report but the cut. *)
  let r =
    Mc_valency.check_consensus (Protocols.cas ()) ~inputs ~max_steps:3 ()
  in
  Alcotest.(check bool) "cut" false r.Mc_valency.terminated;
  Alcotest.(check int) "no decisions" 0 (List.length r.Mc_valency.decisions);
  Alcotest.(check bool) "no violation" true
    (r.Mc_valency.agreement_violation = None
    && r.Mc_valency.validity_violation = None)

(* [elin ARGS]: exit code and standard output.  The binary sits beside
   this suite's directory in the build tree. *)
let elin args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/elin.exe"
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "elin %s: killed" (String.concat " " args)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Both commands print one report: a cut path without a violation is
   no verdict (exit 3), a violation on a decided path is still one
   (exit 1) and an uncut search that holds exits 0. *)
let cli_verdicts () =
  List.iter
    (fun cmd ->
      List.iter
        (fun (protocol, depth, code, lines) ->
          let args = [ cmd; "--protocol"; protocol; "--depth"; depth ] in
          let what = String.concat " " args in
          let got, out = elin args in
          Alcotest.(check int) (what ^ ": exit code") code got;
          List.iter
            (fun line ->
              if not (contains out line) then
                Alcotest.failf "%s: no line %S in\n%s" what line out)
            lines)
        [
          ( "cas",
            "3",
            3,
            [
              "terminated within bound: false (the depth bound cut a path";
              "reachable decision vectors: none";
              "agreement: no violation on the paths that decided; no \
               verdict on the cut paths";
            ] );
          ( "regs+ev-ts",
            "6",
            1,
            [
              "terminated within bound: false";
              "AGREEMENT VIOLATION: p0 decides 0, p1 decides 1";
            ] );
          ( "cas",
            "25",
            0,
            [
              "terminated within bound: true";
              "agreement: holds on all schedules";
            ] );
        ])
    [ "valency"; "mc" ]

let () =
  Alcotest.run "valency"
    [
      ( "register-only",
        [
          Support.quick "naive disagrees" naive_registers_disagree;
          Support.quick "same inputs fine" naive_registers_same_inputs_fine;
        ] );
      ( "positive controls",
        [
          Support.quick "cas correct" cas_correct;
          Support.quick "cas critical config" cas_critical_configuration;
          Support.quick "linearizable ts correct" linearizable_ts_correct;
        ] );
      ( "prop 15 (E9)",
        [
          Support.quick "ev ts disagrees" ev_ts_disagrees;
          Support.slow "any stabilization time" ev_ts_fails_for_any_stabilization_time;
          Support.quick "stabilized-at-0 control" ev_ts_stabilized_early_is_fine;
          Support.quick "ev queue disagrees" ev_queue_disagrees;
        ] );
      ( "consensus power (Herlihy)",
        [
          Support.quick "queue consensus" queue_consensus_correct;
          Support.quick "fai consensus" fai_consensus_correct;
        ] );
      ( "machinery",
        [
          Support.quick "commutation" different_objects_commute;
          Support.quick "cas non-commutation" cas_steps_do_not_commute;
          Support.quick "root multivalent" root_multivalent;
          Support.quick "truncation" truncation_detected;
        ] );
      ( "cut by the bound",
        [
          Support.quick "cas depth 3" cut_by_bound;
          Support.quick "elin valency and mc verdicts" cli_verdicts;
        ] );
    ]
