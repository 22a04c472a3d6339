(** Exhaustive-search pins: answers recorded once and never
    re-recorded.

    The valency verdicts of every [elin valency] protocol, the Prop. 18
    construction's certificate cut, anchor and derived name, and the
    hand-counted interleaving trees are facts about the models, not
    about the engine that searches them: a change of search engine may
    rename the calls below, never an expected value. *)

open Elin_spec
open Elin_runtime
open Elin_valency
open Elin_mc
open Elin_test_support

let inputs = [| Value.int 0; Value.int 1 |]

let vec d =
  "(" ^ String.concat "," (List.map Value.to_string (Array.to_list d)) ^ ")"

let sorted_vecs ds =
  List.map vec
    (List.sort_uniq
       (fun a b -> List.compare Value.compare (Array.to_list a) (Array.to_list b))
       ds)

(* name, protocol, terminated, decisions, agreement violation,
   validity violation, critical (step, poised objects). *)
let valency_pins =
  [
    ( "naive-registers",
      (fun () -> Protocols.naive_registers ()),
      true,
      [ "(0,0)"; "(0,1)" ],
      true,
      false,
      None );
    ( "cas",
      (fun () -> Protocols.cas ()),
      true,
      [ "(0,0)"; "(1,1)" ],
      false,
      false,
      Some (0, [ "0"; "0" ]) );
    ( "regs+ts",
      (fun () -> Protocols.registers_plus_linearizable_testandset ()),
      true,
      [ "(0,0)"; "(1,1)" ],
      false,
      false,
      Some (2, [ "2"; "2" ]) );
    ( "regs+ev-ts",
      (fun () -> Protocols.registers_plus_ev_testandset ~stabilize_at:1000 ()),
      true,
      [ "(0,0)"; "(0,1)"; "(1,1)" ],
      true,
      false,
      Some (4, [ "2" ]) );
    ( "regs+queue",
      (fun () -> Protocols.registers_plus_linearizable_queue ()),
      true,
      [ "(0,0)"; "(1,1)" ],
      false,
      false,
      Some (2, [ "2"; "2" ]) );
    ( "regs+ev-queue",
      (fun () -> Protocols.registers_plus_ev_queue ~stabilize_at:1000 ()),
      true,
      [ "(0,0)"; "(0,1)"; "(1,1)" ],
      true,
      false,
      Some (4, [ "2" ]) );
    ( "regs+fai",
      (fun () -> Protocols.registers_plus_fai ()),
      true,
      [ "(0,0)"; "(1,1)" ],
      false,
      false,
      Some (2, [ "2"; "2" ]) );
  ]

let valency_at_depth_25 () =
  List.iter
    (fun (name, protocol, terminated, decisions, agreement, validity, crit) ->
      let p = protocol () in
      let what s = Printf.sprintf "%s %s" name s in
      let r = Mc_valency.check_consensus p ~inputs ~max_steps:25 () in
      Alcotest.(check bool) (what "terminated") terminated r.Mc_valency.terminated;
      Alcotest.(check (list string))
        (what "decisions") decisions
        (sorted_vecs r.Mc_valency.decisions);
      Alcotest.(check bool)
        (what "agreement violation") agreement
        (r.Mc_valency.agreement_violation <> None);
      Alcotest.(check bool)
        (what "validity violation") validity
        (r.Mc_valency.validity_violation <> None);
      let got =
        Option.map
          (fun c ->
            ( c.Mc_valency.config.Valency.steps,
              List.map
                (fun (o, _) ->
                  match o with Some o -> string_of_int o | None -> "-")
                (Array.to_list c.Mc_valency.moves) ))
          (Mc_valency.find_critical p ~inputs ~max_steps:25)
      in
      Alcotest.(check (option (pair int (list string))))
        (what "critical step and poised objects") crit got)
    valency_pins

(* k, depth, cut, v0. *)
let construct_pins = [ (1, 8, 0, 1); (2, 8, 0, 1); (3, 8, 3, 3); (3, 10, 3, 3) ]

let stabilize_construct () =
  let check h ~t = Elin_checker.Faic.t_linearizable h ~t in
  List.iter
    (fun (k, depth, cut, v0) ->
      let what s = Printf.sprintf "k=%d depth=%d %s" k depth s in
      let impl = Impls.fai_ev_board ~k () in
      let workloads =
        Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:((2 * k) + 6)
      in
      match Elin_core.Stabilize.construct impl ~workloads ~depth ~check () with
      | None -> Alcotest.fail (what "construction failed")
      | Some o ->
        let open Elin_core.Stabilize in
        Alcotest.(check int) (what "cut") cut o.certificate.cut;
        Alcotest.(check int) (what "v0") v0 o.anchor.v0;
        Alcotest.(check string) (what "derived name")
          (Printf.sprintf "fai/ev-board(k=%d)/stabilized" k)
          o.derived.Impl.name)
    construct_pins

(* One process with two atomic ops has one schedule; two processes
   with one invoke/access/respond op each have C(6,3) = 20. *)
let tree_leaves () =
  let direct_fai = Impl.of_spec (Faicounter.spec ()) in
  let leaves workloads =
    (Mc.count_states direct_fai ~workloads ~dedup:false ~por:false ())
      .Search.leaves
  in
  Alcotest.(check int) "single proc" 1
    (leaves [| [ Op.fetch_inc; Op.fetch_inc ] |]);
  Alcotest.(check int) "two procs" 20
    (leaves (Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:1))

let () =
  Alcotest.run "exhaustive-pins"
    [
      ( "exhaustive pins",
        [
          Support.quick "valency protocols at depth 25" valency_at_depth_25;
          Support.quick "stabilize construct" stabilize_construct;
          Support.quick "tree leaf counts" tree_leaves;
        ] );
    ]
