(** Experiment E6: the Figure-1 weak-consistency guard
    (Proposition 11).  An implementation whose histories are
    t-linearizable for some t but not weakly consistent becomes, once
    wrapped, weakly consistent while staying t-linearizable and
    non-blocking. *)

open Elin_spec
open Elin_runtime
open Elin_mc
open Elin_checker
open Elin_core
open Elin_test_support

let fai = Faicounter.spec ()
let ( let* ) = Program.bind

(** An implementation that is "liveness-only": before the board holds
    [k] announcements it answers with an out-of-left-field constant
    (weak-consistency violation); afterwards the announce index
    (linearizable).  Its histories are t-linearizable for t past the
    last bogus response, but not weakly consistent. *)
let weird ~k ~bogus () : Impl.t =
  {
    Impl.name = Printf.sprintf "fai/weird(k=%d)" k;
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
            ((if idx >= k then Value.int idx else Value.int bogus), local)
        | other -> invalid_arg ("fai/weird: unknown operation " ^ other));
  }

let fai_wl procs per_proc = Run.uniform_workload Op.fetch_inc ~procs ~per_proc

let unguarded_violates_weak_consistency () =
  let out =
    Run.execute (weird ~k:4 ~bogus:7 ()) ~workloads:(fai_wl 3 4)
      ~sched:(Sched.random ~seed:5) ()
  in
  Alcotest.(check bool) "weak violated" false
    (Faic.weakly_consistent out.Run.history);
  Alcotest.(check bool) "still t-linearizable for some t" true
    (Faic.min_t out.Run.history <> None)

let guarded_weakly_consistent =
  Support.seeded_prop ~count:40 "guarded histories weakly consistent"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let k = Elin_kernel.Prng.int rng 6 in
      let guarded = Guard.wrap ~spec:fai (weird ~k ~bogus:7 ()) in
      let out =
        Run.execute guarded ~workloads:(fai_wl 3 4)
          ~sched:(Sched.random ~seed) ()
      in
      out.Run.all_done && Faic.weakly_consistent out.Run.history)

let guarded_still_t_linearizable =
  Support.seeded_prop ~count:40 "guarded histories stay eventually lin"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let guarded = Guard.wrap ~spec:fai (weird ~k:4 ~bogus:7 ()) in
      let out =
        Run.execute guarded ~workloads:(fai_wl 2 5)
          ~sched:(Sched.random ~seed) ()
      in
      Eventual.is_eventually_linearizable (Faic.check out.Run.history))

let guarded_exhaustive () =
  (* Exhaustively: every schedule of the guarded implementation yields
     a weakly consistent history. *)
  let guarded = Guard.wrap ~spec:fai (weird ~k:2 ~bogus:9 ()) in
  let { Mc.ok; counterexample = cex; stats } =
    Mc.check guarded ~workloads:(fai_wl 2 2) ~max_steps:18
      (fun h -> Faic.weakly_consistent h)
  in
  (match cex with
  | Some h -> Alcotest.failf "counterexample:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all weakly consistent" true ok;
  Alcotest.(check bool) "real coverage" true (stats.Search.leaves > 50)

let guard_returns_shared_when_justified () =
  (* Wrapping an honest linearizable implementation must not change its
     behaviour: the line-13 test always succeeds, so r_shared flows
     through and histories stay linearizable. *)
  let guarded = Guard.wrap ~spec:fai (Impls.fai_from_board ()) in
  let out =
    Run.execute guarded ~workloads:(fai_wl 3 5) ~sched:(Sched.random ~seed:2) ()
  in
  Alcotest.(check bool) "still linearizable" true
    (Faic.t_linearizable out.Run.history ~t:0)

let guard_private_fallback_counts_own_ops () =
  (* With a never-stabilizing inner implementation whose answers are
     never justifiable, each process falls back to its private state:
     responses are its own op count. *)
  let inner = weird ~k:max_int ~bogus:99 () in
  let guarded = Guard.wrap ~spec:fai inner in
  let out =
    Run.execute guarded ~workloads:(fai_wl 2 3) ~sched:(Sched.round_robin ()) ()
  in
  let by_proc p =
    List.filter_map
      (fun (o : Elin_history.Operation.t) ->
        if o.Elin_history.Operation.proc = p then
          Option.map Value.to_int (Elin_history.Operation.response_value o)
        else None)
      (Elin_history.History.ops out.Run.history)
  in
  Alcotest.(check (list int)) "p0 counts own" [ 0; 1; 2 ] (by_proc 0);
  Alcotest.(check (list int)) "p1 counts own" [ 0; 1; 2 ] (by_proc 1)

let guard_non_blocking () =
  (* The guard adds 2 board accesses per op; operations still finish. *)
  let guarded = Guard.wrap ~spec:fai (weird ~k:3 ~bogus:7 ()) in
  let out =
    Run.execute guarded ~workloads:(fai_wl 3 4) ~sched:(Sched.random ~seed:8) ()
  in
  Alcotest.(check bool) "all done" true out.Run.all_done;
  Alcotest.(check int) "3 accesses per op" 3 out.Run.stats.Run.max_steps_per_op

let guard_on_register_type () =
  (* The guard is type-generic: wrap a register implementation whose
     reads return garbage pre-stabilization. *)
  let reg = Register.spec () in
  let weird_reg : Impl.t =
    {
      Impl.name = "reg/weird";
      bases = [| Base.linearizable (Announce_board.spec ()) |];
      local_init = Value.unit;
      program =
        (fun ~proc ~local op ->
          let* idx =
            Program.access 0
              (Announce_board.announce (Codec.encode_entry ~proc op))
          in
          let idx = Value.to_int idx in
          match Op.name op with
          | "read" ->
            Program.return
              ((if idx >= 4 then Value.int 0 else Value.int 9), local)
          | "write" -> Program.return (Value.unit, local)
          | other -> invalid_arg other);
    }
  in
  let guarded = Guard.wrap ~spec:reg weird_reg in
  let wl = [| [ Op.read; Op.write 1; Op.read ]; [ Op.read; Op.read ] |] in
  let out = Run.execute guarded ~workloads:wl ~sched:(Sched.random ~seed:1) () in
  Alcotest.(check bool) "weakly consistent" true
    (Weak.is_weakly_consistent (Weak.for_spec reg) out.Run.history)

(* --- the appendix's register-array substrate --- *)

let register_guard_weakly_consistent =
  Support.seeded_prop ~count:30 "register-array guard weakly consistent"
    (fun rng ->
      let seed = Elin_kernel.Prng.int rng 100000 in
      let guarded =
        Guard.wrap_registers ~spec:fai ~procs:3 ~max_ops:8 (weird ~k:4 ~bogus:7 ())
      in
      let out =
        Run.execute guarded ~workloads:(fai_wl 3 4)
          ~sched:(Sched.random ~seed) ()
      in
      out.Run.all_done && Faic.weakly_consistent out.Run.history)

let register_guard_matches_board_guard () =
  (* Same inner implementation, same scheduler seeds: the two guard
     substrates must produce the same operation responses (their base
     access counts differ, so event interleavings differ; compare the
     per-process response sequences instead). *)
  let responses impl seed =
    let out =
      Run.execute impl ~workloads:(fai_wl 2 4) ~sched:(Sched.round_robin ())
        ~seed ()
    in
    List.map
      (fun p ->
        List.filter_map
          (fun (o : Elin_history.Operation.t) ->
            if o.Elin_history.Operation.proc = p then
              Elin_history.Operation.response_value o
            else None)
          (Elin_history.History.ops out.Run.history))
      [ 0; 1 ]
  in
  let board = Guard.wrap ~spec:fai (weird ~k:max_int ~bogus:9 ()) in
  let regs =
    Guard.wrap_registers ~spec:fai ~procs:2 ~max_ops:8
      (weird ~k:max_int ~bogus:9 ())
  in
  (* With a never-justifiable inner, both fall back to private counts:
     identical response sequences regardless of substrate pacing. *)
  Alcotest.(check bool) "same responses" true
    (responses board 1 = responses regs 1)

let register_guard_exhausts () =
  let guarded =
    Guard.wrap_registers ~spec:fai ~procs:1 ~max_ops:2 (weird ~k:0 ~bogus:0 ())
  in
  let wl = [| List.init 3 (fun _ -> Op.fetch_inc) |] in
  Alcotest.(check bool) "array exhaustion raises" true
    (match Run.execute guarded ~workloads:wl ~sched:(Sched.round_robin ()) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let register_guard_exhaustive_weak () =
  let guarded =
    Guard.wrap_registers ~spec:fai ~procs:2 ~max_ops:4 (weird ~k:2 ~bogus:9 ())
  in
  let { Mc.ok; counterexample = cex; _ } =
    Mc.check guarded ~workloads:(fai_wl 2 2) ~max_steps:24
      (fun h -> Faic.weakly_consistent h)
  in
  (match cex with
  | Some h -> Alcotest.failf "counterexample:\n%s" (Elin_history.History.to_string h)
  | None -> ());
  Alcotest.(check bool) "all weakly consistent" true ok

(* --- pins --- *)

(* Seeded guarded runs of both substrates: the line-13 searches'
   summed [weak.runs] and [weak.nodes] registry counts and every
   response, in operation order.  Constants recorded once: a change to
   the search or to how the guard builds its pool must not move
   them. *)
let guarded_run_pins () =
  let module C = Elin_obs.Metrics.Counter in
  Elin_obs.Metrics.enable ();
  let m_runs = Elin_obs.Metrics.counter "weak.runs"
  and m_nodes = Elin_obs.Metrics.counter "weak.nodes" in
  let pin name impl ~seed ~runs ~nodes ~responses =
    let runs0 = C.value m_runs and nodes0 = C.value m_nodes in
    let out =
      Run.execute impl ~workloads:(fai_wl 3 4) ~sched:(Sched.random ~seed) ()
    in
    let got =
      List.map
        (fun o ->
          Value.to_int (Option.get (Elin_history.Operation.response_value o)))
        (Elin_history.History.ops out.Run.history)
    in
    let what = Printf.sprintf "%s seed %d" name seed in
    Alcotest.(check int) (what ^ ": runs") runs (C.value m_runs - runs0);
    Alcotest.(check int) (what ^ ": nodes") nodes (C.value m_nodes - nodes0);
    Alcotest.(check (list int)) (what ^ ": responses") responses got
  in
  let board = Guard.wrap ~spec:fai (weird ~k:4 ~bogus:7 ()) in
  let regs =
    Guard.wrap_registers ~spec:fai ~procs:3 ~max_ops:8 (weird ~k:4 ~bogus:7 ())
  in
  pin "board" board ~seed:1 ~runs:12 ~nodes:104
    ~responses:[ 0; 0; 0; 1; 5; 6; 4; 7; 9; 8; 10; 11 ];
  pin "registers" regs ~seed:1 ~runs:12 ~nodes:118
    ~responses:[ 0; 0; 0; 1; 4; 6; 5; 7; 8; 9; 10; 11 ];
  pin "board" board ~seed:2 ~runs:12 ~nodes:109
    ~responses:[ 0; 0; 0; 1; 4; 5; 6; 7; 8; 9; 10; 11 ];
  pin "registers" regs ~seed:2 ~runs:12 ~nodes:163
    ~responses:[ 0; 0; 0; 1; 4; 5; 6; 7; 8; 9; 10; 11 ];
  pin "board" board ~seed:3 ~runs:12 ~nodes:144
    ~responses:[ 0; 0; 0; 4; 1; 5; 6; 8; 7; 9; 10; 11 ];
  pin "registers" regs ~seed:3 ~runs:12 ~nodes:181
    ~responses:[ 0; 0; 0; 1; 5; 4; 6; 7; 8; 9; 10; 11 ]

let () =
  Alcotest.run "guard"
    [
      ( "proposition 11 (E6)",
        [
          Support.quick "unguarded violates" unguarded_violates_weak_consistency;
          guarded_weakly_consistent;
          guarded_still_t_linearizable;
          Support.slow "exhaustive" guarded_exhaustive;
          Support.quick "honest impl unchanged" guard_returns_shared_when_justified;
          Support.quick "private fallback" guard_private_fallback_counts_own_ops;
          Support.quick "non-blocking" guard_non_blocking;
          Support.quick "register type" guard_on_register_type;
        ] );
      ( "appendix register arrays",
        [
          register_guard_weakly_consistent;
          Support.quick "matches board guard" register_guard_matches_board_guard;
          Support.quick "array exhaustion" register_guard_exhausts;
          Support.slow "exhaustive weak" register_guard_exhaustive_weak;
        ] );
      ("pins", [ Support.quick "seeded guarded runs" guarded_run_pins ]);
    ]
