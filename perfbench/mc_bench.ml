(* The mc workloads: [Mc.check] of the announce-board fetch&increment
   (exactly `elin mc -i fai/board`), timed from outside.

   The traced variant re-runs the same search through [Search.bfs] with
   the four per-state layers wrapped in per-domain clocks — a copy of
   [Mc.drive] — so the time splits into successor generation,
   fingerprinting, history extraction and the leaf check, with the rest
   ([search.other_s]: dedup, owner routing, barrier wait, GC, the spill
   store) as the remainder of domains x wall. *)

open Elin_spec
open Elin_checker
open Elin_runtime
open Elin_explore
open Elin_mc
open Common

let domains = 2

type cell = {
  per_proc : int;
  depth : int;
  hot : int option;  (** spill hot-tier capacity per shard; [None] = RAM *)
  states : int;
  leaves : int;
  pruned : int;
  store : (int * int * int) option;
      (** expected sealed segments, disk bytes and spilled records *)
}

let cell ~tiny = function
  | "mc_board" when tiny ->
    { per_proc = 2; depth = 14; hot = None; states = 985; leaves = 206;
      pruned = 138; store = None }
  | "mc_board" ->
    { per_proc = 4; depth = 26; hot = None; states = 608_105;
      leaves = 122_158; pruned = 81_898; store = None }
  | "mc_spill" when tiny ->
    { per_proc = 2; depth = 14; hot = Some 64; states = 985; leaves = 206;
      pruned = 138; store = Some (14, 15_008, 896) }
  | "mc_spill" ->
    { per_proc = 3; depth = 22; hot = Some 1024; states = 23_951;
      leaves = 4876; pruned = 3274; store = Some (22, 362_296, 22_528) }
  | w -> invalid_arg ("not an mc workload: " ^ w)

type setup = {
  impl : Impl.t;
  workloads : Op.t list array;
  pred : Elin_history.History.t -> bool;
}

(* Everything a check needs before its clock starts; the setup probe
   runs exactly this in a fresh process. *)
let setup cell =
  let cfg = Engine.for_spec (Faicounter.spec ()) in
  {
    impl = Impls.fai_from_board ();
    workloads = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:cell.per_proc;
    pred = Engine.linearizable cfg;
  }

let gate_outcome g cell ~ok (s : Search.stats) store =
  if not ok then fail g "verdict is not ok";
  expect_int g "states" ~want:cell.states s.Search.states;
  expect_int g "leaves" ~want:cell.leaves s.Search.leaves;
  expect_int g "pruned" ~want:cell.pruned s.Search.pruned;
  expect_int g "dedup_hits" ~want:0 s.Search.dedup_hits;
  match (cell.store, store) with
  | None, None -> ()
  | Some (segs, bytes, spilled), Some (st : Elin_store.Tiered_set.stats) ->
    expect_int g "store.segments" ~want:segs st.segments;
    expect_int g "store.disk_bytes" ~want:bytes st.disk_bytes;
    expect_int g "store.spilled" ~want:spilled st.spilled;
    expect_int g "store.disk_probe_hits" ~want:0 st.disk_probe_hits
  | Some _, None -> fail g "spill attached but no store stats"
  | None, Some _ -> fail g "store stats without a spill"

(* A fresh spill directory per check, removed afterwards. *)
let with_spill cell ~work f =
  match cell.hot with
  | None -> f None
  | Some hot ->
    let dir = Filename.concat work "spill" in
    fresh_dir dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Some (hot, dir)))

let check_untraced s cell ~work =
  with_spill cell ~work @@ fun sp ->
  let spill = Option.map (fun (hot, dir) -> Mc.spill ~hot dir) sp in
  let t0 = now_s () in
  let out =
    Mc.check s.impl ~workloads:s.workloads ~max_steps:cell.depth ~domains
      ?spill s.pred
  in
  let wall = now_s () -. t0 in
  (out.Mc.ok, out.Mc.stats, Option.bind spill (fun m -> m.Mc.store), wall)

(* ------------------------------------------------------------------ *)
(* Per-domain layer clocks                                            *)
(* ------------------------------------------------------------------ *)

type lane = {
  tid : int;
  mutable succ_n : int;
  mutable succ_ns : int;
  mutable fp_n : int;
  mutable fp_ns : int;
  mutable hist_n : int;
  mutable hist_ns : int;
  mutable leaf_n : int;
  mutable leaf_ns : int;
}

(* One lane per domain that ever ran search work: the default engine
   spawns fresh domains at every level, so lanes outlive their
   domains and are summed, not indexed. *)
let lanes : lane list ref = ref []
let lanes_mu = Mutex.create ()

let lane_key =
  Domain.DLS.new_key (fun () ->
      let l =
        { tid = (Domain.self () :> int); succ_n = 0; succ_ns = 0; fp_n = 0;
          fp_ns = 0; hist_n = 0; hist_ns = 0; leaf_n = 0; leaf_ns = 0 }
      in
      Mutex.protect lanes_mu (fun () -> lanes := l :: !lanes);
      l)

let reset_lanes () =
  List.iter
    (fun l ->
      l.succ_n <- 0; l.succ_ns <- 0; l.fp_n <- 0; l.fp_ns <- 0;
      l.hist_n <- 0; l.hist_ns <- 0; l.leaf_n <- 0; l.leaf_ns <- 0)
    !lanes

let since t0 = Int64.to_int (Int64.sub (now_ns ()) t0)

(* [Mc.drive] for [Mc.check] (POR on, dedup on, no symmetry), with the
   per-state calls clocked into the calling domain's lane. *)
let check_traced s cell ~work =
  with_spill cell ~work @@ fun sp ->
  reset_lanes ();
  let pruned = Atomic.make 0 in
  let leaf c =
    let l = Domain.DLS.get lane_key in
    let t0 = now_ns () in
    let h = Explore.history c in
    let t1 = now_ns () in
    let ok = s.pred h in
    l.hist_n <- l.hist_n + 1;
    l.hist_ns <- l.hist_ns + Int64.to_int (Int64.sub t1 t0);
    l.leaf_n <- l.leaf_n + 1;
    l.leaf_ns <- l.leaf_ns + since t1;
    if ok then None else Some h
  in
  let expand (node : Canon.node) =
    let c = node.Canon.config in
    if Explore.is_done c then Search.Leaf (leaf c)
    else if c.Explore.steps >= cell.depth then Search.Cut (leaf c)
    else begin
      let l = Domain.DLS.get lane_key in
      let t0 = now_ns () in
      let kids = Canon.successors ~por:true ~pruned s.impl node in
      l.succ_n <- l.succ_n + 1;
      l.succ_ns <- l.succ_ns + since t0;
      Search.Children kids
    end
  in
  let fingerprint node =
    let l = Domain.DLS.get lane_key in
    let t0 = now_ns () in
    let fp = Canon.fingerprint node in
    l.fp_n <- l.fp_n + 1;
    l.fp_ns <- l.fp_ns + since t0;
    fp
  in
  let spill =
    Option.map
      (fun (hot, dir) ->
        Search.spill ~hot
          ~payload:(fun (n : Canon.node) -> Int64.of_int n.Canon.sleep)
          ~save_aux:(fun () -> Atomic.get pruned)
          ~restore_aux:(fun v -> Atomic.set pruned v)
          dir)
      sp
  in
  let root = Explore.initial_config s.impl ~workloads:s.workloads () in
  let ts = now_ns () in
  let t0 = now_s () in
  let violations, stats =
    Search.bfs ~domains ~merge:Canon.merge_sleep ?spill ~fingerprint ~expand
      ~compare:Canon.compare_history (Canon.root root)
  in
  let wall = now_s () -. t0 in
  let stats = { stats with Search.pruned = Atomic.get pruned } in
  let store = Option.bind spill (fun sp -> sp.Search.sp_store) in
  (violations = [], stats, store, wall, ts)

(* Aggregated per-domain spans, laid end to end from the run start:
   their durations are summed busy time, not real intervals. *)
let record_lanes ~ts =
  List.iter
    (fun l ->
      let at = ref ts in
      List.iter
        (fun (name, n, ns) ->
          if n > 0 then begin
            span ~cat:"perfbench.layer" ~tid:l.tid ~ts:!at
              ~dur:(Int64.of_int ns)
              ~args:[ ("calls", J.Int n); ("aggregated", J.Bool true) ]
              name;
            at := Int64.add !at (Int64.of_int ns)
          end)
        [
          ("canon.successors", l.succ_n, l.succ_ns);
          ("canon.fingerprint", l.fp_n, l.fp_ns);
          ("explore.history", l.hist_n, l.hist_ns);
          ("engine.leaf_check", l.leaf_n, l.leaf_ns);
        ])
    !lanes

let lane_totals () =
  List.fold_left
    (fun (a : lane) l ->
      { a with
        succ_n = a.succ_n + l.succ_n; succ_ns = a.succ_ns + l.succ_ns;
        fp_n = a.fp_n + l.fp_n; fp_ns = a.fp_ns + l.fp_ns;
        hist_n = a.hist_n + l.hist_n; hist_ns = a.hist_ns + l.hist_ns;
        leaf_n = a.leaf_n + l.leaf_n; leaf_ns = a.leaf_ns + l.leaf_ns })
    { tid = -1; succ_n = 0; succ_ns = 0; fp_n = 0; fp_ns = 0; hist_n = 0;
      hist_ns = 0; leaf_n = 0; leaf_ns = 0 }
    !lanes

let imbalance (s : Search.stats) =
  let pd = Array.map float_of_int s.Search.per_domain in
  let mean = sum pd /. float_of_int (Array.length pd) in
  Array.fold_left max 0. pd /. mean

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

(* Checks repeat until [seconds] have passed, and at least
   [min_checks] times. *)
let min_checks ~tiny = if tiny then 1 else 3

let run ~workload ~tiny ~seconds ~trace ~work ~setup_samples =
  let cell = cell ~tiny workload in
  let g = gates () in
  let s = setup cell in
  let stop = now_s () +. seconds in
  let walls = ref [] and traced = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  (* A check fails when it adds a gate error. *)
  let gated f =
    let before = List.length g.errors in
    incr attempted;
    f ();
    if List.length g.errors > before then incr failed
  in
  let more () = now_s () < stop || List.length !walls < min_checks ~tiny in
  while more () do
    Gc.compact ();
    let ok, stats, store, wall = check_untraced s cell ~work in
    gated (fun () -> gate_outcome g cell ~ok stats store);
    walls := wall :: !walls;
    if trace then begin
      Gc.compact ();
      let ok, stats, store, wall, ts = check_traced s cell ~work in
      let t = lane_totals () in
      gated (fun () ->
          gate_outcome g cell ~ok stats store;
          (* The traced run does the untraced run's work, call for call. *)
          expect_int g "traced successors calls"
            ~want:(cell.states - cell.leaves) t.succ_n;
          expect_int g "traced leaf checks" ~want:cell.leaves t.leaf_n);
      span ~cat:"perfbench" ~ts ~dur:(Int64.of_float (wall *. 1e9))
        ~args:[ ("states", J.Int stats.Search.states);
                ("leaves", J.Int stats.Search.leaves) ]
        ("perfbench." ^ workload);
      record_lanes ~ts;
      traced := (wall, stats, store, t) :: !traced
    end
  done;
  let walls = Array.of_list !walls in
  let detail =
    [
      ("check_wall_s", summary walls);
      ("check_walls", J.Arr (Array.to_list (Array.map (fun w -> J.Float w) walls)));
      ("states", J.Int cell.states);
      ("leaves", J.Int cell.leaves);
      ("pruned", J.Int cell.pruned);
      ("setup_s", summary setup_samples);
    ]
  in
  let metrics =
    if not trace then
      [
        ("setup_s", median setup_samples);
        ("mc_states_per_s", float_of_int cell.states /. median walls);
        ("peak_rss_mb", peak_rss_mb "self");
        ("lat_p50_ms", 1e3 *. median walls);
        (* An mc "job" is one leaf-history check. *)
        ("capacity_jobs_per_s", float_of_int cell.leaves /. median walls);
      ]
    else begin
      let tr = Array.of_list !traced in
      let k = float_of_int (Array.length tr) in
      let mean f = Array.fold_left (fun a x -> a +. f x) 0. tr /. k in
      let secs ns = float_of_int ns /. 1e9 in
      let busy (_, _, _, t) = secs (t.succ_ns + t.fp_ns + t.hist_ns + t.leaf_ns) in
      let store f =
        mean (fun (_, _, st, _) -> Option.fold ~none:0. ~some:f st)
      in
      let open Elin_store.Tiered_set in
      [
        ("lat_p99_ms", 1e3 *. p99_or_max walls);
        ("canon.successors.calls", mean (fun (_, _, _, t) -> float_of_int t.succ_n));
        ("canon.successors.busy_s", mean (fun (_, _, _, t) -> secs t.succ_ns));
        ("canon.fingerprint.calls", mean (fun (_, _, _, t) -> float_of_int t.fp_n));
        ("canon.fingerprint.busy_s", mean (fun (_, _, _, t) -> secs t.fp_ns));
        ("explore.history.busy_s", mean (fun (_, _, _, t) -> secs t.hist_ns));
        ("engine.leaf_check.calls", mean (fun (_, _, _, t) -> float_of_int t.leaf_n));
        ("engine.leaf_check.busy_s", mean (fun (_, _, _, t) -> secs t.leaf_ns));
        ( "search.other_s",
          mean (fun ((w, _, _, _) as x) -> (float_of_int domains *. w) -. busy x) );
        ("search.domain_imbalance", mean (fun (_, st, _, _) -> imbalance st));
        ("store.disk_probes", store (fun st -> float_of_int st.disk_probes));
        ("store.disk_probe_hits", store (fun st -> float_of_int st.disk_probe_hits));
        ("store.segments", store (fun st -> float_of_int st.segments));
        ("store.disk_bytes", store (fun st -> float_of_int st.disk_bytes));
        ( "trace.overhead",
          median (Array.map (fun (w, _, _, _) -> w) tr) /. median walls );
      ]
    end
  in
  { attempted = !attempted; failed = !failed; gate_errors = g.errors; metrics; detail }
