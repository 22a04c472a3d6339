(** The [elin] command-line tool.

    {v
    elin check      — check a history file against a spec
    elin generate   — generate a (linearizable / eventually
                      linearizable / corrupted) history file
    elin run        — execute an implementation and report verdicts
    elin paradox    — run the Prop. 18 construction end to end
    elin mc         — parallel fingerprint-dedup model checking
    elin experiments— run the experiment suite and print the report
    elin batch      — run a JSONL job stream through the checking service
    elin serve      — watch a spool directory of *.jobs files
    elin trace      — validate recorded trace / metrics files
    v}

    Observability: [--trace FILE] on check/mc records span+instant
    events (Chrome trace-event JSON for [.json], canonical JSONL
    otherwise), [--progress SECS] on mc prints live heartbeats,
    [--metrics FILE] on batch writes a metrics snapshot; none of them
    ever change verdicts, output, or exit codes.

    Exit codes are uniform across subcommands ({!Elin_svc.Exit_code}):
    0 every verdict ok, 1 a violation/refutation was found, 2 usage or
    parse error, 3 a budget or timeout was exhausted before a
    verdict. *)

open Cmdliner
open Elin_spec
open Elin_history
open Elin_checker
open Elin_runtime
module Exit_code = Elin_svc.Exit_code

let ok_exit code = `Ok (Exit_code.to_int code)

(* ------------------------------------------------------------------ *)
(* Observability plumbing                                             *)
(* ------------------------------------------------------------------ *)

module Obs = Elin_obs

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a trace of the run into $(docv): Chrome trace-event JSON \
           when it ends in .json (loads in Perfetto / chrome://tracing), \
           canonical JSONL otherwise.  Tracing never changes verdicts, \
           output, or exit codes.")

(* Tracing implies metrics: the aggregated instants (POR-pruned per
   worker per level) are computed from metric shards.  [proc] labels
   the export's meta header so [elin trace merge] can name the
   process lane. *)
let with_trace ?(proc = "elin") trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Metrics.enable ();
    Obs.Trace.enable ();
    Obs.Trace.set_proc proc;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.disable ();
        Obs.Metrics.disable ();
        Obs.Trace.write_file path)
      f

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Append flight-recorder post-mortems to $(docv).  The recorder \
           itself is always on (one bounded ring of recent events per \
           domain, fixed memory); this flag only configures where dumps \
           land when a checker crashes, a job times out, the wire sees a \
           protocol error, or the process receives SIGUSR1.")

(* A sink also arms the SIGUSR1 operator trigger; the sink is cleared
   on the way out so later in-process runs (tests) stay silent. *)
let with_flight flight f =
  match flight with
  | None -> f ()
  | Some path ->
    Obs.Recorder.set_sink (Some path);
    Obs.Recorder.install_sigusr1 ();
    Fun.protect ~finally:(fun () -> Obs.Recorder.set_sink None) f

(* The --progress heartbeat: a sampler domain reads the live registry
   and prints one stderr line per period.  Purely an observer — it
   touches no search state, so it cannot perturb determinism. *)
let progress_loop ~period ~stop =
  let value name =
    match Obs.Metrics.find name with
    | Some (Obs.Metrics.Counter_v n) | Some (Obs.Metrics.Gauge_v n) -> n
    | _ -> 0
  in
  let t_start = Obs.Clock.now_s () in
  let t_last = ref t_start in
  let states_last = ref (value "mc.states") in
  let rec sleep_until target =
    if (not (Atomic.get stop)) && Obs.Clock.now_s () < target then begin
      Unix.sleepf 0.05;
      sleep_until target
    end
  in
  let per_domain_util () =
    (* Share of this tick's states per worker lane, from the live
       per-worker counters; only lanes that did work appear. *)
    let total = ref 0 and parts = ref [] in
    for d = 63 downto 0 do
      let n = value (Printf.sprintf "mc.worker%d.states" d) in
      if n > 0 then begin
        total := !total + n;
        parts := (d, n) :: !parts
      end
    done;
    if !total = 0 || List.length !parts < 2 then ""
    else
      "  util ["
      ^ String.concat " "
          (List.map
             (fun (d, n) ->
               Printf.sprintf "d%d %.0f%%" d
                 (100. *. float_of_int n /. float_of_int !total))
             !parts)
      ^ "]"
  in
  let rec loop () =
    if not (Atomic.get stop) then begin
      sleep_until (!t_last +. period);
      if not (Atomic.get stop) then begin
        let now = Obs.Clock.now_s () in
        let states = value "mc.states" in
        let dt = now -. !t_last in
        let rate =
          if dt > 0. then float_of_int (states - !states_last) /. dt else 0.
        in
        Printf.eprintf
          "[mc %6.1fs] states %d (%.0f/s)  frontier %d  level %d%s\n%!"
          (now -. t_start) states rate (value "mc.frontier")
          (value "mc.level") (per_domain_util ());
        t_last := now;
        states_last := states;
        loop ()
      end
    end
  in
  loop ()

let with_progress secs f =
  match secs with
  | Some s when s > 0. ->
    Obs.Metrics.enable ();
    let stop = Atomic.make false in
    let sampler = Domain.spawn (fun () -> progress_loop ~period:s ~stop) in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join sampler)
      f
  | Some _ | None -> f ()

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                   *)
(* ------------------------------------------------------------------ *)

let spec_names () =
  List.map (fun (e : Zoo.entry) -> Spec.name e.Zoo.spec) (Zoo.all ())

let spec_of_name name =
  match
    List.find_opt
      (fun (e : Zoo.entry) -> Spec.name e.Zoo.spec = name)
      (Zoo.all ())
  with
  | Some e -> Ok e.Zoo.spec
  | None ->
    Error
      (Printf.sprintf "unknown spec %S (available: %s)" name
         (String.concat ", " (spec_names ())))

let spec_arg =
  let doc = "Object type (sequential specification) to check against." in
  Arg.(value & opt string "fetch&increment" & info [ "spec"; "s" ] ~doc)

let seed_arg =
  let doc = "PRNG seed; every run is a pure function of it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let procs_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 2 & info [ "procs"; "p" ] ~doc)

(* ------------------------------------------------------------------ *)
(* elin check                                                         *)
(* ------------------------------------------------------------------ *)

let do_check spec_name file t_flag min_t_flag weak_flag stats_flag budget
    decompose trace =
  match spec_of_name spec_name with
  | Error e -> `Error (false, e)
  | Ok spec ->
    let hist =
      try Ok (Textio.of_file file) with
      | Textio.Parse_error m -> Error ("parse error: " ^ m)
      | History.Ill_formed e ->
        Error (Format.asprintf "ill-formed history: %a" History.pp_error e)
      | Sys_error m -> Error m
    in
    (match hist with
    | Error e -> `Error (false, e)
    | Ok hist -> (
      try
        with_trace ~proc:"check" trace @@ fun () ->
        let code = ref Exit_code.Ok in
        let note c = code := Exit_code.combine !code c in
        (match t_flag with
        | Some t ->
          if decompose then begin
            let dcfg = Decompose.for_spec ?node_budget:budget spec in
            let ok, st = Decompose.t_linearizable_stats dcfg hist ~t in
            Printf.printf "%d-linearizable: %b\n" t ok;
            if not ok then note Exit_code.Violation;
            if stats_flag then
              Format.printf "search stats: %d nodes explored, %d memo hits@.\
                             decompose stats: %a@."
                st.Decompose.nodes st.Decompose.memo_hits Decompose.pp_stats st
          end
          else begin
            let cfg = Engine.for_spec ?node_budget:budget spec in
            let v = Engine.search cfg hist ~t in
            Printf.printf "%d-linearizable: %b\n" t v.Engine.ok;
            if not v.Engine.ok then note Exit_code.Violation;
            if stats_flag then
              Printf.printf "search stats: %d nodes explored, %d memo hits\n"
                v.Engine.nodes_explored v.Engine.memo_hits
          end
        | None -> ());
        if t_flag = None || min_t_flag || weak_flag then begin
          let r, dstats =
            if decompose then
              let r, st = Decompose.analyze ?node_budget:budget spec hist in
              (r, Some st)
            else (Report.analyze ?node_budget:budget spec hist, None)
          in
          Format.printf "%a@." Report.pp r;
          if stats_flag then begin
            Format.printf "%a@." Report.pp_stats r;
            match dstats with
            | Some st -> Format.printf "decompose stats: %a@." Decompose.pp_stats st
            | None -> ()
          end;
          if r.Report.budget_exhausted then note Exit_code.Exhausted
          else if not (Report.is_eventually_linearizable r) then
            note Exit_code.Violation
        end;
        ok_exit !code
      with Engine.Budget_exceeded ->
        (* Uniform for every checker: Weak.Budget_exceeded and
           Engine.Budget_exceeded are the same exception. *)
        Printf.eprintf "node budget (%s) exhausted before a verdict\n%!"
          (match budget with Some b -> string_of_int b | None -> "?");
        ok_exit Exit_code.Exhausted))

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HISTORY-FILE")
  in
  let t_flag =
    Arg.(value & opt (some int) None
         & info [ "t" ] ~doc:"Check t-linearizability at this cut.")
  in
  let min_t_flag =
    Arg.(value & flag & info [ "min-t" ] ~doc:"Report the minimal cut.")
  in
  let weak_flag =
    Arg.(value & flag & info [ "weak" ] ~doc:"Check weak consistency.")
  in
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print exploration statistics (nodes, memo hits, cuts \
                   probed by the min-t search).")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ]
             ~doc:"Node budget: give up after this many DFS expansions.")
  in
  let decompose =
    Arg.(value & flag
         & info [ "decompose" ]
             ~doc:"Split the history into independently checked \
                   sub-histories (per-object projections, gap cuts) and \
                   compose the verdicts; bit-identical results, usually \
                   far fewer nodes on multi-object histories.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a history file against a specification")
    Term.(
      ret
        (const do_check $ spec_arg $ file $ t_flag $ min_t_flag $ weak_flag
       $ stats_flag $ budget $ decompose $ trace_arg))

(* ------------------------------------------------------------------ *)
(* elin generate                                                      *)
(* ------------------------------------------------------------------ *)

let do_generate spec_name procs n_ops seed kind objs out =
  match spec_of_name spec_name with
  | Error e -> `Error (false, e)
  | Ok spec ->
    let rng = Elin_kernel.Prng.create seed in
    let spec_of_obj _ = spec in
    let hist =
      match kind with
      | "linearizable" ->
        if objs <= 1 then Gen.linearizable rng ~spec ~procs ~n_ops ()
        else Gen.mixed rng ~spec_of_obj ~objs ~procs ~n_ops ()
      | "pending" ->
        if objs <= 1 then Gen.linearizable_with_pending rng ~spec ~procs ~n_ops ()
        else Gen.mixed_with_pending rng ~spec_of_obj ~objs ~procs ~n_ops ()
      | "eventual" ->
        if objs <= 1 then
          fst
            (Gen.eventually_linearizable rng ~spec ~procs
               ~prefix_ops:(n_ops / 2)
               ~suffix_ops:(n_ops - (n_ops / 2))
               ())
        else
          let per = max 1 (n_ops / (2 * objs)) in
          fst
            (Gen.mixed_eventual rng ~spec_of_obj ~objs ~procs ~prefix_ops:per
               ~suffix_ops:per ())
      | "corrupt" -> (
        let h =
          if objs <= 1 then Gen.linearizable rng ~spec ~procs ~n_ops ()
          else Gen.mixed rng ~spec_of_obj ~objs ~procs ~n_ops ()
        in
        match Gen.corrupt rng h with Some h' -> h' | None -> h)
      | other ->
        invalid_arg
          (Printf.sprintf
             "unknown kind %S (linearizable|pending|eventual|corrupt)" other)
    in
    (match out with
    | Some path ->
      Textio.to_file path hist;
      Printf.printf "wrote %d events to %s\n" (History.length hist) path
    | None -> print_string (Textio.to_string hist));
    ok_exit Exit_code.Ok

let generate_cmd =
  let n_ops =
    Arg.(value & opt int 10 & info [ "ops"; "n" ] ~doc:"Operations to generate.")
  in
  let kind =
    Arg.(value & opt string "linearizable"
         & info [ "kind"; "k" ]
             ~doc:"One of: linearizable, pending, eventual, corrupt.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~doc:"Output file (stdout if absent).")
  in
  let objs =
    Arg.(value & opt int 1
         & info [ "objs" ]
             ~doc:"Objects: >1 generates a mixed-object history (for kind \
                   eventual, each object runs its own process group).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a history file")
    Term.(
      ret
        (const do_generate $ spec_arg $ procs_arg $ n_ops $ seed_arg $ kind
       $ objs $ out))

(* ------------------------------------------------------------------ *)
(* elin run                                                           *)
(* ------------------------------------------------------------------ *)

let impl_of_name name ~procs =
  match name with
  | "fai/cas" -> Ok (Impls.fai_from_cas (), Op.fetch_inc)
  | "fai/board" -> Ok (Impls.fai_from_board (), Op.fetch_inc)
  | "fai/ev-board" -> Ok (Impls.fai_ev_board ~k:8 (), Op.fetch_inc)
  | "fai/guarded" ->
    Ok
      ( Elin_core.Guard.wrap ~spec:(Faicounter.spec ())
          (Impls.fai_ev_board ~k:8 ()),
        Op.fetch_inc )
  | "fai/universal" ->
    Ok
      ( Elin_core.Universal.construction ~spec:(Faicounter.spec ()) ~cells:256 (),
        Op.fetch_inc )
  | "fai/universal-wf" ->
    Ok
      ( Elin_core.Universal.construction_wait_free ~spec:(Faicounter.spec ())
          ~cells:256 ~procs (),
        Op.fetch_inc )
  | "test&set/ev" -> Ok (Elin_core.Ev_testandset.impl (), Op.test_and_set)
  | "consensus/proposals" ->
    Ok (Elin_core.Ev_consensus.impl ~procs (), Op.propose 1)
  | other ->
    Error
      (Printf.sprintf
         "unknown implementation %S (fai/cas, fai/board, fai/ev-board, \
          fai/guarded, fai/universal, fai/universal-wf, test&set/ev, \
          consensus/proposals)"
         other)

let do_run impl_name procs per_proc seed verbose =
  match impl_of_name impl_name ~procs with
  | Error e -> `Error (false, e)
  | Ok (impl, op) ->
    let workloads =
      match impl_name with
      | "consensus/proposals" ->
        Array.init procs (fun p -> [ Op.propose (p mod 2) ])
      | _ -> Run.uniform_workload op ~procs ~per_proc
    in
    let out = Run.execute impl ~workloads ~sched:(Sched.random ~seed) () in
    if verbose then print_endline (History.to_string out.Run.history);
    Printf.printf
      "implementation: %s\nprocesses: %d  completed ops: %d  scheduler steps: \
       %d  max base-accesses/op: %d\n"
      impl.Impl.name procs out.Run.stats.Run.completed out.Run.stats.Run.steps
      out.Run.stats.Run.max_steps_per_op;
    let spec =
      match impl_name with
      | "test&set/ev" -> Testandset.spec ()
      | "consensus/proposals" -> Consensus_spec.spec ()
      | _ -> Faicounter.spec ()
    in
    let v = Eventual.check_spec spec out.Run.history in
    Printf.printf "linearizable: %b\n"
      (Engine.linearizable (Engine.for_spec spec) out.Run.history);
    Format.printf "eventual-linearizability verdict: %a@."
      Eventual.pp_verdict v;
    ok_exit
      (if Eventual.is_eventually_linearizable v then Exit_code.Ok
       else Exit_code.Violation)

let run_cmd =
  let impl_name =
    Arg.(value & opt string "fai/cas" & info [ "impl"; "i" ] ~doc:"Implementation.")
  in
  let per_proc =
    Arg.(value & opt int 5 & info [ "per-proc" ] ~doc:"Operations per process.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the history.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an implementation and check its history")
    Term.(ret (const do_run $ impl_name $ procs_arg $ per_proc $ seed_arg $ verbose))

(* ------------------------------------------------------------------ *)
(* elin paradox                                                       *)
(* ------------------------------------------------------------------ *)

let do_paradox k depth =
  let check h ~t = Faic.t_linearizable h ~t in
  let impl = Impls.fai_ev_board ~k () in
  let workloads =
    Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:(2 * k + 6)
  in
  Printf.printf
    "A = %s: an eventually linearizable fetch&increment (misbehaves for its \
     first %d announcements)\n"
    impl.Impl.name k;
  match Elin_core.Stabilize.construct impl ~workloads ~depth ~check () with
  | None ->
    Printf.eprintf "construction failed (increase depth?)\n%!";
    ok_exit Exit_code.Violation
  | Some o ->
    let cert = o.Elin_core.Stabilize.certificate in
    Printf.printf
      "stable configuration certified: cut t=%d history events (%d leaves \
       explored to depth %d)\n"
      cert.Elin_core.Stabilize.cut cert.Elin_core.Stabilize.leaves_checked
      cert.Elin_core.Stabilize.extension_depth;
    Printf.printf "anchor op0 found: v0 = %d\n"
      o.Elin_core.Stabilize.anchor.Elin_core.Stabilize.v0;
    let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:3 in
    let ok, _, stats =
      Elin_explore.Explore.for_all_histories o.Elin_core.Stabilize.derived
        ~workloads:wl ~locals:o.Elin_core.Stabilize.derived_locals
        ~max_steps:18
        (fun h -> Faic.t_linearizable h ~t:0)
    in
    Printf.printf
      "A' = %s: exhaustively model-checked LINEARIZABLE on %d schedules: %b\n"
      o.Elin_core.Stabilize.derived.Impl.name stats.Elin_explore.Explore.leaves
      ok;
    if ok then begin
      Printf.printf
        "the paradox, mechanized: the eventually linearizable implementation \
         A contained a fully linearizable implementation A' of the same \
         fetch&increment, over the same base objects.\n";
      ok_exit Exit_code.Ok
    end
    else begin
      Printf.eprintf "derived implementation not linearizable!\n%!";
      ok_exit Exit_code.Violation
    end

let paradox_cmd =
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Misbehaving prefix length.") in
  let depth =
    Arg.(value & opt int 10 & info [ "depth" ] ~doc:"Stability certification depth.")
  in
  Cmd.v
    (Cmd.info "paradox"
       ~doc:"Run the Proposition 18 construction (the paper's paradox) end to end")
    Term.(ret (const do_paradox $ k $ depth))

(* ------------------------------------------------------------------ *)
(* elin valency                                                       *)
(* ------------------------------------------------------------------ *)

let valency_protocol_of_name protocol_name ~stabilize_at =
  let open Elin_valency in
  match protocol_name with
  | "naive-registers" -> Ok (Protocols.naive_registers ())
  | "cas" -> Ok (Protocols.cas ())
  | "regs+ts" -> Ok (Protocols.registers_plus_linearizable_testandset ())
  | "regs+ev-ts" ->
    Ok (Protocols.registers_plus_ev_testandset ~stabilize_at ())
  | "regs+queue" -> Ok (Protocols.registers_plus_linearizable_queue ())
  | "regs+ev-queue" ->
    Ok (Protocols.registers_plus_ev_queue ~stabilize_at ())
  | "regs+fai" -> Ok (Protocols.registers_plus_fai ())
  | other ->
    Error
      (Printf.sprintf
         "unknown protocol %S (naive-registers, cas, regs+ts, regs+ev-ts, \
          regs+queue, regs+ev-queue, regs+fai)"
         other)

let do_valency protocol_name stabilize_at depth =
  let open Elin_valency in
  match valency_protocol_of_name protocol_name ~stabilize_at with
  | Error e -> `Error (false, e)
  | Ok p ->
    let inputs = [| Value.int 0; Value.int 1 |] in
    Printf.printf "protocol: %s  (inputs 0, 1; exhaustive to depth %d)\n"
      p.Valency.name depth;
    let r = Valency.check_consensus p ~inputs ~max_steps:depth in
    Printf.printf "terminated within bound: %b\n" r.Valency.terminated;
    Printf.printf "reachable decision vectors: %s\n"
      (String.concat ", "
         (List.map
            (fun d ->
              Printf.sprintf "(%s)"
                (String.concat ","
                   (List.map Value.to_string (Array.to_list d))))
            r.Valency.decisions));
    (match r.Valency.agreement_violation with
    | Some d ->
      Printf.printf "AGREEMENT VIOLATION: p0 decides %s, p1 decides %s\n"
        (Value.to_string d.(0)) (Value.to_string d.(1))
    | None -> Printf.printf "agreement: holds on all schedules\n");
    (match r.Valency.validity_violation with
    | Some _ -> Printf.printf "VALIDITY VIOLATION\n"
    | None -> Printf.printf "validity: holds on all schedules\n");
    (match Valency.find_critical p ~inputs ~max_steps:depth with
    | Some crit ->
      Printf.printf
        "critical configuration at step %d; poised objects: %s\n"
        crit.Valency.config.Valency.steps
        (String.concat ","
           (List.map
              (fun (o, _) ->
                match o with Some o -> string_of_int o | None -> "-")
              (Array.to_list crit.Valency.moves)))
    | None -> Printf.printf "no critical configuration (protocol univalent or undetermined)\n");
    ok_exit
      (if
         r.Valency.agreement_violation <> None
         || r.Valency.validity_violation <> None
       then Exit_code.Violation
       else Exit_code.Ok)

let valency_cmd =
  let protocol =
    Arg.(value & opt string "cas"
         & info [ "protocol"; "P" ] ~doc:"Candidate consensus protocol.")
  in
  let stabilize_at =
    Arg.(value & opt int 1000
         & info [ "stabilize-at" ]
             ~doc:"Stabilization step of the eventually linearizable object.")
  in
  let depth =
    Arg.(value & opt int 30 & info [ "depth" ] ~doc:"Exploration depth bound.")
  in
  Cmd.v
    (Cmd.info "valency"
       ~doc:"Exhaustive valency analysis of a 2-process consensus protocol \
             (Proposition 15)")
    Term.(ret (const do_valency $ protocol $ stabilize_at $ depth))

(* ------------------------------------------------------------------ *)
(* elin mc                                                            *)
(* ------------------------------------------------------------------ *)

let pp_mc_stats stats =
  let open Elin_mc in
  Printf.printf "states explored: %d\n" stats.Search.states;
  Printf.printf "dedup hits: %d (hit-rate %.1f%%)  por-pruned: %d\n"
    stats.Search.dedup_hits
    (100. *. Search.dedup_rate stats)
    stats.Search.pruned;
  Printf.printf "frontier peak: %d  leaves: %d (cut %d)  levels: %d\n"
    stats.Search.frontier_peak stats.Search.leaves stats.Search.cut
    stats.Search.levels;
  Printf.printf "domains: %d  per-domain states: [%s]\n" stats.Search.domains
    (String.concat "; "
       (List.map string_of_int (Array.to_list stats.Search.per_domain)));
  Printf.printf "wall time: %.3fs\n" stats.Search.wall

(* The canonical JSON rendering of the search stats ([--json]; also
   the shape [bench/main.ml --regress] compares).  Field order is
   fixed so equal runs print byte-identically. *)
let json_of_stats stats =
  let open Elin_mc in
  let open Elin_svc.Jsonl in
  Obj
    [
      ("states", Int stats.Search.states);
      ("dedup_hits", Int stats.Search.dedup_hits);
      ("kept", Int stats.Search.kept);
      ("pruned", Int stats.Search.pruned);
      ("frontier_peak", Int stats.Search.frontier_peak);
      ("leaves", Int stats.Search.leaves);
      ("cut", Int stats.Search.cut);
      ("levels", Int stats.Search.levels);
      ("domains", Int stats.Search.domains);
      ("wall", Float stats.Search.wall);
    ]

(* Resolved mc run parameters: everything that shapes the state space
   or the search partitioning.  [identity_of_params] is the canonical
   JSON rendering — embedded in every checkpoint manifest, validated
   on resume by {!Elin_mc.Search} (byte equality), and parsed back by
   [--resume] so the workload flags need not (and must not) be
   repeated. *)
type mc_params = {
  q_impl : string option;  (* [None] = the valency workload *)
  q_protocol : string;
  q_stabilize_at : int;
  q_procs : int;
  q_per_proc : int;
  q_depth : int;
  q_domains : int;  (* resolved: >= 1, never the 0 sentinel *)
  q_dedup : bool;
  q_por : bool;
  q_symmetry : bool;
  q_hot : int;
  q_every : int;
}

let identity_of_params p =
  let open Elin_svc.Jsonl in
  to_string
    (Obj
       [
         ( "mode",
           Str (match p.q_impl with None -> "valency" | Some _ -> "impl") );
         ("impl", match p.q_impl with None -> Null | Some i -> Str i);
         ("protocol", if p.q_impl = None then Str p.q_protocol else Null);
         ( "stabilize_at",
           if p.q_impl = None then Int p.q_stabilize_at else Null );
         ("procs", Int p.q_procs);
         ("per_proc", Int p.q_per_proc);
         ("depth", Int p.q_depth);
         ("domains", Int p.q_domains);
         ("dedup", Bool p.q_dedup);
         ("por", Bool p.q_por);
         ("symmetry", Bool p.q_symmetry);
         ("spill_hot", Int p.q_hot);
         ("checkpoint_every", Int p.q_every);
       ])

(* Inverse of [identity_of_params].  Building the record back and
   re-rendering it must round-trip byte-identically (field order is
   fixed), or the search's manifest identity check would refuse its
   own checkpoints. *)
let params_of_identity s =
  let open Elin_svc.Jsonl in
  match of_string s with
  | exception Parse_error e ->
    Error (Printf.sprintf "manifest identity unreadable: %s" e)
  | id -> (
    match
      ( int_mem "procs" id,
        int_mem "per_proc" id,
        int_mem "depth" id,
        int_mem "domains" id,
        bool_mem "dedup" id,
        bool_mem "por" id,
        bool_mem "symmetry" id,
        int_mem "spill_hot" id,
        int_mem "checkpoint_every" id )
    with
    | ( Some procs,
        Some per_proc,
        Some depth,
        Some domains,
        Some dedup,
        Some por,
        Some symmetry,
        Some hot,
        Some every ) ->
      Ok
        {
          q_impl = str_mem "impl" id;
          q_protocol = Option.value (str_mem "protocol" id) ~default:"cas";
          q_stabilize_at =
            Option.value (int_mem "stabilize_at" id) ~default:1000;
          q_procs = procs;
          q_per_proc = per_proc;
          q_depth = depth;
          q_domains = domains;
          q_dedup = dedup;
          q_por = por;
          q_symmetry = symmetry;
          q_hot = hot;
          q_every = every;
        }
    | _ -> Error "manifest identity is missing required fields")

(* Spill-tier result fields, appended to the canonical JSON object
   only when --spill/--resume is active: [json_of_stats] itself keeps
   its shape, so committed bench baselines and [--regress] diffs are
   unaffected. *)
let spill_json_fields msp ~resume =
  let open Elin_svc.Jsonl in
  match msp with
  | None -> []
  | Some (m : Elin_mc.Mc.spill) ->
    let store =
      match m.Elin_mc.Mc.store with
      | None -> Null
      | Some s ->
        let open Elin_store.Tiered_set in
        Obj
          [
            ("segments", Int s.segments);
            ("disk_bytes", Int s.disk_bytes);
            ("spilled", Int s.spilled);
            ("hot", Int s.hot);
            ("flushes", Int s.flushes);
            ("disk_probes", Int s.disk_probes);
            ("disk_probe_hits", Int s.disk_probe_hits);
          ]
    in
    [
      ("spill", Str m.Elin_mc.Mc.dir);
      ("resumed", Bool resume);
      ( "resumed_from",
        match m.Elin_mc.Mc.resumed_from with
        | None -> Null
        | Some seq -> Int seq );
      ("store", store);
    ]

let pp_spill msp =
  match msp with
  | None -> ()
  | Some (m : Elin_mc.Mc.spill) ->
    (match m.Elin_mc.Mc.resumed_from with
    | Some seq ->
      Printf.printf "resumed from checkpoint %d in %s\n" seq m.Elin_mc.Mc.dir
    | None -> ());
    (match m.Elin_mc.Mc.store with
    | Some s ->
      let open Elin_store.Tiered_set in
      Printf.printf
        "spill: %d segments (%d bytes, %d fingerprints) under %s; hot %d; \
         flushes %d; disk probes %d (%d hits)\n"
        s.segments s.disk_bytes s.spilled m.Elin_mc.Mc.dir s.hot s.flushes
        s.disk_probes s.disk_probe_hits
    | None -> ())

let do_mc impl_name protocol_name stabilize_at procs per_proc depth domains
    no_dedup no_por symmetry json trace progress spill_dir spill_hot ckpt_every
    resume_dir crash_after =
  let open Elin_mc in
  if domains < 0 then
    `Error
      ( false,
        Printf.sprintf "--domains must be >= 0 (0 = recommended), got %d"
          domains )
  else if spill_hot < 1 then
    `Error
      (false, Printf.sprintf "--spill-hot must be >= 1, got %d" spill_hot)
  else if ckpt_every < 0 then
    `Error
      ( false,
        Printf.sprintf "--checkpoint-every must be >= 0, got %d" ckpt_every )
  else if ckpt_every > 0 && spill_dir = None && resume_dir = None then
    `Error (false, "--checkpoint-every requires --spill DIR")
  else if resume_dir <> None && spill_dir <> None then
    `Error (false, "--resume already names the spill directory; drop --spill")
  else if crash_after <> None && ckpt_every = 0 && resume_dir = None then
    `Error (false, "--crash-after-checkpoint requires --checkpoint-every")
  else if crash_after <> None && impl_name = None && resume_dir = None then
    `Error
      ( false,
        "--crash-after-checkpoint requires --impl (crash injection hooks \
         state expansion)" )
  else
  (* Under [--resume DIR] every workload/search parameter is dictated
     by the newest committed manifest's identity; only the output and
     observability flags are honoured.  Any corruption here — and in
     the run itself below — is a loud exit 2, never a silent recheck
     from scratch. *)
  let params =
    match resume_dir with
    | None ->
      Ok
        {
          q_impl = impl_name;
          q_protocol = protocol_name;
          q_stabilize_at = stabilize_at;
          (* Valency runs ignore procs/per_proc/symmetry: pin them so
             the identity string is canonical. *)
          q_procs = (if impl_name = None then 2 else procs);
          q_per_proc = (if impl_name = None then 0 else per_proc);
          q_depth = depth;
          q_domains =
            (if domains = 0 then Domain.recommended_domain_count ()
             else domains);
          q_dedup = not no_dedup;
          q_por = not no_por;
          q_symmetry = impl_name <> None && symmetry;
          q_hot = spill_hot;
          q_every = ckpt_every;
        }
    | Some dir -> (
      try
        match Elin_store.Checkpoint.load_latest ~dir with
        | None ->
          Error
            (Printf.sprintf "--resume %s: no committed checkpoint manifest"
               dir)
        | Some m -> (
          match params_of_identity m.Elin_store.Checkpoint.identity with
          | Ok p -> Ok p
          | Error e -> Error (Printf.sprintf "--resume %s: %s" dir e))
      with Elin_store.Segment.Corrupt msg ->
        Error (Printf.sprintf "--resume %s: %s" dir msg))
  in
  match params with
  | Error msg ->
    Printf.eprintf "elin mc: %s\n%!" msg;
    ok_exit Exit_code.Usage
  | Ok p ->
  with_trace ~proc:"mc" trace @@ fun () ->
  with_progress progress @@ fun () ->
  let impl_name = p.q_impl in
  let protocol_name = p.q_protocol in
  let stabilize_at = p.q_stabilize_at in
  let procs = p.q_procs in
  let per_proc = p.q_per_proc in
  let depth = p.q_depth in
  let domains = Some p.q_domains in
  let dedup = p.q_dedup in
  let por = p.q_por in
  let symmetry = p.q_symmetry in
  let resume = resume_dir <> None in
  let spill_dir =
    match resume_dir with Some d -> Some d | None -> spill_dir
  in
  (* --crash-after-checkpoint K: once checkpoint K commits, let ~200
     more states expand, then SIGKILL ourselves — a genuine mid-level
     crash for the resume tests.  The fuse races across domains;
     exactly one decrement observes 1. *)
  let crash_fuse = Atomic.make 0 in
  let on_checkpoint seq =
    match crash_after with
    | Some k when seq = k -> Atomic.set crash_fuse 200
    | _ -> ()
  in
  let on_state () =
    if
      crash_after <> None
      && Atomic.get crash_fuse > 0
      && Atomic.fetch_and_add crash_fuse (-1) = 1
    then Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let msp =
    Option.map
      (fun dir ->
        Mc.spill ~hot:p.q_hot ~every:p.q_every
          ~identity:(identity_of_params p) ~on_checkpoint dir)
      spill_dir
  in
  let human fmt =
    Printf.ksprintf (fun s -> if not json then print_string s) fmt
  in
  let emit_json fields =
    if json then
      print_endline (Elin_svc.Jsonl.to_string (Elin_svc.Jsonl.Obj fields))
  in
  let run () =
    match impl_name with
  | None -> (
    (* The E9 valency workload: exhaustive consensus analysis. *)
    match valency_protocol_of_name protocol_name ~stabilize_at with
    | Error e -> `Error (false, e)
    | Ok p ->
      let inputs = [| Value.int 0; Value.int 1 |] in
      human
        "mc: valency protocol %s (inputs 0, 1; exhaustive to depth %d; dedup \
         %s, por %s)\n"
        p.Elin_valency.Valency.name depth
        (if dedup then "on" else "off")
        (if por then "on" else "off");
      let r = Mc_valency.check_consensus p ~inputs ~max_steps:depth ?domains
          ~dedup ~por ?spill:msp ~resume () in
      if not json then begin
        pp_mc_stats r.Mc_valency.stats;
        pp_spill msp
      end;
      human "terminated within bound: %b\n" r.Mc_valency.terminated;
      human "reachable decision vectors: %s\n"
        (String.concat ", "
           (List.map
              (fun d ->
                Printf.sprintf "(%s)"
                  (String.concat ","
                     (List.map Value.to_string (Array.to_list d))))
              r.Mc_valency.decisions));
      (match r.Mc_valency.agreement_violation with
      | Some d ->
        human "AGREEMENT VIOLATION: p0 decides %s, p1 decides %s\n"
          (Value.to_string d.(0)) (Value.to_string d.(1))
      | None -> human "agreement: holds on all schedules\n");
      (match r.Mc_valency.validity_violation with
      | Some _ -> human "VALIDITY VIOLATION\n"
      | None -> human "validity: holds on all schedules\n");
      let open Elin_svc.Jsonl in
      let jvec d =
        Arr (List.map (fun v -> Str (Value.to_string v)) (Array.to_list d))
      in
      let jvec_opt = function None -> Null | Some d -> jvec d in
      emit_json
        ([
           ("mode", Str "valency");
           ("protocol", Str p.Elin_valency.Valency.name);
           ("depth", Int depth);
           ("dedup", Bool dedup);
           ("por", Bool por);
           ("terminated", Bool r.Mc_valency.terminated);
           ("decisions", Arr (List.map jvec r.Mc_valency.decisions));
           ("agreement_violation", jvec_opt r.Mc_valency.agreement_violation);
           ("validity_violation", jvec_opt r.Mc_valency.validity_violation);
           ("stats", json_of_stats r.Mc_valency.stats);
         ]
        @ spill_json_fields msp ~resume);
      ok_exit
        (if
           r.Mc_valency.agreement_violation <> None
           || r.Mc_valency.validity_violation <> None
         then Exit_code.Violation
         else Exit_code.Ok))
  | Some impl_name -> (
    match impl_of_name impl_name ~procs with
    | Error e -> `Error (false, e)
    | Ok (impl, op) ->
      let workloads =
        match impl_name with
        | "consensus/proposals" ->
          Array.init procs (fun p -> [ Op.propose (p mod 2) ])
        | _ -> Run.uniform_workload op ~procs ~per_proc
      in
      let spec =
        match impl_name with
        | "test&set/ev" -> Testandset.spec ()
        | "consensus/proposals" -> Consensus_spec.spec ()
        | _ -> Faicounter.spec ()
      in
      let cfg = Engine.for_spec spec in
      human
        "mc: %s, %d procs x %d ops, exhaustive to depth %d (dedup %s, por \
         %s%s)\n"
        impl.Impl.name procs per_proc depth
        (if dedup then "on" else "off")
        (if por then "on" else "off")
        (if symmetry then ", symmetry reduction" else "");
      let out =
        Mc.check impl ~workloads ~max_steps:depth ?domains ~dedup ~symmetry
          ~por ?spill:msp ~resume ~on_state
          (fun h -> Engine.linearizable cfg h)
      in
      if not json then begin
        pp_mc_stats out.Mc.stats;
        pp_spill msp
      end;
      (match out.Mc.counterexample with
      | None ->
        human "linearizable on every explored schedule: %b\n" out.Mc.ok
      | Some h ->
        human "NOT linearizable; lexicographically minimal counterexample:\n%s"
          (History.to_string h));
      let open Elin_svc.Jsonl in
      emit_json
        ([
           ("mode", Str "impl");
           ("impl", Str impl.Impl.name);
           ("procs", Int procs);
           ("per_proc", Int per_proc);
           ("depth", Int depth);
           ("dedup", Bool dedup);
           ("por", Bool por);
           ("symmetry", Bool symmetry);
           ("ok", Bool out.Mc.ok);
           ( "counterexample",
             match out.Mc.counterexample with
             | None -> Null
             | Some h -> Str (History.to_string h) );
           ("stats", json_of_stats out.Mc.stats);
         ]
        @ spill_json_fields msp ~resume);
      ok_exit (if out.Mc.ok then Exit_code.Ok else Exit_code.Violation))
  in
  (try run ()
   with Elin_store.Segment.Corrupt msg ->
     Printf.eprintf "elin mc: %s\n%!" msg;
     ok_exit Exit_code.Usage)

let mc_cmd =
  let impl_name =
    Arg.(value & opt (some string) None
         & info [ "impl"; "i" ]
             ~doc:"Model-check this implementation's execution tree \
                   (default: the valency workload instead).")
  in
  let protocol =
    Arg.(value & opt string "cas"
         & info [ "protocol"; "P" ]
             ~doc:"Consensus protocol for the valency workload.")
  in
  let stabilize_at =
    Arg.(value & opt int 1000
         & info [ "stabilize-at" ]
             ~doc:"Stabilization step of the eventually linearizable object.")
  in
  let per_proc =
    Arg.(value & opt int 1 & info [ "per-proc" ] ~doc:"Operations per process.")
  in
  let depth =
    Arg.(value & opt int 20 & info [ "depth" ] ~doc:"Exploration step bound.")
  in
  let domains =
    Arg.(value & opt int 0
         & info [ "domains" ]
             ~doc:"Parallel search domains (0 = recommended count; 1 = \
                   sequential).")
  in
  let no_dedup =
    Arg.(value & flag
         & info [ "no-dedup" ] ~doc:"Disable fingerprinted state dedup.")
  in
  let no_por =
    Arg.(value & flag
         & info [ "no-por" ]
             ~doc:"Disable sleep-set partial-order reduction (on by default; \
                   never changes the verdict, only the work done).")
  in
  let symmetry =
    Arg.(value & flag
         & info [ "symmetry" ]
             ~doc:"Quotient by process renaming (identical workloads and \
                   process-oblivious implementations only; disables POR).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the result as one canonical JSON object on stdout \
                   instead of the human-readable report.")
  in
  let progress =
    Arg.(value & opt (some float) None
         & info [ "progress" ] ~docv:"SECS"
             ~doc:"Print a live heartbeat line (states/s, frontier size, \
                   per-domain utilization) to stderr every $(docv) seconds \
                   during the run.")
  in
  let spill =
    Arg.(value & opt (some string) None
         & info [ "spill" ] ~docv:"DIR"
             ~doc:"Spill the visited set to an on-disk segment tier under \
                   $(docv) (created if missing), bounding resident \
                   fingerprints by $(b,--spill-hot).  Verdicts, counts and \
                   counterexamples are bit-identical to the all-RAM run.")
  in
  let spill_hot =
    Arg.(value & opt int (1 lsl 20)
         & info [ "spill-hot" ] ~docv:"N"
             ~doc:"Hot-tier capacity per visited-set shard, in fingerprints; \
                   a full shard seals a sorted segment to disk.")
  in
  let checkpoint_every =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"With $(b,--spill): seal a resumable checkpoint at every \
                   $(docv)-th BFS level barrier (0 = never).  A crashed or \
                   killed run then continues with $(b,--resume) to the \
                   identical verdict and counts.")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR"
             ~doc:"Resume from the newest committed checkpoint under \
                   $(docv).  The run's workload and search parameters are \
                   read back from the checkpoint manifest — they must not \
                   be repeated (workload flags are ignored).  Corrupt or \
                   mismatched state fails loudly with exit code 2.")
  in
  let crash_after =
    Arg.(value & opt (some int) None
         & info [ "crash-after-checkpoint" ] ~docv:"K"
             ~doc:"(testing) SIGKILL this process roughly 200 state \
                   expansions after checkpoint $(docv) commits — a genuine \
                   mid-level crash for the resume smoke test.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Parallel fingerprint-dedup model checking of an execution tree \
             (implementations or the Prop. 15 valency workload)")
    Term.(
      ret
        (const do_mc $ impl_name $ protocol $ stabilize_at $ procs_arg
       $ per_proc $ depth $ domains $ no_dedup $ no_por $ symmetry
       $ json $ trace_arg $ progress $ spill $ spill_hot $ checkpoint_every
       $ resume $ crash_after))

(* ------------------------------------------------------------------ *)
(* elin serafini                                                      *)
(* ------------------------------------------------------------------ *)

let do_serafini family probes =
  let table =
    match family with
    | "delayed-winner" ->
      let ts = Testandset.spec () in
      Ok
        (Serafini.family_min_ts Serafini.delayed_winner_family
           ~min_t:(Eventual.min_t (Engine.for_spec ts))
           ~probes)
    | "ev-board" ->
      let fam per_proc =
        let impl = Impls.fai_ev_board ~k:3 () in
        let wl = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc in
        (Run.execute impl ~workloads:wl ~sched:(Sched.round_robin ()) ())
          .Run.history
      in
      Ok (Serafini.family_min_ts fam ~min_t:Faic.min_t ~probes)
    | other ->
      Error
        (Printf.sprintf "unknown family %S (delayed-winner, ev-board)" other)
  in
  match table with
  | Error e -> `Error (false, e)
  | Ok table ->
    Printf.printf "probe  min_t\n";
    List.iter
      (fun (i, t) ->
        Printf.printf "%5d  %s\n" i
          (match t with Some t -> string_of_int t | None -> "none"))
      table;
    Format.printf "verdict: %a@." Serafini.pp_verdict (Serafini.classify table);
    ok_exit Exit_code.Ok

let serafini_cmd =
  let family =
    Arg.(value & opt string "delayed-winner"
         & info [ "family"; "f" ] ~doc:"History family (delayed-winner, ev-board).")
  in
  let probes =
    Arg.(value & opt (list int) [ 1; 3; 6; 9 ]
         & info [ "probes" ] ~doc:"Family indices to tabulate.")
  in
  Cmd.v
    (Cmd.info "serafini"
       ~doc:"Compare the per-execution and uniform-bound definitions of \
             eventual linearizability on a history family (Section 2)")
    Term.(ret (const do_serafini $ family $ probes))

(* ------------------------------------------------------------------ *)
(* elin experiments                                                   *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the experiment suite (quick versions) and print the report")
    Term.(
      ret
        (const (fun () ->
             Experiments.run_all ();
             ok_exit Exit_code.Ok)
        $ const ()))

(* ------------------------------------------------------------------ *)
(* elin batch / elin serve                                            *)
(* ------------------------------------------------------------------ *)

let domains_svc_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~doc:"Worker domains in the checking pool.")

let job_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "job-budget" ]
           ~doc:"Default node budget per job (jobs may override).")

let timeout_ms_arg =
  Arg.(value & opt (some int) None
       & info [ "timeout-ms" ]
           ~doc:"Default wall-clock timeout per job, in milliseconds \
                 (jobs may override).")

let no_reuse_arg =
  Arg.(value & flag
       & info [ "no-reuse" ]
           ~doc:"Disable prepared-history reuse across jobs sharing a \
                 (spec, history) pair.")

let svc_stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Include per-job wall_ms in verdicts and print a pool \
                 metrics line on stderr.  Off by default so output is \
                 byte-deterministic.")

let read_all_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* Graceful-shutdown signals for the serving modes: SIGINT (operator
   Ctrl-C) and SIGTERM (init systems, `kill`, CI harnesses) both
   request a stop instead of killing the process, so in-flight work
   finishes and the final metrics line is flushed.  Returns the stop
   flag and a restorer that reinstates whatever handlers were there
   before. *)
let install_stop_signals () =
  let stop_requested = Atomic.make false in
  let install signal =
    try
      Some
        ( signal,
          Sys.signal signal
            (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)) )
    with Invalid_argument _ | Sys_error _ -> None
  in
  let saved = List.filter_map install [ Sys.sigint; Sys.sigterm ] in
  let restore () =
    List.iter
      (fun (signal, h) -> try Sys.set_signal signal h with _ -> ())
      saved
  in
  (stop_requested, restore)

(* Fold the pool-level snapshot into the obs registry (counters by
   dotted name) so the --metrics file is ONE vocabulary: engine/kernel
   counters collected live during the run plus the svc totals. *)
let mirror_svc_snapshot (s : Elin_svc.Metrics.snapshot) =
  let c name v = Obs.Metrics.Counter.add (Obs.Metrics.counter name) v in
  c "svc.submitted" s.Elin_svc.Metrics.submitted;
  c "svc.completed" s.Elin_svc.Metrics.completed;
  c "svc.pass" s.Elin_svc.Metrics.pass;
  c "svc.violations" s.Elin_svc.Metrics.violations;
  c "svc.budget_exhausted" s.Elin_svc.Metrics.budget_exhausted;
  c "svc.timed_out" s.Elin_svc.Metrics.timed_out;
  c "svc.cancelled" s.Elin_svc.Metrics.cancelled;
  c "svc.busy" s.Elin_svc.Metrics.busy;
  c "svc.bad_jobs" s.Elin_svc.Metrics.bad_jobs;
  c "svc.failed" s.Elin_svc.Metrics.failed;
  c "svc.nodes" s.Elin_svc.Metrics.nodes;
  c "svc.prepare_hits" s.Elin_svc.Metrics.prepare_hits;
  c "svc.prepare_misses" s.Elin_svc.Metrics.prepare_misses

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a metrics snapshot of the run to $(docv) as JSONL (one \
           metric per line, sorted by name): pool totals plus live \
           engine/kernel/svc counters and latency histograms.")

(* Client mode of `elin batch`: parse lines locally (unparseable lines
   stay local bad_job verdicts, same as the pool driver), pipeline the
   good jobs to a server, and merge everything back in submission
   order.  Canonical verdict lines re-serialize byte-identically, so
   the output matches a local run against the same pool settings. *)
let batch_over_socket addr lines stats =
  let parsed = Elin_svc.Pool.parse_jobs lines in
  let jobs =
    List.filter_map (function `Job j -> Some j | `Bad _ -> None) parsed
  in
  let bad =
    List.filter_map (function `Bad v -> Some v | `Job _ -> None) parsed
  in
  let remote = Elin_net.Client.run_jobs addr jobs in
  let verdicts =
    List.sort
      (fun a b -> compare a.Elin_svc.Verdict.seq b.Elin_svc.Verdict.seq)
      (bad @ remote)
  in
  List.iter
    (fun v -> print_endline (Elin_svc.Verdict.to_line ~stats v))
    verdicts;
  verdicts

let do_batch domains job_budget timeout_ms no_reuse stats metrics_out connect
    decompose trace flight input =
  if domains < 1 then
    `Error (false, Printf.sprintf "--domains must be >= 1, got %d" domains)
  else
    with_flight flight @@ fun () ->
    with_trace ~proc:"batch" trace @@ fun () ->
    let lines =
      match input with
      | None -> read_all_lines stdin
      | Some path ->
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> read_all_lines ic)
    in
    match connect with
    | Some addr_s -> (
      match Elin_net.Addr.of_string addr_s with
      | Error e -> `Error (false, e)
      | Ok addr -> (
        match batch_over_socket addr lines stats with
        | verdicts -> ok_exit (Exit_code.of_verdicts verdicts)
        | exception Failure m ->
          Printf.eprintf "elin batch --connect %s: %s\n%!" addr_s m;
          ok_exit Exit_code.Usage
        | exception Unix.Unix_error (err, fn, _) ->
          Printf.eprintf "elin batch --connect %s: %s: %s\n%!" addr_s fn
            (Unix.error_message err);
          ok_exit Exit_code.Usage))
    | None ->
      if metrics_out <> None then Obs.Metrics.enable ();
      let metrics = Elin_svc.Metrics.create () in
      let run =
        if decompose then Elin_svc.Split.run_lines else Elin_svc.Pool.run_lines
      in
      let verdicts =
        run ?queue_capacity:None ?default_budget:job_budget
          ?default_timeout_ms:timeout_ms ?reuse:(Some (not no_reuse))
          ?resolve:None ~metrics ~domains lines
      in
      List.iter
        (fun v -> print_endline (Elin_svc.Verdict.to_line ~stats v))
        verdicts;
      if stats then
        Format.eprintf "%a@." Elin_svc.Metrics.pp_snapshot
          (Elin_svc.Metrics.snapshot metrics);
      (match metrics_out with
      | None -> ()
      | Some path ->
        mirror_svc_snapshot (Elin_svc.Metrics.snapshot metrics);
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Obs.Metrics.write_jsonl oc));
      ok_exit (Exit_code.of_verdicts verdicts)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Send the jobs to a running $(b,elin serve --listen) server at \
           $(docv) (unix:PATH or tcp:HOST:PORT) instead of checking \
           locally.  Pool options (--domains, --job-budget, --timeout-ms, \
           --no-reuse) are the server's business and are ignored here.")

let batch_cmd =
  let input =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"JOBS-FILE"
             ~doc:"JSONL job file; reads stdin when absent.")
  in
  let decompose =
    Arg.(value & flag
         & info [ "decompose" ]
             ~doc:"Split each multi-object job into one pool job per \
                   object and compose the verdicts (equal statuses and \
                   min_t; node counts are summed across sub-jobs).  \
                   Multi-object batches then parallelize across \
                   --domains.  Local checking only (ignored with \
                   --connect).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a JSONL stream of checking jobs through the worker pool \
             (or a socket server with --connect) and print one JSONL \
             verdict per job, in submission order (independent of \
             --domains)")
    Term.(
      ret
        (const do_batch $ domains_svc_arg $ job_budget_arg $ timeout_ms_arg
       $ no_reuse_arg $ svc_stats_arg $ metrics_out_arg $ connect_arg
       $ decompose $ trace_arg $ flight_arg $ input))

(* The final metrics line both serve modes flush on shutdown. *)
let print_final_metrics ?queue_depth metrics =
  Printf.eprintf "%s\n%!"
    (Elin_svc.Jsonl.to_string
       (Elin_svc.Jsonl.Obj
          [
            ("final", Elin_svc.Jsonl.Bool true);
            ( "metrics",
              Elin_svc.Metrics.snapshot_to_json
                (Elin_svc.Metrics.snapshot ?queue_depth metrics) );
          ]))

let serve_spool domains job_budget timeout_ms no_reuse stats dir once poll_ms =
  if once then begin
    let n =
      Elin_svc.Spool.scan_once ?default_budget:job_budget
        ?default_timeout_ms:timeout_ms ~reuse:(not no_reuse) ~stats ~domains
        ~dir ()
    in
    Printf.printf "processed %d job file(s)\n" n;
    ok_exit Exit_code.Ok
  end
  else begin
    Printf.printf "watching %s (poll every %dms; Ctrl-C to stop)\n%!" dir
      poll_ms;
    (* SIGINT/SIGTERM request a stop (checked between scans) instead
       of killing the process, so the metrics accumulated across every
       processed file are flushed, not dropped. *)
    let stop_requested, restore_signals = install_stop_signals () in
    let metrics = Elin_svc.Metrics.create () in
    (try
       Elin_svc.Spool.watch ?default_budget:job_budget
         ?default_timeout_ms:timeout_ms ~reuse:(not no_reuse) ~stats ~metrics
         ~poll_ms
         ~stop:(fun () -> Atomic.get stop_requested)
         ~domains ~dir ()
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    restore_signals ();
    print_final_metrics metrics;
    ok_exit Exit_code.Ok
  end

let serve_socket domains job_budget timeout_ms no_reuse stats addr_s admission
    queue test_specs telemetry_s =
  match Elin_net.Addr.of_string addr_s with
  | Error e -> `Error (false, e)
  | Ok addr -> (
    let telemetry_addr =
      match telemetry_s with
      | None -> Ok None
      | Some s -> (
        match Elin_net.Addr.of_string s with
        | Ok a -> Ok (Some a)
        | Error e -> Error e)
    in
    match telemetry_addr with
    | Error e -> `Error (false, Printf.sprintf "--telemetry: %s" e)
    | Ok telemetry_addr -> (
      let metrics = Elin_svc.Metrics.create () in
      let resolve =
        if test_specs then Some Elin_net.Load.test_resolve else None
      in
      match
        Elin_net.Server.start ~domains ?default_budget:job_budget
          ?default_timeout_ms:timeout_ms ~reuse:(not no_reuse) ~stats ~metrics
          ~admission ~queue_capacity:queue ?resolve addr
      with
      | exception Failure m -> `Error (false, m)
      | exception Unix.Unix_error (err, fn, _) ->
        `Error
          ( false,
            Printf.sprintf "--listen %s: %s: %s" addr_s fn
              (Unix.error_message err) )
      | srv ->
        let shown =
          match (addr, Elin_net.Server.port srv) with
          | Elin_net.Addr.Tcp (h, 0), Some p ->
            Elin_net.Addr.to_string (Elin_net.Addr.Tcp (h, p))
          | _ -> Elin_net.Addr.to_string addr
        in
        Printf.printf
          "listening on %s (%d domain(s), queue %d, admission %s; Ctrl-C or \
           SIGTERM to drain)\n%!"
          shown domains queue
          (match admission with
          | Elin_net.Server.Block -> "block"
          | Elin_net.Server.Busy -> "busy");
        (* The /healthz answer: serving until a stop signal arrives,
           draining from then until the process exits — the endpoint
           outlives Server.stop so a probe can watch the flip. *)
        let draining = Atomic.make false in
        let health () =
          {
            Elin_net.Telemetry.state =
              (if Atomic.get draining then "draining" else "serving");
            queue_depth = Elin_net.Server.queue_depth srv;
            connections = Elin_net.Server.connections srv;
            workers = domains;
          }
        in
        let telemetry =
          match telemetry_addr with
          | None -> None
          | Some taddr -> (
            (* A scrape endpoint with a frozen registry would lie:
               telemetry mode turns the process-wide metrics on (the
               guarded gauges/histograms start updating); verdict
               bytes on the job socket are unaffected. *)
            Obs.Metrics.enable ();
            match Elin_net.Telemetry.start ~health taddr with
            | exception Failure m ->
              Elin_net.Server.stop srv;
              failwith (Printf.sprintf "--telemetry: %s" m)
            | exception Unix.Unix_error (err, fn, _) ->
              Elin_net.Server.stop srv;
              failwith
                (Printf.sprintf "--telemetry %s: %s: %s"
                   (Elin_net.Addr.to_string taddr)
                   fn (Unix.error_message err))
            | t ->
              let tshown =
                match (taddr, Elin_net.Telemetry.port t) with
                | Elin_net.Addr.Tcp (h, 0), Some p ->
                  Elin_net.Addr.to_string (Elin_net.Addr.Tcp (h, p))
                | _ -> Elin_net.Addr.to_string taddr
              in
              Printf.printf "telemetry on %s (/metrics /healthz)\n%!" tshown;
              Some t)
        in
        (* SIGINT/SIGTERM drain gracefully: stop accepting, answer
           every admitted job, flush outboxes, then the final metrics
           line. *)
        let stop_requested, restore_signals = install_stop_signals () in
        while not (Atomic.get stop_requested) do
          Thread.delay 0.2
        done;
        Atomic.set draining true;
        Elin_net.Server.stop srv;
        Option.iter Elin_net.Telemetry.stop telemetry;
        restore_signals ();
        print_final_metrics metrics;
        ok_exit Exit_code.Ok))

let do_serve domains job_budget timeout_ms no_reuse stats dir once poll_ms
    listen admission queue test_specs telemetry trace flight =
  if domains < 1 then
    `Error (false, Printf.sprintf "--domains must be >= 1, got %d" domains)
  else
    match (listen, dir) with
    | Some _, Some _ -> `Error (true, "--listen and --watch are exclusive")
    | None, None -> `Error (true, "one of --watch or --listen is required")
    | Some addr_s, None ->
      with_flight flight @@ fun () ->
      with_trace ~proc:"serve" trace @@ fun () ->
      serve_socket domains job_budget timeout_ms no_reuse stats addr_s
        admission queue test_specs telemetry
    | None, Some dir ->
      if telemetry <> None then
        `Error (true, "--telemetry requires --listen (socket mode)")
      else if not (Sys.file_exists dir && Sys.is_directory dir) then
        `Error (false, Printf.sprintf "--watch %s: not a directory" dir)
      else
        with_flight flight @@ fun () ->
        with_trace ~proc:"serve" trace @@ fun () ->
        serve_spool domains job_budget timeout_ms no_reuse stats dir once
          poll_ms

let serve_cmd =
  let dir =
    Arg.(value & opt (some dir) None
         & info [ "watch" ] ~docv:"DIR"
             ~doc:"Spool directory: NAME.jobs files are answered with \
                   NAME.verdicts files (written atomically).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Process pending job files once and exit (spool mode).")
  in
  let poll_ms =
    Arg.(value & opt int 200
         & info [ "poll-ms" ] ~doc:"Idle polling interval (spool mode).")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve checking jobs over a socket at $(docv) (unix:PATH \
                   or tcp:HOST:PORT; tcp port 0 picks an ephemeral port).  \
                   Clients speak length-prefixed JSONL frames — see \
                   $(b,elin batch --connect) and $(b,elin load).")
  in
  let admission =
    Arg.(value
         & opt
             (enum
                [ ("block", Elin_net.Server.Block);
                  ("busy", Elin_net.Server.Busy) ])
             Elin_net.Server.Block
         & info [ "admission" ] ~docv:"POLICY"
             ~doc:"What a full job queue does to new submissions (socket \
                   mode): $(b,block) applies backpressure to the client's \
                   writes; $(b,busy) refuses immediately with a busy \
                   verdict.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Bounded job-queue capacity (socket mode).")
  in
  let test_specs =
    Arg.(value & flag
         & info [ "test-specs" ]
             ~doc:"Also resolve the synthetic load-mix specs \
                   (elin.load.reg, elin.poison) used by $(b,elin load); \
                   off by default.")
  in
  let telemetry =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"ADDR"
             ~doc:"Serve a live telemetry endpoint at $(docv) (tcp:HOST:PORT \
                   or unix:PATH; tcp port 0 picks an ephemeral port, printed \
                   at startup): GET /metrics returns the OpenMetrics text \
                   exposition of the live registry, GET /healthz returns \
                   drain state, queue depth, connections and worker count \
                   (200 while serving, 503 while draining).  No auth, no \
                   TLS — bind to loopback unless the network is trusted.  \
                   Socket mode only.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve checking jobs: from a spool directory (--watch) or over \
             a socket (--listen)")
    Term.(
      ret
        (const do_serve $ domains_svc_arg $ job_budget_arg $ timeout_ms_arg
       $ no_reuse_arg $ svc_stats_arg $ dir $ once $ poll_ms $ listen
       $ admission $ queue $ test_specs $ telemetry $ trace_arg
       $ flight_arg))

(* ------------------------------------------------------------------ *)
(* elin load                                                          *)
(* ------------------------------------------------------------------ *)

let do_load connect rate jobs seed small large poison depth budget timeout_ms
    idle_limit sweep trace flight =
  match Elin_net.Addr.of_string connect with
  | Error e -> `Error (false, e)
  | Ok addr -> (
    if rate <= 0. then `Error (false, "--rate must be > 0")
    else if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else
      with_flight flight @@ fun () ->
      with_trace ~proc:"load" trace @@ fun () ->
      let cfg =
        {
          Elin_net.Load.rate;
          jobs;
          seed;
          mix = { Elin_net.Load.small; large; poison };
          large_depth = depth;
          budget;
          timeout_ms;
          idle_limit_s = idle_limit;
          (* Tracing stamps each generated job with a trace-context id
             so the server's spans stitch to the client's; without
             --trace the wire bytes stay byte-identical to pre-tracing
             runs. *)
          trace_ids = trace <> None;
        }
      in
      let rates = match sweep with [] -> [ rate ] | rs -> rs in
      match Elin_net.Load.sweep addr cfg ~rates with
      | exception Failure m ->
        Printf.eprintf "elin load: %s\n%!" m;
        ok_exit Exit_code.Usage
      | exception Unix.Unix_error (err, fn, _) ->
        Printf.eprintf "elin load: %s: %s\n%!" fn (Unix.error_message err);
        ok_exit Exit_code.Usage
      | outcomes ->
        (* stdout: the canonical JSONL series; stderr: a human table. *)
        List.iter
          (fun o ->
            print_endline
              (Elin_svc.Jsonl.to_string (Elin_net.Load.outcome_to_json o)))
          outcomes;
        Printf.eprintf
          "%10s %8s %8s %10s %10s %10s %10s   outcomes\n%!" "target/s"
          "answered" "wall_s" "ach/s" "p50_us" "p99_us" "p999_us";
        List.iter
          (fun (o : Elin_net.Load.outcome) ->
            Printf.eprintf
              "%10.1f %8d %8.2f %10.1f %10.0f %10.0f %10.0f   pass %d, \
               viol %d, busy %d, err %d, exh %d\n%!"
              o.Elin_net.Load.target_per_s o.answered o.wall_s
              o.achieved_per_s o.p50_us o.p99_us o.p999_us o.pass
              o.violations o.busy o.errors o.exhausted)
          outcomes;
        ok_exit Exit_code.Ok)

let load_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Server address (unix:PATH or tcp:HOST:PORT).")
  in
  let rate =
    Arg.(value & opt float 200.
         & info [ "rate" ] ~docv:"R"
             ~doc:"Target open-loop arrival rate, jobs/second.")
  in
  let jobs =
    Arg.(value & opt int 200
         & info [ "jobs" ] ~docv:"N" ~doc:"Jobs offered per run.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Deterministic generation seed.")
  in
  let small =
    Arg.(value & opt int 8
         & info [ "small" ] ~docv:"W"
             ~doc:"Mix weight of small (fast linearizable) jobs.")
  in
  let large =
    Arg.(value & opt int 1
         & info [ "large" ] ~docv:"W"
             ~doc:"Mix weight of large (deep unsatisfiable) jobs.")
  in
  let poison =
    Arg.(value & opt int 1
         & info [ "poison" ] ~docv:"W"
             ~doc:"Mix weight of poisoned (crashing-spec) jobs; needs a \
                   server started with --test-specs to exercise the \
                   containment path (degrades to bad_job otherwise).")
  in
  let depth =
    Arg.(value & opt int 6
         & info [ "large-depth" ] ~docv:"D"
             ~doc:"Pending-write depth of large jobs (cost grows ~ D!).")
  in
  let budget =
    Arg.(value & opt (some int) (Some 500_000)
         & info [ "job-budget" ] ~doc:"Per-job node budget on the wire.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) (Some 2_000)
         & info [ "timeout-ms" ] ~doc:"Per-job wall-clock timeout.")
  in
  let idle_limit =
    Arg.(value & opt float 60.
         & info [ "idle-limit" ] ~docv:"S"
             ~doc:"Receiver watchdog: fail the run if the server sends \
                   nothing for $(docv) seconds (resets on every byte).  \
                   Raise it for unbudgeted job mixes whose single jobs \
                   can legitimately run longer.")
  in
  let sweep =
    Arg.(value & opt (list float) []
         & info [ "sweep" ] ~docv:"R1,R2,..."
             ~doc:"Run once per listed rate (fresh connection each) \
                   instead of the single --rate: the saturation sweep.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive an elin serve --listen server with a YCSB-style \
             open-loop job mix and report achieved rate and latency \
             percentiles (JSONL on stdout, table on stderr)")
    Term.(
      ret
        (const do_load $ connect $ rate $ jobs $ seed $ small $ large
       $ poison $ depth $ budget $ timeout_ms $ idle_limit $ sweep
       $ trace_arg $ flight_arg))

(* ------------------------------------------------------------------ *)
(* elin trace                                                         *)
(* ------------------------------------------------------------------ *)

(* [elin trace lint FILE] — validate what `--trace` / `--metrics`
   wrote: every line parses, and the required keys for its kind are
   present.  Guards the committed example traces and `make
   trace-smoke` against schema drift. *)
let do_trace_lint file =
  let open Obs.Jsonl in
  let errs = ref [] and n_err = ref 0 in
  let err ctx fmt =
    Printf.ksprintf
      (fun s ->
        incr n_err;
        if !n_err <= 20 then errs := Printf.sprintf "%s: %s" ctx s :: !errs)
      fmt
  in
  let need ctx j k ty =
    match (ty, mem k j) with
    | `Int, Some (Int _) -> ()
    | `Num, Some (Int _ | Float _) -> ()
    | `Str, Some (Str _) -> ()
    | _, _ ->
      err ctx "missing %s field %S"
        (match ty with `Int -> "int" | `Num -> "numeric" | `Str -> "string")
        k
  in
  let events = ref 0 and metrics = ref 0 and metas = ref 0 in
  (* The metadata header (JSONL first line / Chrome otherData): the
     absolute t0 and process label `elin trace merge` re-aligns on. *)
  let lint_meta ctx j =
    incr metas;
    (match str_mem "meta" j with
    | Some "elin.trace" -> ()
    | Some m -> err ctx "unknown meta kind %S" m
    | None -> ());
    need ctx j "t0" `Int;
    need ctx j "proc" `Str
  in
  let lint_event ~chrome ctx j =
    incr events;
    need ctx j "name" `Str;
    need ctx j "cat" `Str;
    need ctx j "ts" (if chrome then `Num else `Int);
    need ctx j "tid" `Int;
    if chrome then need ctx j "pid" `Int;
    match str_mem "ph" j with
    | Some "X" -> need ctx j "dur" (if chrome then `Num else `Int)
    | Some "i" -> ()
    | Some p -> err ctx "unknown ph %S" p
    | None -> err ctx "missing string field \"ph\""
  in
  let lint_metric ctx j =
    incr metrics;
    need ctx j "metric" `Str;
    match str_mem "type" j with
    | Some ("counter" | "gauge") -> need ctx j "value" `Int
    | Some "histogram" ->
      need ctx j "count" `Int;
      need ctx j "sum" `Int
    | Some t -> err ctx "unknown metric type %S" t
    | None -> err ctx "missing string field \"type\""
  in
  (try
     if Filename.check_suffix file ".json" then begin
       let body =
         let ic = open_in file in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic))
       in
       let j = of_string body in
       (match mem "traceEvents" j with
       | Some (Arr evs) ->
         List.iteri
           (fun i ev ->
             match str_mem "ph" ev with
             | Some "M" -> () (* process_name metadata from a merge *)
             | _ ->
               lint_event ~chrome:true (Printf.sprintf "traceEvents[%d]" i) ev)
           evs
       | _ -> err file "no \"traceEvents\" array");
       match mem "otherData" j with
       | Some od -> lint_meta (file ^ ":otherData") od
       | None -> ()
     end
     else
       let ic = open_in file in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           let lineno = ref 0 in
           try
             while true do
               let line = input_line ic in
               incr lineno;
               if String.trim line <> "" then begin
                 let ctx = Printf.sprintf "%s:%d" file !lineno in
                 match of_string line with
                 | j when mem "metric" j <> None -> lint_metric ctx j
                 | j when mem "meta" j <> None -> lint_meta ctx j
                 | j -> lint_event ~chrome:false ctx j
                 | exception Parse_error m -> err ctx "parse error: %s" m
               end
             done
           with End_of_file -> ())
   with Sys_error m -> err file "%s" m);
  if !n_err = 0 then begin
    Printf.printf "%s: ok (%d events, %d metrics%s)\n" file !events !metrics
      (if !metas > 0 then Printf.sprintf ", %d meta" !metas else "");
    ok_exit Exit_code.Ok
  end
  else begin
    List.iter (Printf.eprintf "%s\n") (List.rev !errs);
    if !n_err > 20 then Printf.eprintf "... and %d more\n" (!n_err - 20);
    Printf.eprintf "%s: %d lint error(s)\n%!" file !n_err;
    ok_exit Exit_code.Violation
  end

let trace_lint_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE-FILE")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Validate a trace (.jsonl or Chrome .json) or metrics JSONL \
             file: every line parses and carries the schema's required keys")
    Term.(ret (const do_trace_lint $ file))

(* The analysis subcommands share a loader: every positional argument
   is a trace file in either export format. *)
let load_trace_files files k =
  let rec go acc = function
    | [] -> k (List.rev acc)
    | f :: rest -> (
      match Obs.Trace_tools.load f with
      | Ok t -> go (t :: acc) rest
      | Error m ->
        Printf.eprintf "elin trace: %s\n%!" m;
        ok_exit Exit_code.Usage)
  in
  go [] files

let do_trace_merge files =
  load_trace_files files @@ fun loaded ->
  match Obs.Trace_tools.merge loaded with
  | Ok json ->
    print_endline (Obs.Jsonl.to_string json);
    ok_exit Exit_code.Ok
  | Error m ->
    Printf.eprintf "elin trace merge: %s\n%!" m;
    ok_exit Exit_code.Usage

let do_trace_report files =
  load_trace_files files @@ fun loaded ->
  let evs = List.concat_map (fun f -> f.Obs.Trace_tools.evs) loaded in
  if evs = [] then begin
    Printf.eprintf "elin trace report: no events in %s\n%!"
      (String.concat ", " files);
    ok_exit Exit_code.Usage
  end
  else begin
    print_string (Obs.Trace_tools.report evs);
    ok_exit Exit_code.Ok
  end

let do_trace_flame files =
  load_trace_files files @@ fun loaded ->
  print_string (Obs.Trace_tools.flame loaded);
  ok_exit Exit_code.Ok

let trace_files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE-FILE")

let trace_merge_cmd =
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge one trace file per process (client + server, either \
             export format) into a single Perfetto-loadable Chrome JSON on \
             stdout, re-aligned on each file's absolute t0.  Fails if any \
             input predates the t0 metadata.")
    Term.(ret (const do_trace_merge $ trace_files_arg))

let trace_report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Analyze trace file(s): per-phase span duration stats, per-job \
             client = network + queue + check + other attribution (keyed on \
             the propagated trace id), aggregate quantiles, and the \
             critical path of the slowest job.")
    Term.(ret (const do_trace_report $ trace_files_arg))

let trace_flame_cmd =
  Cmd.v
    (Cmd.info "flame"
       ~doc:"Render trace file(s) as collapsed stacks (one \
             \"proc;a;b;c <self_us>\" line per stack) for flamegraph.pl or \
             speedscope.  Spans nest by time containment per thread lane.")
    Term.(ret (const do_trace_flame $ trace_files_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Utilities for recorded traces and metrics files")
    [ trace_lint_cmd; trace_merge_cmd; trace_report_cmd; trace_flame_cmd ]

(* ------------------------------------------------------------------ *)
(* elin probe                                                         *)
(* ------------------------------------------------------------------ *)

(* One-shot HTTP GET against a --telemetry endpoint — the curl the CI
   image doesn't have.  Body goes to stdout; a non-200 status (or an
   --openmetrics validation failure) exits 1 so smoke scripts can gate
   on it, and --expect STATUS inverts that for drain probes. *)
let do_probe addr_s path openmetrics expect =
  match Elin_net.Addr.of_string addr_s with
  | Error e -> `Error (false, e)
  | Ok addr -> (
    match Elin_net.Telemetry.get addr path with
    | Error m ->
      Printf.eprintf "elin probe: %s\n%!" m;
      ok_exit Exit_code.Usage
    | Ok (status, body) ->
      print_string body;
      if body <> "" && body.[String.length body - 1] <> '\n' then
        print_newline ();
      let want = Option.value ~default:200 expect in
      if status <> want then begin
        Printf.eprintf "elin probe: %s: status %d (want %d)\n%!" path status
          want;
        ok_exit Exit_code.Violation
      end
      else if openmetrics then (
        match Obs.Openmetrics.validate body with
        | Ok () -> ok_exit Exit_code.Ok
        | Error m ->
          Printf.eprintf "elin probe: %s\n%!" m;
          ok_exit Exit_code.Violation)
      else ok_exit Exit_code.Ok)

let probe_cmd =
  let addr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR")
  in
  let path =
    Arg.(value & pos 1 string "/metrics" & info [] ~docv:"PATH")
  in
  let openmetrics =
    Arg.(value & flag
         & info [ "openmetrics" ]
             ~doc:"Additionally validate the body as OpenMetrics text \
                   exposition (structure + `# EOF` terminator).")
  in
  let expect =
    Arg.(value & opt (some int) None
         & info [ "expect" ] ~docv:"STATUS"
             ~doc:"Expected HTTP status (default 200); anything else \
                   exits 1.")
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"HTTP GET $(i,PATH) (default /metrics) from an \
             $(b,elin serve --telemetry) endpoint: body on stdout, exit 1 \
             on unexpected status or failed --openmetrics validation")
    Term.(ret (const do_probe $ addr $ path $ openmetrics $ expect))

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "elin" ~version:"1.0.0"
       ~doc:
         "Eventual linearizability in shared memory — executable reproduction \
          of Guerraoui & Ruppert, PODC 2014")
    [ check_cmd; generate_cmd; run_cmd; paradox_cmd; valency_cmd; mc_cmd;
      serafini_cmd; experiments_cmd; batch_cmd; serve_cmd; load_cmd;
      trace_cmd; probe_cmd ]

(* The uniform exit-code policy: term values ARE the exit codes;
   cmdliner-level usage/parse problems map to Exit_code.Usage. *)
let () =
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> Exit_code.to_int Exit_code.Usage
    | Error `Exn -> 125)
