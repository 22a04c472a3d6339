(** The generic parallel model-checking engine: level-synchronous BFS
    with fingerprint dedup over an abstract state space.

    The state space is given by three functions — [fingerprint],
    [expand], and a verdict [compare] — so both the [Explore.config]
    execution trees (via {!Canon}/{!Mc}) and the valency analysis's
    protocol configurations (via {!Mc_valency}) run through the same
    engine.

    {2 Parallelism}

    Shared nothing: [domains] OCaml 5 domains are spawned once for the
    whole search (with [domains = 1] the single worker runs on the
    calling domain).  Each owns a fixed shard of the fingerprint space
    (a plain per-domain [Hashtbl], no lock on the hot path), expands
    the frontier states it owns, and routes generated successors to
    their owner in fixed-size batches over SPSC queues; levels
    synchronize at a two-phase epoch barrier.  See the long comment
    above [bfs].

    {2 Determinism contract}

    The result is a function of the state space and the bounds alone —
    {e not} of the domain count — because:

    - the set of states at each level is partition-independent: every
      copy of a fingerprint routes to its one owner, where dedup runs
      single-threaded, and (modulo 64-bit fingerprint collisions) equal
      fingerprints mean equal states, so {e which} copy survives is
      unobservable;
    - with [?merge] (dedup under partial-order reduction), the owner
      holds every copy of a level's state until the epoch's second
      phase and keeps the first-arrived copy carrying the [merge] of
      all copies' search metadata.  [merge] must be commutative and
      associative (sleep-set intersection is), so arrival order is
      unobservable;
    - verdicts are never acted on mid-level.  When a verdict is found,
      every domain still completes the current level, and the stop
      decision is taken at the level boundary from data every domain
      sees; the final verdict list is sorted under [compare], so the
      "lexicographically minimal counterexample" does not depend on
      which domain found it first.

    Only the {e observability} fields ([per_domain], [wall]) and the
    trace shape depend on the domain count. *)

type stats = {
  states : int;           (** states expanded (dequeued from the frontier) *)
  dedup_hits : int;       (** successors dropped because already visited *)
  kept : int;             (** successors enqueued (dedup survivors) *)
  pruned : int;           (** expansions skipped by partial-order reduction
                              (filled in by the caller's [expand]; 0 here) *)
  frontier_peak : int;    (** widest BFS level *)
  leaves : int;           (** terminal states (finished or cut) *)
  cut : int;              (** terminal only because of the bound *)
  levels : int;           (** BFS depth reached *)
  per_domain : int array; (** states expanded by each domain (the
                              ownership partition) *)
  domains : int;
  wall : float;           (** seconds *)
}

(** Fraction of generated successors that dedup discarded. *)
let dedup_rate stats =
  let generated = stats.dedup_hits + stats.kept in
  if generated <= 0 then 0.
  else float_of_int stats.dedup_hits /. float_of_int generated

type ('s, 'v) expansion =
  | Children of 's list  (** interior state ([[]] = dead end, not a leaf —
                             matching [Explore]'s node accounting) *)
  | Leaf of 'v option    (** terminal; [Some v] records a verdict *)
  | Cut of 'v option     (** terminal because of the bound *)

(* One domain's view of its visited shard, reduced to the two
   operations the search needs, over either the RAM set
   ({!Elin_kernel.Shard_set}) or the spill tier
   ({!Elin_store.Tiered_set}); the closures erase the difference,
   which is what keeps the dedup semantics — and hence the
   determinism contract — representation-independent. *)
type vset = { vadd : int64 -> bool; vmem : int64 -> bool }

(* Observability.  Live counters/gauges let `elin mc --progress` read
   exploration rates mid-level; the trace gets one expansion span plus
   aggregated POR-pruned / dedup-dropped instants per (level, worker)
   — per-event instants would dwarf the states they describe.  All of
   it is behind the [on ()] flags: disabled cost is one atomic load
   per state. *)
let m_states = Elin_obs.Metrics.counter "mc.states"
let m_kept = Elin_obs.Metrics.counter "mc.kept"
let m_dedup_hits = Elin_obs.Metrics.counter "mc.dedup_hits"

(* Registered by this module, bumped by [Canon]/[Mc_valency]'s
   successor functions (same registry entry by name). *)
let m_pruned = Elin_obs.Metrics.counter "mc.por_pruned"
let g_frontier = Elin_obs.Metrics.gauge "mc.frontier"
let g_level = Elin_obs.Metrics.gauge "mc.level"

(* Per-worker live counters, for per-domain utilization in progress
   heartbeats: worker [d]'s states land in "mc.worker<d>.states".
   Registered on demand, cached — registration takes a mutex.

   Regression note: the cache used to be a plain [Counter.t option
   array] written from every worker domain — a data race by the OCaml
   memory model (concurrent plain writes, and readers could legally
   never observe a peer's registration).  The slots are now [Atomic],
   which makes the cache race-free {e by construction}: racing
   registrations of the same index both resolve to the same registry
   entry (find-or-create by name), so the last [Atomic.set] winning is
   indistinguishable from the first. *)
let worker_counters : Elin_obs.Metrics.Counter.t option Atomic.t array =
  Array.init 64 (fun _ -> Atomic.make None)

let worker_counter d =
  if d < 0 || d >= Array.length worker_counters then
    Elin_obs.Metrics.counter (Printf.sprintf "mc.worker%d.states" d)
  else
    match Atomic.get worker_counters.(d) with
    | Some c -> c
    | None ->
      let c = Elin_obs.Metrics.counter (Printf.sprintf "mc.worker%d.states" d) in
      Atomic.set worker_counters.(d) (Some c);
      c

(* ------------------------------------------------------------------ *)
(* External-memory spill and crash-safe checkpoints                    *)
(* ------------------------------------------------------------------ *)

type 's spill = {
  sp_dir : string;
  sp_hot : int;
  sp_every : int;
  sp_identity : string;
  sp_payload : 's -> int64;
  sp_save_aux : unit -> int;
  sp_restore_aux : int -> unit;
  sp_on_checkpoint : int -> unit;
  mutable sp_store : Elin_store.Tiered_set.stats option;
  mutable sp_resumed : int option;
}

let spill ?(hot = 1 lsl 20) ?(every = 0) ?(identity = "")
    ?(payload = fun _ -> 0L) ?(save_aux = fun () -> 0)
    ?(restore_aux = fun _ -> ()) ?(on_checkpoint = fun _ -> ()) dir =
  if hot < 1 then invalid_arg "Search.spill: hot capacity must be >= 1";
  if every < 0 then invalid_arg "Search.spill: checkpoint cadence must be >= 0";
  {
    sp_dir = dir;
    sp_hot = hot;
    sp_every = every;
    sp_identity = identity;
    sp_payload = payload;
    sp_save_aux = save_aux;
    sp_restore_aux = restore_aux;
    sp_on_checkpoint = on_checkpoint;
    sp_store = None;
    sp_resumed = None;
  }

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Elin_store.Segment.Corrupt s)) fmt

(* The engine name every manifest carries.  Manifests written by the
   retired level-partitioned engine say "barrier"; their single-writer
   layout cannot seed a per-owner resume, so they are refused. *)
let manifest_engine = "sharded"

(* Resume refuses anything but an exact match: the frontier blobs are
   marshalled with closures (same-binary only), and every search
   parameter that shapes the state space or the partition is pinned by
   the manifest.  A mismatch is a usage error surfaced loudly — never
   a silent from-scratch recheck. *)
let load_manifest_for_resume sp ~dedup ~domains =
  let open Elin_store.Checkpoint in
  match load_latest ~dir:sp.sp_dir with
  | None -> corrupt "%s: no committed checkpoint manifest to resume" sp.sp_dir
  | Some m ->
    if m.exe_digest <> exe_digest () then
      corrupt "resume: checkpoint was written by a different binary";
    if m.identity <> sp.sp_identity then
      corrupt
        "resume: workload mismatch — checkpoint is for %s, this run is %s"
        m.identity sp.sp_identity;
    if m.engine <> manifest_engine then
      corrupt "resume: checkpoint engine is %s, this run uses %s" m.engine
        manifest_engine;
    if m.dedup <> dedup then corrupt "resume: dedup setting mismatch";
    if m.shards <> domains || m.writers <> domains then
      corrupt "resume: checkpoint used %d domains, this run uses %d" m.shards
        domains;
    if Array.length m.per_writer <> domains then
      corrupt "resume: manifest writer slots do not match";
    if Array.length m.per_domain <> domains then
      corrupt "resume: manifest per-domain slots do not match";
    m

(* One writer's frontier slice: a marshalled state array (the blob)
   plus, under dedup, a sealed (fingerprint, payload) segment that the
   resume path cross-checks record-by-record against the re-hydrated
   states — a torn or stale blob cannot smuggle a wrong frontier past
   the checksums.  Without dedup a level may repeat fingerprints, so
   only the (still CRC-framed) blob is written. *)
let write_frontier_slice sp ~dedup ~seq ~writer ~fingerprint states =
  let open Elin_store in
  Checkpoint.write_blob ~dir:sp.sp_dir
    ~name:(Checkpoint.frontier_blob ~seq ~writer)
    (Marshal.to_string states [ Marshal.Closures ]);
  if dedup then begin
    let records =
      Array.map (fun s -> (fingerprint s, sp.sp_payload s)) states
    in
    Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) records;
    Segment.write ~dir:sp.sp_dir
      ~name:(Checkpoint.frontier_seg ~seq ~writer)
      records
  end

let read_frontier_slice (type s) (sp : s spill) ~dedup ~seq ~writer
    ~fingerprint : s array =
  let open Elin_store in
  let name = Checkpoint.frontier_blob ~seq ~writer in
  let blob = Checkpoint.read_blob ~dir:sp.sp_dir ~name in
  let states : s array =
    try Marshal.from_string blob 0
    with Failure _ -> corrupt "%s: undecodable frontier blob" name
  in
  if dedup then begin
    let r =
      Segment.open_reader ~dir:sp.sp_dir
        ~name:(Checkpoint.frontier_seg ~seq ~writer)
    in
    let expect = Segment.to_array r in
    Segment.close r;
    let got = Array.map (fun s -> (fingerprint s, sp.sp_payload s)) states in
    Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) got;
    if got <> expect then
      corrupt "%s: frontier cross-check failed — states do not re-fingerprint \
               to the sealed slice" name
  end;
  states

let write_verdicts sp ~seq ~writer verdicts =
  Elin_store.Checkpoint.write_blob ~dir:sp.sp_dir
    ~name:(Elin_store.Checkpoint.verdicts_blob ~seq ~writer)
    (Marshal.to_string verdicts [ Marshal.Closures ])

let read_verdicts (type v) sp ~seq ~writer : v list =
  let name = Elin_store.Checkpoint.verdicts_blob ~seq ~writer in
  let blob = Elin_store.Checkpoint.read_blob ~dir:sp.sp_dir ~name in
  try Marshal.from_string blob 0
  with Failure _ -> corrupt "%s: undecodable verdicts blob" name

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

(* Each domain {e owns} a fixed shard of the fingerprint space
   outright ({!Elin_kernel.Shard_set.owner}): it holds that shard's
   slice of the visited set in a plain [Hashtbl] (no lock ever touches
   the hot path), expands exactly the frontier states it owns, and
   routes generated successors to their owner's inbox in fixed-size
   batches over per-(src,dst) SPSC queues.  Domains are spawned once
   for the whole search; levels synchronize at a two-phase epoch
   (blocking {!Elin_kernel.Barrier}), which is all that
   level-stratified dedup — and dedup-under-POR's [merge] — need to
   stay exact.

   {2 Why the result is partition-independent}

   - {e which} states exist at each level is a pure function of the
     state space (dedup is by fingerprint; equal fingerprints mean
     equal states), and every copy of a fingerprint routes to the one
     owner, where dedup/merge runs single-threaded — there is no
     racing insert to reason about;
   - [merge] metadata: all copies of a level-[d+1] state are pushed
     before the epoch's first phase and drained before its second, so
     the owner merges every copy of the level, and
     commutativity/associativity makes the arrival order unobservable;
   - verdicts are acted on only at level boundaries: the stop decision
     is computed by every domain from the same per-domain slot arrays
     after the second phase, and the final verdict list is sorted
     under [compare] — the lex-min counterexample cannot depend on the
     partition;
   - the counts ([states]/[kept]/[dedup_hits]/[leaves]/[cut]/[levels]/
     [frontier_peak]) are sums or maxima of the same per-level
     quantities.

   [per_domain] reports the ownership partition — a function of the
   fingerprints and the domain count, not of scheduling. *)

(* Cross-domain handoff batch: up to [handoff_batch] kept successors,
   accumulated in reverse.  64 amortizes the queue-node allocation and
   the release/acquire publication without letting a straggler hold
   back more than a sliver of the level. *)
let handoff_batch = 64

let m_handoff_batches = Elin_obs.Metrics.counter "mc.handoff_batches"
let m_handoff_states = Elin_obs.Metrics.counter "mc.handoff_states"

(* Per-worker aggregate, collected at join time. *)
type 'v worker_out = {
  w_states : int;
  w_hits : int;
  w_kept : int;
  w_leaves : int;
  w_cut : int;
  w_found : 'v list;
  w_levels : int;        (* identical across workers *)
  w_peak : int;          (* identical across workers *)
}

(** [bfs ?domains ?dedup ?stop_early ?merge ?spill ?resume ~fingerprint
    ~expand ~compare root] — explore the space rooted at [root].
    Returns the verdicts (sorted and deduplicated under [compare]: the
    head is the minimal one) and the exploration stats.  With
    [stop_early] (the default) the search stops at the end of the
    first level that produced a verdict; otherwise it exhausts the
    bounded space and returns every verdict.

    [?merge] (meaningful only with [dedup]) resolves duplicates at the
    level barrier: the owner keeps the first-arrived copy carrying
    [merge] of all copies.  Requires a {e level-stratified} space —
    equal states occur only within one BFS level (true whenever the
    fingerprint covers a step counter) — and a commutative,
    associative [merge]. *)
let bfs ?domains ?(dedup = true) ?(stop_early = true) ?merge
    ?spill:sp_opt ?(resume = false) ~fingerprint ~expand ~compare root =
  let open Elin_kernel in
  let n_domains =
    match domains with
    | Some n ->
      if n < 1 then invalid_arg "Search.bfs: domains must be >= 1";
      n
    | None -> Domain.recommended_domain_count ()
  in
  if resume && sp_opt = None then
    invalid_arg "Search.bfs: resume requires spill";
  let t0 = Elin_obs.Clock.now_s () in
  let manifest =
    match sp_opt with
    | Some sp when resume ->
      Some (load_manifest_for_resume sp ~dedup ~domains:n_domains)
    | _ -> None
  in
  (* Under spill the tiered set's shards coincide with the ownership
     partition, so each domain drives its own shard through the
     lock-free [_owned] entry points — the shared-nothing story is
     unchanged, the shard just gained a disk tier. *)
  let tiered =
    match sp_opt with
    | Some sp when dedup -> (
      match manifest with
      | Some m ->
        Some
          (Elin_store.Tiered_set.open_existing ~dir:sp.sp_dir
             ~shards:n_domains ~hot_capacity:sp.sp_hot
             ~segments:m.visited_segments ())
      | None ->
        Some
          (Elin_store.Tiered_set.create ~dir:sp.sp_dir ~shards:n_domains
             ~hot_capacity:sp.sp_hot ()))
    | _ -> None
  in
  let visited =
    match tiered with
    | Some _ -> None
    | None -> if dedup then Some (Shard_set.create ~shards:n_domains ()) else None
  in
  (* Ownership is a pure function of the fingerprint even with dedup
     off: Plain mode still routes, it just never drops. *)
  let router = Shard_set.create ~shards:n_domains () in
  let shard_of fp = Shard_set.owner router fp in
  let queues =
    Array.init n_domains (fun _ -> Array.init n_domains (fun _ -> Spsc.create ()))
  in
  let barrier = Barrier.create n_domains in
  (* Per-level slots: written by owner [d] between the two phases,
     read by everyone after the second (the barrier's mutex provides
     the happens-before edge). *)
  let next_sizes = Array.make n_domains 0 in
  let found_counts = Array.make n_domains 0 in
  (* Checkpoint slots: each writer publishes its private counters
     between the checkpoint's two barrier phases; domain 0 sums them
     into the manifest.  Same phase-separated slot discipline as
     [next_sizes]. *)
  let ck_states = Array.make n_domains 0 in
  let ck_hits = Array.make n_domains 0 in
  let ck_kept = Array.make n_domains 0 in
  let ck_leaves = Array.make n_domains 0 in
  let ck_cut = Array.make n_domains 0 in
  let err : exn option Atomic.t = Atomic.make None in
  let root_fp = fingerprint root in
  let root_owner = shard_of root_fp in
  let worker d () =
    (* Everything below is owned by domain [d] alone; the shared
       surfaces are the queues (SPSC discipline), the slot arrays
       (slot [d] only, phase-separated), and [d]'s visited shard. *)
    let states = ref 0 and hits = ref 0 and kept = ref 0 in
    let leaves = ref 0 and cut = ref 0 in
    let all_found = ref [] and level_found = ref [] in
    let levels = ref 0 and peak = ref 0 in
    let next_acc = ref [] in
    (* merge-mode level table: fp -> first copy carrying the merge *)
    let pending = Hashtbl.create 257 in
    let pending_order = ref [] in
    let bufs = Array.make n_domains [] in
    let buf_counts = Array.make n_domains 0 in
    let m_worker =
      if Elin_obs.Metrics.on () then Some (worker_counter d) else None
    in
    (* This domain's view of its own visited shard. *)
    let vops =
      match tiered, visited with
      | Some tv, _ ->
        Some
          {
            vadd = (fun fp -> Elin_store.Tiered_set.add_owned tv ~shard:d fp);
            vmem = (fun fp -> Elin_store.Tiered_set.mem_owned tv ~shard:d fp);
          }
      | None, Some v ->
        Some
          {
            vadd = (fun fp -> Shard_set.add v ~shard:d fp);
            vmem = (fun fp -> Shard_set.mem v ~shard:d fp);
          }
      | None, None -> None
    in
    let g_shard =
      match visited with
      | Some _ when Elin_obs.Metrics.on () ->
        Some (Elin_obs.Metrics.gauge (Printf.sprintf "mc.shard%d.occupancy" d))
      | _ -> None
    in
    let flush o =
      match bufs.(o) with
      | [] -> ()
      | items ->
        Spsc.push queues.(d).(o) items;
        if Elin_obs.Metrics.on () then begin
          Elin_obs.Metrics.Counter.incr m_handoff_batches;
          Elin_obs.Metrics.Counter.add m_handoff_states buf_counts.(o)
        end;
        bufs.(o) <- [];
        buf_counts.(o) <- 0
    in
    (* One kept successor arriving at its owner (locally generated or
       drained from a peer's batch): the single point where dedup and
       merge decisions are made — single-threaded per fingerprint. *)
    let process_kept fp s =
      match vops, merge with
      | None, _ -> next_acc := s :: !next_acc
      | Some v, None ->
        if v.vadd fp then next_acc := s :: !next_acc else incr hits
      | Some v, Some merge_fn -> (
        if v.vmem fp then incr hits
        else
          match Hashtbl.find_opt pending fp with
          | None ->
            Hashtbl.add pending fp s;
            pending_order := fp :: !pending_order
          | Some s0 ->
            incr hits;
            Hashtbl.replace pending fp (merge_fn s0 s))
    in
    let route s' =
      let fp = fingerprint s' in
      let o = shard_of fp in
      if o = d then process_kept fp s'
      else begin
        bufs.(o) <- (fp, s') :: bufs.(o);
        buf_counts.(o) <- buf_counts.(o) + 1;
        if buf_counts.(o) >= handoff_batch then flush o
      end
    in
    let expand_state s =
      incr states;
      (match m_worker with
      | Some c ->
        Elin_obs.Metrics.Counter.incr m_states;
        Elin_obs.Metrics.Counter.incr c
      | None -> ());
      match expand s with
      | Children succs -> List.iter route succs
      | Leaf v ->
        incr leaves;
        Option.iter (fun v -> level_found := v :: !level_found) v
      | Cut v ->
        incr leaves;
        incr cut;
        Option.iter (fun v -> level_found := v :: !level_found) v
    in
    let frontier = ref (if root_owner = d then [| root |] else [||]) in
    let global_size = ref 1 in
    (match manifest, sp_opt with
    | Some m, Some sp ->
      (* Re-enter at the cut: this writer's private counters, its
         verdicts, and its slice of the frontier.  The root is NOT
         re-inserted — it lives in the visited segments.  One extra
         two-phase epoch publishes the slice sizes so every domain
         sees the same global frontier size. *)
      let w = m.per_writer.(d) in
      states := w.w_states;
      hits := w.w_hits;
      kept := w.w_kept;
      leaves := w.w_leaves;
      cut := w.w_cut;
      levels := m.level;
      peak := m.totals.t_peak;
      if d = 0 then sp.sp_restore_aux m.totals.t_aux;
      all_found := read_verdicts sp ~seq:m.seq ~writer:d;
      frontier := read_frontier_slice sp ~dedup ~seq:m.seq ~writer:d ~fingerprint;
      next_sizes.(d) <- Array.length !frontier;
      Barrier.await barrier;
      let total = ref 0 in
      for o = 0 to n_domains - 1 do
        total := !total + next_sizes.(o)
      done;
      global_size := !total;
      Barrier.await barrier
    | _ -> (
      match vops with
      | Some v when root_owner = d -> ignore (v.vadd root_fp)
      | _ -> ()));
    let stop = ref false in
    while not !stop do
      if !global_size > !peak then peak := !global_size;
      let span_ts = Elin_obs.Trace.begin_ns () in
      let pruned0 =
        if span_ts <> 0L then Elin_obs.Metrics.Counter.shard_value m_pruned
        else 0
      in
      if d = 0 && Elin_obs.Metrics.on () then begin
        Elin_obs.Metrics.Gauge.set g_frontier !global_size;
        Elin_obs.Metrics.Gauge.set g_level !levels
      end;
      let hits0 = !hits and states0 = !states and leaves0 = !leaves in
      Array.iter expand_state !frontier;
      for o = 0 to n_domains - 1 do
        flush o
      done;
      (* Phase 1: every successor of this level is pushed; queue
         contents are frozen. *)
      Barrier.await barrier;
      for src = 0 to n_domains - 1 do
        let q = queues.(src).(d) in
        let rec drain () =
          match Spsc.pop q with
          | Some batch ->
            List.iter (fun (fp, s) -> process_kept fp s) (List.rev batch);
            drain ()
          | None -> ()
        in
        drain ()
      done;
      let next =
        match vops, merge with
        | Some v, Some _ ->
          let survivors =
            List.rev_map
              (fun fp ->
                ignore (v.vadd fp);
                Hashtbl.find pending fp)
              !pending_order
          in
          Hashtbl.reset pending;
          pending_order := [];
          Array.of_list survivors
        | _ ->
          let arr = Array.of_list (List.rev !next_acc) in
          next_acc := [];
          arr
      in
      kept := !kept + Array.length next;
      next_sizes.(d) <- Array.length next;
      found_counts.(d) <- List.length !level_found;
      (match g_shard, visited with
      | Some g, Some visited ->
        Elin_obs.Metrics.Gauge.set g (Shard_set.shard_cardinal visited d)
      | _ -> ());
      if Elin_obs.Trace.on () then begin
        let open Elin_obs in
        let pruned_d = Metrics.Counter.shard_value m_pruned - pruned0 in
        if pruned_d > 0 then
          Trace.instant ~tid:d ~cat:"mc" "mc.por_pruned"
            ~args:[ ("count", Jsonl.Int pruned_d) ];
        if !hits - hits0 > 0 then
          Trace.instant ~tid:d ~cat:"mc" "mc.dedup_dropped"
            ~args:[ ("count", Jsonl.Int (!hits - hits0)) ];
        Trace.complete ~tid:d ~cat:"mc" ~ts:span_ts "mc.expand"
          ~args:
            [
              ("worker", Jsonl.Int d);
              ("states", Jsonl.Int (!states - states0));
              ("dedup_hits", Jsonl.Int (!hits - hits0));
              ("leaves", Jsonl.Int (!leaves - leaves0));
            ]
      end;
      (* Phase 2: sizes and found-counts of every domain are
         published; all domains now compute the same stop decision
         from the same data. *)
      Barrier.await barrier;
      let total_next = ref 0 and any_found = ref false in
      for o = 0 to n_domains - 1 do
        total_next := !total_next + next_sizes.(o);
        if found_counts.(o) > 0 then any_found := true
      done;
      if d = 0 && Elin_obs.Metrics.on () then
        Elin_obs.Metrics.Counter.add m_kept !total_next;
      all_found := List.rev_append !level_found !all_found;
      level_found := [];
      incr levels;
      if (stop_early && !any_found) || !total_next = 0 then stop := true
      else begin
        frontier := next;
        global_size := !total_next;
        match sp_opt with
        | Some sp when sp.sp_every > 0 && !levels mod sp.sp_every = 0 ->
          (* Checkpoint epoch, two more phases.  Phase A: every domain
             seals its own shard (flush + frontier slice + verdicts)
             and publishes its counters.  Phase B: domain 0 — with
             every artefact durably sealed — snapshots the segment
             inventory and commits the manifest; nobody expands the
             next level until the commit is visible, or a post-cut
             flush could leak into the manifest. *)
          let seq = !levels / sp.sp_every in
          (match tiered with
          | Some tv -> Elin_store.Tiered_set.flush_shard tv d
          | None -> ());
          write_frontier_slice sp ~dedup ~seq ~writer:d ~fingerprint next;
          write_verdicts sp ~seq ~writer:d !all_found;
          ck_states.(d) <- !states;
          ck_hits.(d) <- !hits;
          ck_kept.(d) <- !kept;
          ck_leaves.(d) <- !leaves;
          ck_cut.(d) <- !cut;
          Barrier.await barrier;
          if d = 0 then begin
            let sum a = Array.fold_left ( + ) 0 a in
            let visited_segments =
              match tiered with
              | Some tv -> Elin_store.Tiered_set.segment_names tv
              | None -> []
            in
            Elin_store.Checkpoint.commit ~dir:sp.sp_dir
              {
                seq;
                identity = sp.sp_identity;
                engine = manifest_engine;
                dedup;
                shards = n_domains;
                writers = n_domains;
                level = !levels;
                totals =
                  {
                    t_states = sum ck_states;
                    t_hits = sum ck_hits;
                    t_kept = sum ck_kept;
                    t_aux = sp.sp_save_aux ();
                    t_peak = !peak;
                    t_leaves = sum ck_leaves;
                    t_cut = sum ck_cut;
                  };
                per_writer =
                  Array.init n_domains (fun i ->
                      {
                        Elin_store.Checkpoint.w_states = ck_states.(i);
                        w_hits = ck_hits.(i);
                        w_kept = ck_kept.(i);
                        w_leaves = ck_leaves.(i);
                        w_cut = ck_cut.(i);
                      });
                per_domain = Array.copy ck_states;
                visited_segments;
                exe_digest = Elin_store.Checkpoint.exe_digest ();
              };
            sp.sp_on_checkpoint seq
          end;
          Barrier.await barrier
        | _ -> ()
      end
    done;
    if Elin_obs.Metrics.on () then Elin_obs.Metrics.Counter.add m_dedup_hits !hits;
    {
      w_states = !states;
      w_hits = !hits;
      w_kept = !kept;
      w_leaves = !leaves;
      w_cut = !cut;
      w_found = !all_found;
      w_levels = !levels;
      w_peak = !peak;
    }
  in
  (* A worker that dies must poison the barrier so its peers unwind
     instead of waiting forever; the first recorded exception is
     re-raised after EVERY domain is joined. *)
  let guarded d () =
    try Ok (worker d ()) with
    | Barrier.Poisoned -> Error ()
    | e ->
      ignore (Atomic.compare_and_set err None (Some e));
      Barrier.poison barrier;
      Error ()
  in
  let spawned =
    Array.init (n_domains - 1) (fun i -> Domain.spawn (guarded (i + 1)))
  in
  let mine = guarded 0 () in
  let outs = Array.append [| mine |] (Array.map Domain.join spawned) in
  (match Atomic.get err with Some e -> raise e | None -> ());
  (match sp_opt, tiered with
  | Some sp, Some tv ->
    sp.sp_store <- Some (Elin_store.Tiered_set.stats tv);
    Elin_store.Tiered_set.close tv
  | _ -> ());
  (match manifest, sp_opt with
  | Some m, Some sp -> sp.sp_resumed <- Some m.seq
  | _ -> ());
  let outs =
    Array.map (function Ok o -> o | Error () -> assert false) outs
  in
  let verdicts =
    List.sort_uniq compare
      (Array.fold_left (fun acc o -> List.rev_append o.w_found acc) [] outs)
  in
  let sum f = Array.fold_left (fun n o -> n + f o) 0 outs in
  let stats =
    {
      states = sum (fun o -> o.w_states);
      dedup_hits = sum (fun o -> o.w_hits);
      kept = sum (fun o -> o.w_kept);
      pruned = 0;
      frontier_peak = outs.(0).w_peak;
      leaves = sum (fun o -> o.w_leaves);
      cut = sum (fun o -> o.w_cut);
      levels = outs.(0).w_levels;
      per_domain = Array.map (fun o -> o.w_states) outs;
      domains = n_domains;
      wall = Elin_obs.Clock.now_s () -. t0;
    }
  in
  (verdicts, stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "states %d  dedup-hits %d (rate %.1f%%)  pruned %d  frontier-peak %d  \
     leaves %d  cut %d  levels %d  domains %d  per-domain [%s]  wall %.3fs"
    s.states s.dedup_hits (100. *. dedup_rate s) s.pruned s.frontier_peak
    s.leaves s.cut s.levels s.domains
    (String.concat "; " (List.map string_of_int (Array.to_list s.per_domain)))
    s.wall
