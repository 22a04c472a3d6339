(** The generic t-linearization search engine.

    Decides Definition 2 of the paper for finite histories over any
    finite-nondeterminism specs: is there a legal sequential history S
    such that

    - every operation invoked in S is invoked in H,
    - every operation completed in H is completed in S,
    - if op1's response precedes op2's invocation and both events
      survive the removal of the first [t] events, and op2 is in S,
      then op1 precedes op2 in S, and
    - every operation whose response survives the removal keeps its
      response in S?

    The search is a Wing–Gong-style DFS over "next operation of S"
    choices, with failure memoization keyed on (set of operations
    already placed, object-state vector).  Operations completed within
    the first [t] events may be reordered arbitrarily and may change
    responses; pending operations may be included or dropped.

    {2 Hot-path structure}

    A single parameterized DFS core ([run]) serves both {!search} and
    {!witness}, so budget and memoization semantics cannot diverge
    between the two (they had: witness used to ignore both).  The
    per-history structures that do not depend on the cut — operation
    array, object slots, initial spec states — are built once by
    {!prepare} and reused across every cut [Eventual.min_t] probes;
    only the cut-dependent [fixed_resp]/predecessor tables are rebuilt
    per cut.  Readiness ("all real-time predecessors placed") is
    tracked incrementally with predecessor counts and a forward
    adjacency, replacing a per-candidate scan of predecessor lists at
    every DFS node.

    Multi-object histories are handled directly (a sequential history
    is legal iff each per-object projection is legal, cf. [11]), which
    the locality experiments (Lemma 7) exploit. *)

open Elin_kernel
open Elin_spec
open Elin_history

type order = [ `History | `Smart ]

type config = {
  (* Spec of each object appearing in the history. *)
  spec_of_obj : int -> Spec.t;
  (* Give up after this many DFS node expansions (None = no budget).
     Exceeding the budget raises [Budget_exceeded]. *)
  node_budget : int option;
  (* Failure memoization on (placed set, state vector); disabling it
     exists only for the ablation benchmark. *)
  memoize : bool;
  (* Cooperative hook run every [Budget.poll_interval] DFS expansions
     (see [Budget.counter]); the serving layer's wall-clock timeouts
     and job cancellation raise from here. *)
  poll : (unit -> unit) option;
  (* Candidate scan order at each DFS node.  [`History] (the default)
     scans operations by id — invocation order — and is the
     node-count-pinned behaviour behind the committed goldens and
     baselines.  [`Smart] scans earliest-response-first (pending ops
     last, by invocation), optionally biased by a caller-threaded
     failure [hint], and early-rejects dead nodes where a completed
     operation can no longer take any legal response.  Verdicts are
     identical in both orders; only exploration counts differ. *)
  order : order;
}

exception Budget_exceeded = Budget.Exceeded

let config ?node_budget ?(memoize = true) ?poll ?(order = `History)
    spec_of_obj =
  { spec_of_obj; node_budget; memoize; poll; order }

(** One-object convenience. *)
let for_spec ?node_budget ?memoize ?poll ?order spec =
  config ?node_budget ?memoize ?poll ?order (fun _ -> spec)

type verdict = { ok : bool; nodes_explored : int; memo_hits : int }

(* ------------------------------------------------------------------ *)
(* Prepared histories: cut-independent structures                     *)
(* ------------------------------------------------------------------ *)

type prepared = {
  cfg : config;
  len : int;                    (* history length in events *)
  n : int;                      (* operations *)
  ops : Operation.t array;      (* indexed by operation id *)
  specs : Spec.t array;         (* per object slot *)
  slot : int array;             (* operation id -> object slot *)
  init_states : Value.t array;  (* per object slot *)
  completed : bool array;
  n_completed : int;
}

(* Per-run observability.  [run]/[prepare] are per-cut entry points —
   a few calls per job, not per-node — so the counter adds live here
   unguarded; the per-node work is already aggregated in
   [nodes_explored]/[memo_hits] and folded in at the end. *)
module Obs = Elin_obs

let m_prepares = Obs.Metrics.counter "engine.prepares"
let m_runs = Obs.Metrics.counter "engine.runs"
let m_nodes = Obs.Metrics.counter "engine.nodes"
let m_memo_hits = Obs.Metrics.counter "engine.memo_hits"

(** [prepare cfg h] — build the cut-independent search structures once;
    {!check_at} / {!witness_at} then decide any cut against them. *)
let prepare cfg h =
  let ts = Obs.Trace.begin_ns () in
  let ops = History.ops_array h in
  let objs = Array.of_list (History.objs h) in
  let obj_slot =
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun i o -> Hashtbl.replace tbl o i) objs;
    fun o -> Hashtbl.find tbl o
  in
  let completed = Array.map Operation.is_complete ops in
  let p =
    {
      cfg;
      len = History.length h;
      n = Array.length ops;
      ops;
      specs = Array.map cfg.spec_of_obj objs;
      slot = Array.map (fun (o : Operation.t) -> obj_slot o.Operation.obj) ops;
      init_states = Array.map (fun o -> Spec.initial (cfg.spec_of_obj o)) objs;
      completed;
      n_completed =
        Array.fold_left (fun acc c -> acc + Bool.to_int c) 0 completed;
    }
  in
  if Obs.Metrics.on () then Obs.Metrics.Counter.incr m_prepares;
  if Obs.Trace.on () then
    Obs.Trace.complete ~cat:"engine" ~ts "engine.prepare"
      ~args:[ ("ops", Obs.Jsonl.Int p.n) ];
  p

let history_length p = p.len

(* Cut-dependent tables.  At cut [t], op j is a real-time predecessor
   of op i iff j's response index r_j and i's invocation index both
   survive the cut (>= t) and r_j < inv_i.  We store predecessor
   COUNTS ([n_preds]) plus the forward adjacency ([succs]), so the DFS
   maintains the ready set incrementally — O(out-degree) bookkeeping
   per placement and an O(1) readiness test per candidate — instead of
   re-running [List.for_all] over predecessor lists for every
   candidate at every node. *)
let cut_tables p ~t =
  let n = p.n and ops = p.ops in
  (* Response constraint: Some r if the response event index >= t. *)
  let fixed_resp =
    Array.map
      (fun (o : Operation.t) ->
        match o.Operation.resp with
        | Some (v, ri) when ri >= t -> Some v
        | Some _ | None -> None)
      ops
  in
  let n_preds = Array.make n 0 in
  let succs = Array.make n [||] in
  Array.iter
    (fun (oj : Operation.t) ->
      match oj.Operation.resp with
      | Some (_, rj) when rj >= t ->
        let out = ref [] in
        for i = n - 1 downto 0 do
          let oi = ops.(i) in
          if oi.Operation.inv >= t && rj < oi.Operation.inv then begin
            n_preds.(i) <- n_preds.(i) + 1;
            out := i :: !out
          end
        done;
        succs.(oj.Operation.id) <- Array.of_list !out
      | Some _ | None -> ())
    ops;
  (fixed_resp, n_preds, succs)

(* ------------------------------------------------------------------ *)
(* The shared DFS core                                                *)
(* ------------------------------------------------------------------ *)

(* [run p ~t ~trace] — the one DFS behind search AND witness.  When
   [trace] is given, it accumulates the (operation, response) choices
   of the current branch (reversed); on success it holds the
   linearization.  Budget and memoization apply identically in both
   modes.

   [init] overrides the initial state vector (one entry per object
   slot) — the gap-cut composition of [Decompose] checks segment
   sub-histories from the states the previous segment can reach.

   [hint], only read under [`Smart] order, biases the candidate scan:
   operations with a higher hint score are tried later.  The run
   mutates [hint] in place — a bump per failed subtree and per
   memo-lookahead prune — so a caller probing many cuts against one
   history (the min_t gallop) carries what earlier cuts learned into
   later ones.  Purely heuristic: any scan order decides the same
   predicate. *)
let run ?hint ?init p ~t ~trace =
  let span_ts = Obs.Trace.begin_ns () in
  let { cfg; n; ops; specs; slot; init_states; completed; n_completed; _ } =
    p
  in
  let fixed_resp, n_preds, succs = cut_tables p ~t in
  (* missing.(i): i's real-time predecessors not yet placed; the ready
     set is { i | not placed, missing.(i) = 0 }.  [cut_tables] is
     fresh per run, so we mutate [n_preds] in place. *)
  let missing = n_preds in
  let budget = Budget.counter ?limit:cfg.node_budget ?poll:cfg.poll () in
  let memo_hits = ref 0 in
  (* Sized for the minor heap: a bucket array over 256 words is
     allocated straight in the major heap, on every call however small
     the history, and the model checker makes one call per leaf.  The
     table grows as the search needs it. *)
  let memo = Memo_key.Memo.create 16 in
  (* One state vector, mutated in place and restored on backtrack; the
     memo snapshots it ([Array.copy]) only when inserting a failure, so
     the hot path allocates nothing per transition. *)
  let states =
    match init with
    | None -> Array.copy init_states
    | Some s ->
      if Array.length s <> Array.length init_states then
        invalid_arg "Engine.run: init state vector has wrong arity";
      Array.copy s
  in
  (* Smart order: a static candidate permutation, earliest response
     first (pending operations last, by invocation), stable-sorted
     under the caller's failure hints.  [None] = scan by id, the
     pinned default. *)
  let scan =
    match cfg.order with
    | `History -> None
    | `Smart ->
      let key =
        Array.map
          (fun (o : Operation.t) ->
            match o.Operation.resp with
            | Some (_, ri) -> ri
            | None -> p.len + o.Operation.inv)
          ops
      in
      let penalty =
        match hint with Some h -> fun i -> h.(i) | None -> fun _ -> 0
      in
      let a = Array.init n (fun i -> i) in
      Array.sort
        (fun i j ->
          let c = compare (penalty i) (penalty j) in
          if c <> 0 then c
          else
            let c = compare key.(i) key.(j) in
            if c <> 0 then c else compare i j)
        a;
      Some a
  in
  let bump_hint id =
    match hint with Some h -> h.(id) <- h.(id) + 1 | None -> ()
  in
  (* slot_left.(s): unplaced operations on slot [s] — maintained only
     under [`Smart] for the dead-node early rejection below. *)
  let slot_left =
    match cfg.order with
    | `History -> [||]
    | `Smart ->
      let a = Array.make (Array.length init_states) 0 in
      Array.iter (fun s -> a.(s) <- a.(s) + 1) slot;
      a
  in
  let smart = cfg.order = `Smart in
  (* Memo lookahead: a child whose (placed set, state vector) failure
     is already memoized is pruned {e before} expansion, not bumped and
     re-entered — memoized children cost one table lookup, not a DFS
     node.  Lookups read the live [states]; [Memo_key.Key.equal]
     compares contents. *)
  let memoized placed =
    cfg.memoize && Memo_key.Memo.mem memo (placed, states)
  in
  let rec dfs placed n_placed_completed =
    Budget.bump budget;
    if n_placed_completed = n_completed then true
    else begin
      let success = ref false in
      let dead = ref false in
      let i = ref 0 in
      while (not !success) && (not !dead) && !i < n do
        let id = match scan with None -> !i | Some a -> a.(!i) in
        incr i;
        if (not (Bitset.mem placed id)) && missing.(id) = 0 then begin
          let o = ops.(id) in
          let sl = slot.(id) in
          let transitions = Spec.apply specs.(sl) states.(sl) o.Operation.op in
          let transitions =
            match fixed_resp.(id) with
            | Some r ->
              List.filter (fun (r', _) -> Value.equal r r') transitions
            | None -> transitions
          in
          if transitions <> [] then begin
            let placed' = Bitset.add placed id in
            let n' = n_placed_completed + Bool.to_int completed.(id) in
            let out = succs.(id) in
            Array.iter (fun s -> missing.(s) <- missing.(s) - 1) out;
            if smart then slot_left.(sl) <- slot_left.(sl) - 1;
            let saved = states.(sl) in
            List.iter
              (fun (r, q') ->
                if not !success then begin
                  states.(sl) <- q';
                  if memoized placed' then begin
                    incr memo_hits;
                    bump_hint id
                  end
                  else begin
                    (match trace with
                    | Some tr -> tr := (o, r) :: !tr
                    | None -> ());
                    if dfs placed' n' then success := true
                    else begin
                      bump_hint id;
                      match trace with
                      | Some tr -> tr := List.tl !tr
                      | None -> ()
                    end
                  end
                end)
              transitions;
            if not !success then begin
              states.(sl) <- saved;
              if smart then slot_left.(sl) <- slot_left.(sl) + 1;
              Array.iter (fun s -> missing.(s) <- missing.(s) + 1) out
            end
          end
          else if smart && completed.(id) && slot_left.(sl) = 1 then
            (* Early rejection: [id] must eventually appear in S (it is
               completed), takes no legal transition from the current
               state of its object, and no other unplaced operation can
               ever change that state — this node is dead regardless of
               the remaining choices. *)
            dead := true
        end
      done;
      if cfg.memoize && not !success then
        Memo_key.Memo.replace memo (placed, Array.copy states) ();
      !success
    end
  in
  let ok = dfs (Bitset.empty n) 0 in
  let v = { ok; nodes_explored = Budget.spent budget; memo_hits = !memo_hits } in
  if Obs.Metrics.on () then begin
    Obs.Metrics.Counter.incr m_runs;
    Obs.Metrics.Counter.add m_nodes v.nodes_explored;
    Obs.Metrics.Counter.add m_memo_hits v.memo_hits
  end;
  if Obs.Trace.on () then
    Obs.Trace.complete ~cat:"engine" ~ts:span_ts "engine.check_at"
      ~args:
        [
          ("t", Obs.Jsonl.Int t);
          ("ok", Obs.Jsonl.Bool v.ok);
          ("nodes", Obs.Jsonl.Int v.nodes_explored);
          ("memo_hits", Obs.Jsonl.Int v.memo_hits);
        ];
  v

(* ------------------------------------------------------------------ *)
(* Public entry points                                                *)
(* ------------------------------------------------------------------ *)

(** [check_at p ~t] — decide t-linearizability against a prepared
    history. *)
let check_at ?hint ?init p ~t = run ?hint ?init p ~t ~trace:None

(** [witness_at p ~t] — additionally reconstruct a t-linearization as
    a behaviour list (operation, response) in linearization order. *)
let witness_at ?init p ~t =
  let tr = ref [] in
  let v = run ?init p ~t ~trace:(Some tr) in
  if v.ok then Some (List.rev !tr) else None

(* ------------------------------------------------------------------ *)
(* Final-state enumeration (the gap-cut composition's building block)  *)
(* ------------------------------------------------------------------ *)

(** [final_states ?init p] — every state vector a legal linearization
    of [p]'s history (at cut 0, real responses kept) can end in,
    starting from [init] (default: the specs' initial states).  Unlike
    {!check_at} this cannot stop at the first success: the gap-cut
    composition needs the {e set} of reachable boundary states, so the
    DFS runs to exhaustion over the (placed set, state vector) space —
    the memo here is a visited set, not a failure set.  A linearization
    may include or drop pending operations; both end states are
    reported.  The list is sorted (lexicographic [Value.compare]) and
    duplicate-free; it is empty iff the history is not 0-linearizable
    from [init]. *)
let final_states ?init p =
  let span_ts = Obs.Trace.begin_ns () in
  let { cfg; n; ops; specs; slot; init_states; completed; n_completed; _ } =
    p
  in
  let fixed_resp, n_preds, succs = cut_tables p ~t:0 in
  let missing = n_preds in
  let budget = Budget.counter ?limit:cfg.node_budget ?poll:cfg.poll () in
  let visited_hits = ref 0 in
  let visited = Memo_key.Memo.create 16 in  (* see [run]'s memo *)
  let states =
    match init with
    | None -> Array.copy init_states
    | Some s ->
      if Array.length s <> Array.length init_states then
        invalid_arg "Engine.final_states: init state vector has wrong arity";
      Array.copy s
  in
  let finals = Memo_key.Memo.create 16 in
  let no_ops = Bitset.empty 0 in
  let record () =
    let key = (no_ops, states) in
    if not (Memo_key.Memo.mem finals key) then
      Memo_key.Memo.replace finals (no_ops, Array.copy states) ()
  in
  let rec dfs placed n_placed_completed =
    Budget.bump budget;
    (* Every completed operation placed: this branch is a legal
       linearization (remaining pending ops may be dropped) — record
       its end state, then keep extending with pending ops, whose
       inclusion reaches further states. *)
    if n_placed_completed = n_completed then record ();
    for id = 0 to n - 1 do
      if (not (Bitset.mem placed id)) && missing.(id) = 0 then begin
        let o = ops.(id) in
        let sl = slot.(id) in
        let transitions = Spec.apply specs.(sl) states.(sl) o.Operation.op in
        let transitions =
          match fixed_resp.(id) with
          | Some r -> List.filter (fun (r', _) -> Value.equal r r') transitions
          | None -> transitions
        in
        if transitions <> [] then begin
          let placed' = Bitset.add placed id in
          let n' = n_placed_completed + Bool.to_int completed.(id) in
          let out = succs.(id) in
          Array.iter (fun s -> missing.(s) <- missing.(s) - 1) out;
          let saved = states.(sl) in
          List.iter
            (fun ((_ : Value.t), q') ->
              states.(sl) <- q';
              if Memo_key.Memo.mem visited (placed', states) then
                incr visited_hits
              else begin
                Memo_key.Memo.replace visited (placed', Array.copy states) ();
                dfs placed' n'
              end)
            transitions;
          states.(sl) <- saved;
          Array.iter (fun s -> missing.(s) <- missing.(s) + 1) out
        end
      end
    done
  in
  dfs (Bitset.empty n) 0;
  let out = ref [] in
  Memo_key.Memo.iter (fun (_, s) () -> out := s :: !out) finals;
  let out =
    List.sort
      (fun a b ->
        let rec go i =
          if i >= Array.length a then 0
          else
            let c = Value.compare a.(i) b.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0)
      !out
  in
  let v =
    {
      ok = out <> [];
      nodes_explored = Budget.spent budget;
      memo_hits = !visited_hits;
    }
  in
  if Obs.Metrics.on () then begin
    Obs.Metrics.Counter.incr m_runs;
    Obs.Metrics.Counter.add m_nodes v.nodes_explored;
    Obs.Metrics.Counter.add m_memo_hits v.memo_hits
  end;
  if Obs.Trace.on () then
    Obs.Trace.complete ~cat:"engine" ~ts:span_ts "engine.final_states"
      ~args:
        [
          ("states", Obs.Jsonl.Int (List.length out));
          ("nodes", Obs.Jsonl.Int v.nodes_explored);
        ];
  (out, v)

(** [search cfg h ~t] decides t-linearizability of [h]. *)
let search cfg h ~t = check_at (prepare cfg h) ~t

(** [t_linearizable cfg h ~t] — the boolean verdict. *)
let t_linearizable cfg h ~t = (search cfg h ~t).ok

(** [linearizable cfg h] — 0-linearizability, which coincides with
    linearizability [11]. *)
let linearizable cfg h = t_linearizable cfg h ~t:0

(** [witness cfg h ~t] — witness reconstruction, honoring the same
    node budget and memoization flags as {!search}. *)
let witness cfg h ~t = witness_at (prepare cfg h) ~t
