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

    A node expansion allocates nothing of its own: the placed set
    ([Bitset]) and the state vector are mutated in place and undone on
    backtrack, failures go into one unboxed [Memo_key] table per run,
    and the per-node loops are [for]/[while] loops or recursive
    functions defined once per run, never closures built per node.
    What a node still allocates is [Spec.apply]'s transition list.

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

(* The distinct objects of [ops] in ascending order — the order of
   [History.objs], which [?init] documents — found in one scan, and
   each operation's index into them.  Histories touch one object or a
   few, so a linear lookup beats a hash table. *)
let rec index_of (objs : int array) o k =
  if k = Array.length objs then -1
  else if objs.(k) = o then k
  else index_of objs o (k + 1)

let object_slots (ops : Operation.t array) =
  let objs = ref [||] in
  for i = 0 to Array.length ops - 1 do
    let o = ops.(i).Operation.obj and a = !objs in
    if index_of a o 0 < 0 then begin
      (* Insert [o] at its ascending position ([Array.sort] would
         build its helper closures on every prepare). *)
      let p = ref 0 in
      while !p < Array.length a && a.(!p) < o do incr p done;
      let b = Array.make (Array.length a + 1) o in
      Array.blit a 0 b 0 !p;
      Array.blit a !p b (!p + 1) (Array.length a - !p);
      objs := b
    end
  done;
  let objs = !objs in
  ( objs,
    Array.map (fun (op : Operation.t) -> index_of objs op.Operation.obj 0) ops
  )

(** [prepare cfg h] — build the cut-independent search structures once;
    {!check_at} / {!witness_at} then decide any cut against them. *)
let prepare cfg h =
  let ts = Obs.Trace.begin_ns () in
  let ops = History.ops_array h in
  let objs, slot = object_slots ops in
  let specs = Array.map cfg.spec_of_obj objs in
  let completed = Array.map Operation.is_complete ops in
  let n_completed = ref 0 in
  for i = 0 to Array.length completed - 1 do
    if completed.(i) then incr n_completed
  done;
  let p =
    {
      cfg;
      len = History.length h;
      n = Array.length ops;
      ops;
      specs;
      slot;
      init_states = Array.map Spec.initial specs;
      completed;
      n_completed = !n_completed;
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
  for j = 0 to n - 1 do
    match ops.(j).Operation.resp with
    | Some (_, rj) when rj >= t ->
      (* Count j's successors, then fill an array of exactly that
         size: no intermediate list per run. *)
      let k = ref 0 in
      for i = 0 to n - 1 do
        let inv = ops.(i).Operation.inv in
        if inv >= t && rj < inv then incr k
      done;
      let out = Array.make !k 0 in
      k := 0;
      for i = 0 to n - 1 do
        let inv = ops.(i).Operation.inv in
        if inv >= t && rj < inv then begin
          n_preds.(i) <- n_preds.(i) + 1;
          out.(!k) <- i;
          incr k
        end
      done;
      succs.(j) <- out
    | Some _ | None -> ()
  done;
  (fixed_resp, n_preds, succs)

(* ------------------------------------------------------------------ *)
(* The shared DFS core                                                *)
(* ------------------------------------------------------------------ *)

(* Does the cut let operation [id] return [r]?  [fixed] is its
   [fixed_resp] entry. *)
let admits fixed r =
  match fixed with None -> true | Some f -> Value.equal f r

(* Does [transitions] hold one the cut admits — the filter, without
   building the filtered list? *)
let rec any_admitted fixed = function
  | [] -> false
  | (r, _) :: rest -> admits fixed r || any_admitted fixed rest

let decr_all missing (out : int array) =
  for k = 0 to Array.length out - 1 do
    missing.(out.(k)) <- missing.(out.(k)) - 1
  done

let incr_all missing (out : int array) =
  for k = 0 to Array.length out - 1 do
    missing.(out.(k)) <- missing.(out.(k)) + 1
  done

let start_states ~who init_states = function
  | None -> Array.copy init_states
  | Some s ->
    if Array.length s <> Array.length init_states then
      invalid_arg (who ^ ": init state vector has wrong arity");
    Array.copy s

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
  let memoize = cfg.memoize in
  let memo_hits = ref 0 in
  (* The placed set and the state vector of the current DFS node,
     mutated in place and restored on backtrack; the memo copies them
     only when inserting a failure. *)
  let placed = Bitset.create n in
  let states = start_states ~who:"Engine.run" init_states init in
  let memo = Memo_key.create ~width:n ~arity:(Array.length states) in
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
  let rec dfs n_placed_completed =
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
          let sl = slot.(id) in
          let fixed = fixed_resp.(id) in
          let transitions =
            Spec.apply specs.(sl) states.(sl) ops.(id).Operation.op
          in
          if any_admitted fixed transitions then
            success :=
              place id sl fixed transitions
                (n_placed_completed + Bool.to_int completed.(id))
          else if smart && completed.(id) && slot_left.(sl) = 1 then
            (* Early rejection: [id] must eventually appear in S (it is
               completed), takes no legal transition from the current
               state of its object, and no other unplaced operation can
               ever change that state — this node is dead regardless of
               the remaining choices. *)
            dead := true
        end
      done;
      if memoize && not !success then ignore (Memo_key.add memo placed states);
      !success
    end
  (* Place [id] on slot [sl] and try its admitted transitions; undo
     everything unless one of them succeeds. *)
  and place id sl fixed transitions n' =
    Bitset.set placed id;
    let out = succs.(id) in
    decr_all missing out;
    if smart then slot_left.(sl) <- slot_left.(sl) - 1;
    let saved = states.(sl) in
    let ok = try_transitions id sl fixed n' transitions in
    if not ok then begin
      states.(sl) <- saved;
      if smart then slot_left.(sl) <- slot_left.(sl) + 1;
      incr_all missing out;
      Bitset.clear placed id
    end;
    ok
  (* Memo lookahead: a child whose (placed set, state vector) failure
     is already memoized is pruned {e before} expansion, not bumped and
     re-entered — memoized children cost one table lookup, not a DFS
     node.  The bit for [id] is already set, so the probe reads the
     child's key from the live [placed] and [states]. *)
  and try_transitions id sl fixed n' = function
    | [] -> false
    | (r, q') :: rest ->
      if not (admits fixed r) then try_transitions id sl fixed n' rest
      else begin
        states.(sl) <- q';
        if memoize && Memo_key.mem memo placed states then begin
          incr memo_hits;
          bump_hint id;
          try_transitions id sl fixed n' rest
        end
        else begin
          (match trace with
          | Some tr -> tr := (ops.(id), r) :: !tr
          | None -> ());
          dfs n'
          || begin
               bump_hint id;
               (match trace with Some tr -> tr := List.tl !tr | None -> ());
               try_transitions id sl fixed n' rest
             end
        end
      end
  in
  let ok = dfs 0 in
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
  let placed = Bitset.create n in
  let states = start_states ~who:"Engine.final_states" init_states init in
  let arity = Array.length states in
  let visited = Memo_key.create ~width:n ~arity in
  (* End states, keyed with the empty placed set. *)
  let finals = Memo_key.create ~width:0 ~arity in
  let no_ops = Bitset.create 0 in
  let rec dfs n_placed_completed =
    Budget.bump budget;
    (* Every completed operation placed: this branch is a legal
       linearization (remaining pending ops may be dropped) — record
       its end state, then keep extending with pending ops, whose
       inclusion reaches further states. *)
    if n_placed_completed = n_completed then
      ignore (Memo_key.add finals no_ops states);
    for id = 0 to n - 1 do
      if (not (Bitset.mem placed id)) && missing.(id) = 0 then begin
        let sl = slot.(id) in
        let fixed = fixed_resp.(id) in
        let transitions =
          Spec.apply specs.(sl) states.(sl) ops.(id).Operation.op
        in
        if any_admitted fixed transitions then begin
          Bitset.set placed id;
          let out = succs.(id) in
          decr_all missing out;
          let saved = states.(sl) in
          visit sl fixed
            (n_placed_completed + Bool.to_int completed.(id))
            transitions;
          states.(sl) <- saved;
          incr_all missing out;
          Bitset.clear placed id
        end
      end
    done
  and visit sl fixed n' = function
    | [] -> ()
    | (r, q') :: rest ->
      if admits fixed r then begin
        states.(sl) <- q';
        if Memo_key.add visited placed states then dfs n'
        else incr visited_hits
      end;
      visit sl fixed n' rest
  in
  dfs 0;
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
      (Memo_key.states finals)
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
