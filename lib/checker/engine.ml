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
    per cut.

    A node visits only its ready candidates: the unplaced operations
    none of whose real-time predecessors is still unplaced.  They are
    held in a [Bitset] that entering a child and backtracking update
    through counts of unplaced immediate predecessors and a forward
    adjacency, and the node walks it word by word, lowest member
    first, so its scan costs O(ready) plus a read per word, not O(n).
    The walk visits ids in ascending (invocation) order; a run given
    a failure hint with a non-zero score relabels operations into hint
    order when it starts, so the same walk visits them in that order.

    A node expansion allocates nothing: the placed and ready sets and
    the state vector are mutated in place and undone on backtrack,
    failures go into the domain's unboxed [Memo_key] table, and the
    per-node loops are [while] loops or recursive functions defined
    once per run, never closures built per node.  A deterministic
    spec ([Spec.Deterministic]) is read through its [response] and
    [next] functions, the next state computed only for a response the
    cut admits; only a relational spec ([Spec.Relation]) still builds
    its transition list.  A child's key is hashed once, by the memo
    lookahead, and the hash travels with the child to its failure
    insert.

    Multi-object histories are handled directly (a sequential history
    is legal iff each per-object projection is legal, cf. [11]), which
    the locality experiments (Lemma 7) exploit. *)

open Elin_kernel
open Elin_spec
open Elin_history

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
}

exception Budget_exceeded = Budget.Exceeded

let config ?node_budget ?(memoize = true) ?poll spec_of_obj =
  { spec_of_obj; node_budget; memoize; poll }

(** One-object convenience. *)
let for_spec ?node_budget ?memoize ?poll spec =
  config ?node_budget ?memoize ?poll (fun _ -> spec)

type verdict = { ok : bool; nodes_explored : int; memo_hits : int }

(* ------------------------------------------------------------------ *)
(* Prepared histories: cut-independent structures                     *)
(* ------------------------------------------------------------------ *)

type prepared = {
  cfg : config;
  len : int;                    (* history length in events *)
  n : int;                      (* operations *)
  ops : Operation.t array;      (* indexed by operation id *)
  kinds : Spec.transitions array;  (* per object slot *)
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
      kinds = Array.map Spec.transitions specs;
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

(* The DFS frontier: the ready set and the counts that maintain it.
   Indices are positions in the run's scan order (operation ids unless
   a hint reorders them). *)
type frontier = {
  ready : Bitset.t;
      (* unplaced positions with [missing = 0], walked by every node *)
  missing : int array;  (* unplaced immediate real-time predecessors *)
  succs : int array array;  (* immediate real-time successors *)
}

(* Cut-dependent tables over [ops] (one operation per position).  At
   cut [t], op j is a real-time predecessor of op i iff j's response
   index r_j and i's invocation index both survive the cut (>= t) and
   r_j < inv_i.  The relation is transitive and the DFS places an
   operation only once all its predecessors are placed, so the placed
   set is always closed under predecessors, and an unplaced operation
   is ready iff its immediate predecessors are placed.  j's immediate
   successors are the operations invoked after r_j but before the
   first response of an operation invoked after r_j (any later one
   follows that operation).  We store counts of unplaced immediate
   predecessors plus the forward adjacency, so the DFS maintains the
   ready set incrementally: O(immediate successors) bookkeeping per
   placement — a few with a few processes, not O(n) — and no
   readiness test at all for a candidate. *)
let cut_tables (ops : Operation.t array) ~t =
  let n = Array.length ops in
  (* Response constraint: Some r if the response event index >= t. *)
  let fixed_resp =
    Array.map
      (fun (o : Operation.t) ->
        match o.Operation.resp with
        | Some (v, ri) when ri >= t -> Some v
        | Some _ | None -> None)
      ops
  in
  let missing = Array.make n 0 in
  let succs = Array.make n [||] in
  for j = 0 to n - 1 do
    match ops.(j).Operation.resp with
    | Some (_, rj) when rj >= t ->
      let horizon = ref max_int in
      for k = 0 to n - 1 do
        match ops.(k).Operation.resp with
        | Some (_, rk) when ops.(k).Operation.inv > rj && rk < !horizon ->
          horizon := rk
        | Some _ | None -> ()
      done;
      (* Count j's immediate successors, then fill an array of exactly
         that size: no intermediate list per run. *)
      let k = ref 0 in
      for i = 0 to n - 1 do
        let inv = ops.(i).Operation.inv in
        if rj < inv && inv < !horizon then incr k
      done;
      let out = Array.make !k 0 in
      k := 0;
      for i = 0 to n - 1 do
        let inv = ops.(i).Operation.inv in
        if rj < inv && inv < !horizon then begin
          missing.(i) <- missing.(i) + 1;
          out.(!k) <- i;
          incr k
        end
      done;
      succs.(j) <- out
    | Some _ | None -> ()
  done;
  let ready = Bitset.create n in
  for i = 0 to n - 1 do
    if missing.(i) = 0 then Bitset.set ready i
  done;
  (fixed_resp, { ready; missing; succs })

(* Enter the child that placed [i]: [i] leaves the ready set, and every
   successor whose last unplaced predecessor it was joins it.  The
   caller sets [i]'s placed bit before the memo lookahead, which reads
   it, and calls [enter] only for a child it expands, so a memoized
   child costs no ready-set work. *)
let enter fr i =
  Bitset.clear fr.ready i;
  let out = fr.succs.(i) in
  for k = 0 to Array.length out - 1 do
    let j = out.(k) in
    let m = fr.missing.(j) - 1 in
    fr.missing.(j) <- m;
    if m = 0 then Bitset.set fr.ready j
  done

(* Undo [enter fr i] exactly, so a node's ready set is the same before
   and after each child it tries. *)
let leave fr i =
  let out = fr.succs.(i) in
  for k = 0 to Array.length out - 1 do
    let j = out.(k) in
    let m = fr.missing.(j) in
    if m = 0 then Bitset.clear fr.ready j;
    fr.missing.(j) <- m + 1
  done;
  Bitset.set fr.ready i

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

let start_states ~who init_states = function
  | None -> Array.copy init_states
  | Some s ->
    if Array.length s <> Array.length init_states then
      invalid_arg (who ^ ": init state vector has wrong arity");
    Array.copy s

(* The scan order a run's failure hints ask for: [None] (ids in
   ascending, invocation order) without hints or while every score is
   0, else position -> operation id, ids stably sorted by score so
   that ties keep invocation order. *)
let hint_order p = function
  | None -> None
  | Some h ->
    if Array.length h <> p.n then
      invalid_arg "Engine.check_at: hint length is not the operation count";
    if Array.for_all (fun s -> s = 0) h then None
    else begin
      let a = Array.init p.n Fun.id in
      Array.stable_sort (fun i j -> Int.compare h.(i) h.(j)) a;
      Some a
    end

(* [a] read in scan order: [perm] maps positions to ids; [None] is
   the identity, which costs no copy. *)
let relabel perm a =
  match perm with None -> a | Some perm -> Array.map (fun id -> a.(id)) perm

(* [run p ~t ~trace] — the one DFS behind search AND witness.  When
   [trace] is given, it accumulates the (operation, response) choices
   of the current branch (reversed); on success it holds the
   linearization.  Budget and memoization apply identically in both
   modes.

   [init] overrides the initial state vector (one entry per object
   slot) — the gap-cut composition of [Decompose] checks segment
   sub-histories from the states the previous segment can reach.

   [hint], one score per operation, biases the candidate scan:
   operations with a higher score are tried later.  The run mutates
   [hint] in place — a bump per failed subtree and per memo-lookahead
   prune — so a caller probing many cuts against one history (the
   min_t gallop) carries what earlier cuts learned into later ones.
   Purely heuristic: any scan order decides the same predicate. *)
let run ?hint ?init p ~t ~trace =
  let span_ts = Obs.Trace.begin_ns () in
  let { cfg; kinds; init_states; n_completed; _ } = p in
  (* Under a hint order every per-operation table is read by position
     in the scan order, fixed here from the hints as they stand. *)
  let perm = hint_order p hint in
  let ops = relabel perm p.ops in
  let slot = relabel perm p.slot in
  let completed = relabel perm p.completed in
  let fixed_resp, fr = cut_tables ops ~t in
  let placed = Bitset.create p.n and ready = fr.ready in
  let nw = Bitset.word_count ready in
  let budget = Budget.counter ?limit:cfg.node_budget ?poll:cfg.poll () in
  let memoize = cfg.memoize in
  let memo_hits = ref 0 in
  (* The state vector of the current DFS node, mutated in place and
     restored on backtrack; the memo copies it and the placed set only
     when inserting a failure. *)
  let states = start_states ~who:"Engine.run" init_states init in
  Memo_key.borrow ~width:p.n ~arity:(Array.length states) @@ fun memo ->
  (* Hint bumps land on operation ids, whatever the scan order. *)
  let bump_hint pos =
    match hint with
    | Some h ->
      let id = match perm with None -> pos | Some a -> a.(pos) in
      h.(id) <- h.(id) + 1
    | None -> ()
  in
  (* [h] is the hash of this node's key, computed by its parent's memo
     lookahead, for the failure insert. *)
  let rec dfs n_placed_completed h =
    Budget.bump budget;
    if n_placed_completed = n_completed then true
    else begin
      let success = ref false in
      let w = ref 0 in
      while (not !success) && !w < nw do
        (* Children restore [ready] before returning, so the word read
           here stays this node's ready set while its members run. *)
        let bits = ref (Bitset.word ready !w) in
        while (not !success) && !bits <> 0 do
          let b = !bits land - !bits in
          bits := !bits lxor b;
          let id = (!w * Bitset.bits_per_word) + Bitset.bit_index b in
          let sl = slot.(id) in
          let fixed = fixed_resp.(id) in
          let q = states.(sl) and op = ops.(id).Operation.op in
          let n' = n_placed_completed + Bool.to_int completed.(id) in
          (* A deterministic candidate's next state is computed only
             once the cut admits its response. *)
          let admitted =
            match kinds.(sl) with
            | Spec.Deterministic d ->
              let r = d.response q op in
              let ok = admits fixed r in
              if ok then begin
                Bitset.set placed id;
                success := try_one id sl r (d.next q op) n'
              end;
              ok
            | Spec.Relation f ->
              let transitions = f q op in
              let ok = any_admitted fixed transitions in
              if ok then begin
                Bitset.set placed id;
                success := try_list id sl fixed n' transitions
              end;
              ok
          in
          if admitted && not !success then begin
            states.(sl) <- q;
            Bitset.clear placed id
          end
        done;
        incr w
      done;
      if memoize && not !success then
        ignore (Memo_key.add_hashed memo placed states h);
      !success
    end
  (* Try the admitted transition (r, q') of the placed [id].  Memo
     lookahead: a child whose (placed set, state vector) failure is
     already memoized is pruned {e before} expansion, not bumped and
     re-entered — memoized children cost one table lookup, not a DFS
     node.  The bit for [id] is already set, so the probe reads the
     child's key from the live [placed] and [states]. *)
  and try_one id sl r q' n' =
    states.(sl) <- q';
    let h = if memoize then Memo_key.hash placed states else 0 in
    if memoize && Memo_key.mem_hashed memo placed states h then begin
      incr memo_hits;
      bump_hint id;
      false
    end
    else begin
      (match trace with
      | Some tr -> tr := (ops.(id), r) :: !tr
      | None -> ());
      enter fr id;
      dfs n' h
      || begin
           leave fr id;
           bump_hint id;
           (match trace with Some tr -> tr := List.tl !tr | None -> ());
           false
         end
    end
  (* A relational spec's transitions, in [Spec.apply]'s order. *)
  and try_list id sl fixed n' = function
    | [] -> false
    | (r, q') :: rest ->
      (admits fixed r && try_one id sl r q' n')
      || try_list id sl fixed n' rest
  in
  let ok = dfs 0 (if memoize then Memo_key.hash placed states else 0) in
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
  let { cfg; ops; kinds; slot; init_states; completed; n_completed; _ } = p in
  let fixed_resp, fr = cut_tables ops ~t:0 in
  let placed = Bitset.create p.n and ready = fr.ready in
  let nw = Bitset.word_count ready in
  let budget = Budget.counter ?limit:cfg.node_budget ?poll:cfg.poll () in
  let visited_hits = ref 0 in
  let states = start_states ~who:"Engine.final_states" init_states init in
  let arity = Array.length states in
  Memo_key.borrow ~width:p.n ~arity @@ fun visited ->
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
    for w = 0 to nw - 1 do
      let bits = ref (Bitset.word ready w) in
      while !bits <> 0 do
        let b = !bits land - !bits in
        bits := !bits lxor b;
        let id = (w * Bitset.bits_per_word) + Bitset.bit_index b in
        let sl = slot.(id) in
        let fixed = fixed_resp.(id) in
        let q = states.(sl) and op = ops.(id).Operation.op in
        let n' = n_placed_completed + Bool.to_int completed.(id) in
        match kinds.(sl) with
        | Spec.Deterministic d ->
          let r = d.response q op in
          if admits fixed r then begin
            let q' = d.next q op in
            Bitset.set placed id;
            visit id sl n' q';
            states.(sl) <- q;
            Bitset.clear placed id
          end
        | Spec.Relation f ->
          let transitions = f q op in
          if any_admitted fixed transitions then begin
            Bitset.set placed id;
            visit_list id sl fixed n' transitions;
            states.(sl) <- q;
            Bitset.clear placed id
          end
      done
    done
  and visit id sl n' q' =
    states.(sl) <- q';
    if Memo_key.add visited placed states then begin
      enter fr id;
      dfs n';
      leave fr id
    end
    else incr visited_hits
  and visit_list id sl fixed n' = function
    | [] -> ()
    | (r, q') :: rest ->
      if admits fixed r then visit id sl n' q';
      visit_list id sl fixed n' rest
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
