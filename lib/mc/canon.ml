(** Canonical encodings and fingerprints for {!Elin_explore.Explore}
    configurations.

    {2 The continuation problem}

    An [Explore.config] is almost a first-class value, except that a
    mid-operation process holds a [Program.t] continuation — a closure,
    which cannot be hashed structurally.  The continuation is, however,
    a {e deterministic function} of observable data: the operation
    being executed, the process's local state at invocation, and the
    sequence of base-object responses received so far within the
    operation (programmes are pure, [Base.access] is a pure function of
    its arguments).  So each {!node} carries, per process, a running
    64-bit {e digest} of exactly that data, updated as the search steps
    the configuration; equal digests mean equal continuations (modulo
    fingerprint collision), and the pair (config-without-closures,
    digests) is a faithful canonical key.

    Stepping therefore goes through {!successors}, which mirrors
    [Explore.step]'s branching — [Explore.step] remains the single
    source of truth for the transition semantics; this module only
    re-enumerates [Base.access] to {e label} each branch with the
    response the continuation consumed.

    {2 Symmetry reduction}

    With [~symmetry:true] the fingerprint is the minimum over all
    process renamings of the encoded configuration (process ids are
    renamed in the process array {e and} in the accumulated history).
    This quotient is sound only when (a) all workloads are identical,
    (b) the implementation is process-oblivious (programmes and base
    objects do not branch on the process id, and base states hold no
    process-indexed data), and (c) the checked predicate is invariant
    under process renaming — t-linearizability and weak consistency
    are.  (a) is enforced by {!Mc.check}; (b) is the caller's
    obligation ([Impl.of_spec] implementations qualify; board-based
    ones, whose base state is indexed by process, do not). *)

open Elin_spec
open Elin_history
open Elin_runtime
open Elin_explore
module Fp = Elin_kernel.Fingerprint

(* ------------------------------------------------------------------ *)
(* Absorbing the vocabulary types into a buffer-backed accumulator     *)
(* (word [i] of [b]): a recursive walk that allocates nothing.         *)
(* ------------------------------------------------------------------ *)

let rec value b i (v : Value.t) =
  match v with
  | Value.Unit -> Fp.byte_at b i 0
  | Value.Bool x ->
    Fp.byte_at b i 1;
    Fp.bool_at b i x
  | Value.Int n ->
    Fp.byte_at b i 2;
    Fp.int_at b i n
  | Value.Str s ->
    Fp.byte_at b i 3;
    Fp.string_at b i s
  | Value.Pair (x, y) ->
    Fp.byte_at b i 4;
    value b i x;
    value b i y
  | Value.List xs ->
    Fp.byte_at b i 5;
    Fp.int_at b i (List.length xs);
    values b i xs

and values b i = function
  | [] -> ()
  | v :: rest ->
    value b i v;
    values b i rest

let op b i (o : Op.t) =
  Fp.string_at b i (Op.name o);
  let args = Op.args o in
  Fp.int_at b i (List.length args);
  values b i args

let rec ops b i = function
  | [] -> ()
  | o :: rest ->
    op b i o;
    ops b i rest

(* [proc] is the event's process id after renaming (its own id when no
   symmetry reduction is in play). *)
let event b i ~proc (e : Event.t) =
  Fp.int_at b i proc;
  Fp.int_at b i e.Event.obj;
  match e.Event.payload with
  | Event.Invoke o ->
    Fp.byte_at b i 0;
    op b i o
  | Event.Respond v ->
    Fp.byte_at b i 1;
    value b i v

(* ------------------------------------------------------------------ *)
(* Continuation digests.                                               *)
(* ------------------------------------------------------------------ *)

(* The digest deliberately omits the process id: under symmetry
   reduction identity must not leak into the digest, and without it
   the digest's position in the per-process array carries identity. *)

(* Word [d] of [b] becomes the digest of invoking [o] from [local]. *)
let digest_invoke b d ~op:o ~local =
  Fp.start_at b d;
  Fp.byte_at b d 1;
  op b d o;
  value b d local;
  Fp.finish_at b d

(* Word [d] of [b] becomes the digest [prev] (word [j] of [src], which
   must be another word) extended by one consumed base response. *)
let digest_access_at b d src j ~obj ~op:o ~resp =
  Fp.start_at b d;
  Fp.word_at b d src j;
  Fp.byte_at b d 2;
  Fp.int_at b d obj;
  op b d o;
  value b d resp;
  Fp.finish_at b d

(* Absorb one process's visible state: todo, local, and its
   continuation digest (word [j] of [src]).  Shared by the packed
   per-process summaries and the symmetry-mode full encoding. *)
let proc_state b i (pr : Explore.proc_state) src j =
  Fp.int_at b i (List.length pr.Explore.todo);
  ops b i pr.Explore.todo;
  value b i pr.Explore.local;
  match pr.Explore.running with
  | None -> Fp.byte_at b i 0
  | Some (Program.Return _) ->
    Fp.byte_at b i 1;
    Fp.word_at b i src j
  | Some (Program.Access (obj, o, _)) ->
    Fp.byte_at b i 2;
    Fp.word_at b i src j;
    Fp.int_at b i obj;
    op b i o

(* ------------------------------------------------------------------ *)
(* Search nodes.                                                       *)
(* ------------------------------------------------------------------ *)

(* Besides the continuation digests, a node carries {e packed} state
   summaries so the (non-symmetry) fingerprint is computed from flat
   words without re-walking any structured value.  All of them live in
   one unboxed buffer, [summary], of 2n+m+1 words for n processes and
   m base objects:

   - words [0, n): the continuation digests, [0L] when idle or still
     inside the operation that was running at the search root;
   - words [n, 2n): digest of each process's full visible state (todo,
     local, continuation digest) — only the stepped process's word is
     recomputed per step;
   - words [2n, 2n+m): digest of each base object's state value — only
     the accessed object's word is recomputed per step;
   - word 2n+m: a running (unfinished) accumulator over the
     chronological event log — one event absorbed per invoke/return
     step, never a walk of the whole history.

   A successor copies its parent's buffer once and overwrites those
   words in place, using its own words as the running states.  The
   packed encoding distinguishes exactly the same configurations as a
   full structural walk (each summary is injective modulo 64-bit
   collision), so dedup classes — and every count the experiments
   record — are unchanged.

   [sleep] is the node's sleep set (partial-order reduction): a
   bitmask of processes whose next step was already explored, at an
   ancestor, in a provably commuting order.  {!successors} skips slept
   processes and computes the inherited masks; the mask caps the
   engine at 62 processes under reduction (callers guard). *)

type node = {
  config : Explore.config;
  sleep : int;  (* sleep set as a process bitmask *)
  summary : Bytes.t;  (* digests, process, object and event-log words *)
}

(* Word [n + p] becomes the summary of process [p]'s state [pr]; its
   continuation digest is word [p] of the same buffer. *)
let proc_summary b n p pr =
  let w = n + p in
  Fp.start_at ~seed:0x7070L (* "pp" *) b w;
  proc_state b w pr b p;
  Fp.finish_at b w

(* Word [w] becomes the summary of a base object's state [v]. *)
let base_summary b w v =
  Fp.start_at ~seed:0x6273L (* "bs" *) b w;
  value b w v;
  Fp.finish_at b w

(** [root config] — digests start at [0L]: within one search, a process
    still inside the operation it was running at the root holds the
    root's actual (unique) continuation, so the neutral digest is
    unambiguous.  A mid-execution root ([Mc.check_from]) pays one walk
    of its existing history here; every later step absorbs only its
    own event. *)
let root config =
  let procs = config.Explore.procs and bases = config.Explore.bases in
  let n = Array.length procs and m = Array.length bases in
  let b = Bytes.create (8 * ((2 * n) + m + 1)) in
  for p = 0 to n - 1 do
    Fp.set_word b p 0L;
    proc_summary b n p procs.(p)
  done;
  Array.iteri (fun i v -> base_summary b ((2 * n) + i) v) bases;
  let ev = (2 * n) + m in
  Fp.start_at ~seed:0x6576L (* "ev" *) b ev;
  List.iter
    (fun (e : Event.t) -> event b ev ~proc:e.Event.proc e)
    (List.rev config.Explore.events_rev);
  { config; sleep = 0; summary = b }

(* The successor [c'] of [node] by process [p], whose new continuation
   digest is already in word [p] of [b] (a copy of [node.summary]):
   refresh [p]'s summary, the touched object's ([obj], or [-1]) and
   the event-log word if [c'] appended an event. *)
let child node p ~sleep ~obj c' b =
  let n = Array.length c'.Explore.procs in
  proc_summary b n p c'.Explore.procs.(p);
  if obj >= 0 then base_summary b ((2 * n) + obj) c'.Explore.bases.(obj);
  (if c'.Explore.n_events > node.config.Explore.n_events then
     match c'.Explore.events_rev with
     | (e : Event.t) :: _ ->
       event b ((2 * n) + Array.length c'.Explore.bases) ~proc:e.Event.proc e
     | [] -> assert false);
  { config = c'; sleep; summary = b }

(* [node]'s successors by process [p], with sleep set [sleep], in front
   of [tail]. *)
let children ?choices ~sleep (impl : Impl.t) node p tail =
  let c = node.config in
  let pr = c.Explore.procs.(p) in
  match pr.Explore.running with
  | None -> (
    match pr.Explore.todo with
    | [] -> tail
    | o :: _ ->
      List.fold_right
        (fun c' tail ->
          let b = Bytes.copy node.summary in
          digest_invoke b p ~op:o ~local:pr.Explore.local;
          child node p ~sleep ~obj:(-1) c' b :: tail)
        (Explore.step impl c p) tail)
  | Some (Program.Return _) ->
    (* The response and new local state become visible in the config;
       the continuation is gone. *)
    List.fold_right
      (fun c' tail ->
        let b = Bytes.copy node.summary in
        Fp.set_word b p 0L;
        child node p ~sleep ~obj:(-1) c' b :: tail)
      (Explore.step impl c p) tail
  | Some (Program.Access (obj, o, _)) ->
    (* Enumerate the (pure) base transition once to label each branch
       with the response the continuation consumed. *)
    let choices =
      match choices with
      | Some cs -> cs
      | None -> Explore.access_choices impl c p
    in
    List.fold_right2
      (fun (resp, _) c' tail ->
        let b = Bytes.copy node.summary in
        digest_access_at b p node.summary p ~obj ~op:o ~resp;
        child node p ~sleep ~obj c' b :: tail)
      choices
      (Explore.step ~choices impl c p)
      tail

(** [step impl node p] — [Explore.step] on the underlying
    configuration, with the summary buffer updated from the
    transition's label; successors are born with an empty sleep set.
    [?choices] must be [Explore.access_choices impl node.config p] when
    given (footprint computation already paid for it). *)
let step ?choices impl node p = children ?choices ~sleep:0 impl node p []

(** [successors ?por ?pruned impl node] — every configuration one step
    away.  With [~por:true], sleep-set pruning: processes in
    [node.sleep] are skipped (counted in [pruned]), and each expanded
    successor inherits the sleep mask {[
      { q | q slept-or-explored before p, step(q) independent of step(p) }
    ]} — processes are taken in ascending id order, so the explored
    tree keeps exactly the lexicographically minimal interleaving of
    every Mazurkiewicz trace class.  The reachable {e state} set is
    preserved (every state still ends some surviving interleaving);
    only redundant commuted paths to it are pruned. *)
(* Same registry entry as Search's: both expansion paths (here and
   Mc_valency) account their sleep-set skips under one name. *)
let m_pruned = Elin_obs.Metrics.counter "mc.por_pruned"

let successors ?(por = false) ?pruned (impl : Impl.t) node =
  let c = node.config in
  let enabled = Explore.runnable c in
  if not por then
    List.fold_right (fun p tail -> children ~sleep:0 impl node p tail)
      enabled []
  else begin
    (* Each enabled process's footprint, computed once into its slot.
       Slept processes stay enabled (only a process's own steps change
       its program state), and their footprints are recomputed fresh
       here, so inherited independence is judged in the current
       configuration — no staleness. *)
    let n = Array.length c.Explore.procs in
    let foots = Array.make n Indep.Log in
    let choices = Array.make n None in
    let enabled_mask =
      List.fold_left
        (fun mask q ->
          let f, cs = Indep.of_explore impl c q in
          foots.(q) <- f;
          choices.(q) <- cs;
          mask lor (1 lsl q))
        0 enabled
    in
    (* [explored]: the non-slept processes before [p], already
       expanded.  [p]'s successors sleep on every enabled process that
       is slept or explored and whose step commutes with [p]'s. *)
    let rec go explored = function
      | [] -> []
      | p :: rest ->
        if node.sleep land (1 lsl p) <> 0 then begin
          (match pruned with Some a -> Atomic.incr a | None -> ());
          if Elin_obs.Metrics.on () then
            Elin_obs.Metrics.Counter.incr m_pruned;
          go explored rest
        end
        else begin
          let candidates = (node.sleep lor explored) land enabled_mask in
          let sleep = ref 0 in
          for q = 0 to n - 1 do
            if
              candidates land (1 lsl q) <> 0
              && Indep.independent foots.(q) foots.(p)
            then sleep := !sleep lor (1 lsl q)
          done;
          children ?choices:choices.(p) ~sleep:!sleep impl node p
            (go (explored lor (1 lsl p)) rest)
        end
    in
    go 0 enabled
  end

(** Sleep-set merge for dedup under reduction: when several surviving
    interleavings reach the same state in the same BFS level, the kept
    copy's sleep set is the {e intersection} of all copies' — every
    direction some path still had to explore is explored.  Sound by
    monotonicity (a smaller sleep set explores a superset tree), and
    deterministic across domain counts (intersection is
    order-independent; the copies are equal states). *)
let merge_sleep a b = { a with sleep = a.sleep land b.sleep }

(* ------------------------------------------------------------------ *)
(* Fingerprints.                                                       *)
(* ------------------------------------------------------------------ *)

(* The identity-renaming fingerprint, from the packed summaries: flat
   words plus three scalars — no structured value is walked.  Covers
   exactly the data the full [encode] walk covers (each summary
   injective modulo collision), so the dedup classes coincide.  The
   running state is a one-word scratch buffer. *)
let encode_packed node =
  let c = node.config in
  let n = Array.length c.Explore.procs and m = Array.length c.Explore.bases in
  let s = Bytes.create 8 in
  Fp.start_at ~seed:0x6D63L (* "mc" *) s 0;
  Fp.int_at s 0 c.Explore.steps;
  Fp.int_at s 0 c.Explore.invocations;
  Fp.int_at s 0 c.Explore.n_events;
  Fp.words_at s 0 node.summary ~pos:n ~len:n;
  Fp.words_at s 0 node.summary ~pos:(2 * n) ~len:m;
  Fp.digest_at s 0 node.summary ((2 * n) + m);
  Fp.finish_at s 0;
  Fp.word s 0

(* The full structural encoding under one renaming: canonical position
   [i] holds process [old_of_new.(i)], and process [p] is renamed
   [new_of_old.(p)].  [s] is a one-word scratch. *)
let encode node s ~old_of_new ~new_of_old =
  let c = node.config in
  Fp.start_at ~seed:0x6D63L (* "mc" *) s 0;
  Fp.int_at s 0 c.Explore.steps;
  Fp.int_at s 0 c.Explore.invocations;
  let n = Array.length c.Explore.procs in
  Fp.int_at s 0 n;
  for i = 0 to n - 1 do
    let p = old_of_new.(i) in
    proc_state s 0 c.Explore.procs.(p) node.summary p
  done;
  Fp.int_at s 0 (Array.length c.Explore.bases);
  Array.iter (value s 0) c.Explore.bases;
  Fp.int_at s 0 (List.length c.Explore.events_rev);
  List.iter
    (fun (e : Event.t) -> event s 0 ~proc:new_of_old.(e.Event.proc) e)
    c.Explore.events_rev;
  Fp.finish_at s 0;
  Fp.word s 0

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* [a] becomes the next permutation in lexicographic order; [a] must
   not be the last (descending) one. *)
let next_permutation a =
  let swap x y =
    let t = a.(x) in
    a.(x) <- a.(y);
    a.(y) <- t
  in
  let n = Array.length a in
  let i = ref (n - 2) in
  while a.(!i) > a.(!i + 1) do decr i done;
  let j = ref (n - 1) in
  while a.(!j) < a.(!i) do decr j done;
  swap !i !j;
  let lo = ref (!i + 1) and hi = ref (n - 1) in
  while !lo < !hi do
    swap !lo !hi;
    incr lo;
    decr hi
  done

(* Under symmetry, every renaming is stepped through in place, in
   lexicographic order of [old_of_new]: two arrays of [n] ints per
   call, no table.  A table of all renamings for up to 6 processes,
   built at module initialisation, cost every process that links this
   module 0.16-0.7 ms of start-up. *)
let fingerprint ?(symmetry = false) node =
  if not symmetry then encode_packed node
  else begin
    let n = Array.length node.config.Explore.procs in
    if n > 6 then
      invalid_arg "Canon.fingerprint: symmetry reduction capped at 6 processes";
    let s = Bytes.create 8 in
    let old_of_new = Array.init n Fun.id and new_of_old = Array.init n Fun.id in
    let best = ref (encode node s ~old_of_new ~new_of_old) in
    for _ = 2 to factorial n do
      next_permutation old_of_new;
      for i = 0 to n - 1 do
        new_of_old.(old_of_new.(i)) <- i
      done;
      let fp = encode node s ~old_of_new ~new_of_old in
      if Int64.unsigned_compare fp !best < 0 then best := fp
    done;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Trace ordering.                                                     *)
(* ------------------------------------------------------------------ *)

let compare_event (a : Event.t) (b : Event.t) =
  let c = Int.compare a.Event.proc b.Event.proc in
  if c <> 0 then c
  else
    let c = Int.compare a.Event.obj b.Event.obj in
    if c <> 0 then c
    else
      match a.Event.payload, b.Event.payload with
      | Event.Invoke x, Event.Invoke y -> Op.compare x y
      | Event.Respond x, Event.Respond y -> Value.compare x y
      | Event.Invoke _, Event.Respond _ -> -1
      | Event.Respond _, Event.Invoke _ -> 1

(** Lexicographic order on event sequences: the deterministic tie-break
    for counterexample selection. *)
let compare_history (a : History.t) (b : History.t) =
  List.compare compare_event (History.events a) (History.events b)

(* Re-exported, so other state-space instantiations ({!Mc_valency})
   encode the vocabulary types and continuations identically. *)
let absorb_value = value

let digest_access prev ~obj ~op ~resp =
  let b = Bytes.create 16 in
  Fp.set_word b 0 prev;
  digest_access_at b 1 b 0 ~obj ~op ~resp;
  Fp.word b 1

