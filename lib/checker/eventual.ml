(** Eventual linearizability of finite histories (Definitions 3–4).

    For a finite history over total object types, some [t <=
    length H] always works (the paper notes t-linearizability for
    some t is trivially a liveness property), so the interesting
    quantity is the *minimal* stabilization bound [min_t].  By
    Lemma 5 t-linearizability is monotone in [t], so [min_t] is
    found by any monotone search; we gallop from [t = 0]
    (exponential probing, then binary refinement), which costs
    O(log min_t) probes — for the common small-[min_t] histories
    that is a constant number of cheap cuts instead of the
    O(log len) mid-range cuts a plain binary search pays, and every
    probe reuses the cut-independent structures of one
    {!Engine.prepare}.

    The full verdict pairs the liveness part with the safety part
    (weak consistency, Definition 1): a history is eventually
    linearizable iff both hold. *)

type verdict = {
  weakly_consistent : bool;
  (* Smallest t such that the history is t-linearizable; [None] when
     even [t = length] fails (possible only for partial/exotic specs). *)
  min_t : int option;
}

let is_eventually_linearizable v =
  v.weakly_consistent && Option.is_some v.min_t

(** [min_t_search check ~len] — generic monotone least-t search:
    [check t] must be monotone in [t] (Lemma 5).  Galloping: probe
    t = 0, 1, 2, 4, ... until the first success (or [len] proves
    unreachable), then binary-refine inside the last doubling
    interval.  Returns the least [t in [0, len]] with [check t], or
    [None].  Agrees with binary search on every monotone predicate,
    in O(log min_t) probes. *)
let min_t_search check ~len =
  if check 0 then Some 0
  else if len = 0 then None
  else begin
    (* gallop invariant: check lo fails, 0 <= lo < hi <= len.
       refine invariant: check lo fails, check hi holds. *)
    let rec gallop lo hi =
      if check hi then refine lo hi
      else if hi >= len then None
      else gallop hi (min len (2 * hi))
    and refine lo hi =
      if hi - lo <= 1 then Some hi
      else
        let mid = (lo + hi) / 2 in
        if check mid then refine lo mid else refine mid hi
    in
    gallop 0 1
  end

type search_stats = { cuts_probed : int; nodes : int; memo_hits : int }

let m_probes = Elin_obs.Metrics.counter "engine.min_t_probes"

(** [min_t_prepared p] — least stabilization bound against a prepared
    history, with aggregate exploration statistics over all probed
    cuts.  The cut-independent structures of [p] are shared by every
    probe. *)
let min_t_prepared (p : Engine.prepared) =
  let span_ts = Elin_obs.Trace.begin_ns () in
  let cuts = ref 0 and nodes = ref 0 and hits = ref 0 in
  let check t =
    let v = Engine.check_at p ~t in
    incr cuts;
    nodes := !nodes + v.Engine.nodes_explored;
    hits := !hits + v.Engine.memo_hits;
    v.Engine.ok
  in
  let mt = min_t_search check ~len:(Engine.history_length p) in
  if Elin_obs.Metrics.on () then Elin_obs.Metrics.Counter.add m_probes !cuts;
  if Elin_obs.Trace.on () then
    Elin_obs.Trace.complete ~cat:"engine" ~ts:span_ts "engine.min_t"
      ~args:
        [
          ( "min_t",
            match mt with
            | Some t -> Elin_obs.Jsonl.Int t
            | None -> Elin_obs.Jsonl.Null );
          ("cuts_probed", Elin_obs.Jsonl.Int !cuts);
          ("nodes", Elin_obs.Jsonl.Int !nodes);
        ];
  (mt, { cuts_probed = !cuts; nodes = !nodes; memo_hits = !hits })

(** [min_t_stats cfg h] — [min_t] plus exploration statistics. *)
let min_t_stats (cfg : Engine.config) h =
  min_t_prepared (Engine.prepare cfg h)

(** [min_t cfg h] — least stabilization bound via the generic engine. *)
let min_t (cfg : Engine.config) h = fst (min_t_stats cfg h)

(** [check ecfg wcfg h] — full eventual-linearizability verdict. *)
let check (ecfg : Engine.config) (wcfg : Weak.config) h =
  {
    weakly_consistent = Weak.is_weakly_consistent wcfg h;
    min_t = min_t ecfg h;
  }

(** [check_spec spec h] — one-object convenience sharing a spec. *)
let check_spec ?node_budget spec h =
  check (Engine.for_spec ?node_budget spec) (Weak.for_spec ?node_budget spec) h

let pp_verdict ppf v =
  Format.fprintf ppf "{weakly_consistent=%b; min_t=%a}" v.weakly_consistent
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.fprintf ppf "none")
       Format.pp_print_int)
    v.min_t

let pp_stats ppf s =
  Format.fprintf ppf "{cuts=%d; nodes=%d; memo_hits=%d}" s.cuts_probed s.nodes
    s.memo_hits
