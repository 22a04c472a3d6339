(* Decomposed checking: split a history into independently checkable
   sub-histories and compose the verdicts exactly.

   Two cuts, both proved sound in DESIGN.md §15:

   - Per-object projection (Lemmas 7–8 + the interval-order merge of
     Herlihy & Wing, under Hamza's totality condition).  An event at
     global index g survives the removal of the first t events iff its
     projection survives the removal of the first t_o(t) events of
     H|o, where t_o(t) counts events of object o among the first t of
     H; hence H is t-linearizable iff every H|o is t_o(t)-linearizable
     and [Locality.compose_min_t] is *exact*, not just the Lemma 7
     upper bound.  Weak consistency needs no split here: [Weak.check]
     already decides each completed operation on its own object.

   - Gap cuts, only at t = 0: indices where no operation is open split
     a sub-history into segments such that every linearization is a
     concatenation of per-segment linearizations.  Segments are
     threaded with the *set* of reachable boundary states
     ([Engine.final_states]), which keeps the composition exact even
     for nondeterministic placements of pending operations; the set is
     capped at [state_cap], falling back to the monolithic check.
     For t > 0 the cut-forgiven operations may float across gap
     boundaries, so gaps are not used there.

   Each sub-history's gallop threads one failure-hint array through
   its probes ([Engine.check_at]).  Budget semantics match the
   monolithic path: [node_budget] bounds each engine run. *)

open Elin_spec
open Elin_history
module Trace = Elin_obs.Trace
module Jsonl = Elin_obs.Jsonl

type config = {
  spec_of_obj : int -> Spec.t;
  node_budget : int option;
  poll : (unit -> unit) option;
}

let config ?node_budget ?poll spec_of_obj = { spec_of_obj; node_budget; poll }
let for_spec ?node_budget ?poll spec = config ?node_budget ?poll (fun _ -> spec)

let engine_cfg dcfg =
  Engine.config ?node_budget:dcfg.node_budget ?poll:dcfg.poll dcfg.spec_of_obj

type stats = {
  objects : int;        (* per-object sub-histories *)
  gap_segments : int;   (* segments checked across all gap-cut probes *)
  gap_fallbacks : int;  (* gap compositions abandoned (state-set cap) *)
  cuts_probed : int;
  nodes : int;
  memo_hits : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "objects=%d gap_segments=%d gap_fallbacks=%d cuts=%d nodes=%d memo_hits=%d"
    s.objects s.gap_segments s.gap_fallbacks s.cuts_probed s.nodes s.memo_hits

(* Mutable accumulator threaded through every sub-check. *)
type acc = {
  mutable a_objects : int;
  mutable a_segments : int;
  mutable a_fallbacks : int;
  mutable a_cuts : int;
  mutable a_nodes : int;
  mutable a_memo : int;
}

let acc () =
  {
    a_objects = 0;
    a_segments = 0;
    a_fallbacks = 0;
    a_cuts = 0;
    a_nodes = 0;
    a_memo = 0;
  }

let note a (v : Engine.verdict) =
  a.a_nodes <- a.a_nodes + v.Engine.nodes_explored;
  a.a_memo <- a.a_memo + v.Engine.memo_hits

let stats_of a =
  {
    objects = a.a_objects;
    gap_segments = a.a_segments;
    gap_fallbacks = a.a_fallbacks;
    cuts_probed = a.a_cuts;
    nodes = a.a_nodes;
    memo_hits = a.a_memo;
  }

let search_stats_of a : Eventual.search_stats =
  { cuts_probed = a.a_cuts; nodes = a.a_nodes; memo_hits = a.a_memo }

(* ------------------------------------------------------------------ *)
(* Gap cut at t = 0                                                    *)

(* Event indices 0 < g < length with no operation open before [g]. *)
let gap_points h =
  let len = History.length h in
  let open_ops = ref 0 in
  let gaps = ref [] in
  List.iteri
    (fun i (e : Event.t) ->
      (match e.Event.payload with
      | Event.Invoke _ -> incr open_ops
      | Event.Respond _ -> decr open_ops);
      if !open_ops = 0 && i + 1 < len then gaps := (i + 1) :: !gaps)
    (History.events h);
  List.rev !gaps

let segments h gaps =
  let evs = History.events_array h in
  let len = Array.length evs in
  let rec slice lo = function
    | [] -> if lo >= len then [] else [ (lo, len) ]
    | hi :: rest -> (lo, hi) :: slice hi rest
  in
  List.map
    (fun (lo, hi) -> History.of_events (Array.to_list (Array.sub evs lo (hi - lo))))
    (slice 0 gaps)

(* Boundary-state sets larger than this abort the gap composition. *)
let state_cap = 32

exception Fallback

(* 0-linearizability of a single-object sub-history via its gap
   segments.  Exact: segment i+1 is explored from every state segment
   i can legally end in.  Raises [Fallback] when there are no gaps
   (nothing to win) or the state set exceeds [state_cap]. *)
let check0_gaps ecfg a h q0 =
  match gap_points h with
  | [] -> raise_notrace Fallback
  | gaps -> (
      let segs = segments h gaps in
      a.a_segments <- a.a_segments + List.length segs;
      let rec go states = function
        | [] -> true (* unreachable: segments are non-empty *)
        | [ last ] ->
            let p = Engine.prepare ecfg last in
            List.exists
              (fun q ->
                let v = Engine.check_at ~init:[| q |] p ~t:0 in
                note a v;
                v.Engine.ok)
              states
        | seg :: rest ->
            let p = Engine.prepare ecfg seg in
            let nexts =
              List.concat_map
                (fun q ->
                  let fs, v = Engine.final_states ~init:[| q |] p in
                  note a v;
                  List.map (fun s -> s.(0)) fs)
                states
            in
            let nexts = List.sort_uniq Value.compare nexts in
            if nexts = [] then false
            else if List.length nexts > state_cap then raise_notrace Fallback
            else go nexts rest
      in
      go [ q0 ] segs)

(* ------------------------------------------------------------------ *)
(* Per-object liveness                                                 *)

(* t_o(t): events of the projected object among the first [t] events
   of the parent, via the ascending projection index map. *)
let sub_cut imap ~t =
  let n = Array.length imap in
  let rec go i = if i < n && imap.(i) < t then go (i + 1) else i in
  go 0

(* Decide t-linearizability of one single-object sub-history, with
   gap cuts at t = 0 and the hint-biased scan elsewhere. *)
let check_sub ecfg a ~prepared ~hint ~q0 ho ~t =
  a.a_cuts <- a.a_cuts + 1;
  if t = 0 then
    match check0_gaps ecfg a ho q0 with
    | ok -> ok
    | exception Fallback ->
        a.a_fallbacks <- a.a_fallbacks + 1;
        let v = Engine.check_at ~hint prepared ~t:0 in
        note a v;
        v.Engine.ok
  else begin
    let v = Engine.check_at ~hint prepared ~t in
    note a v;
    v.Engine.ok
  end

let min_t_sub dcfg ecfg a ho =
  let prepared = Engine.prepare ecfg ho in
  let hint = Array.make (History.n_ops ho) 0 in
  let q0 =
    match History.objs ho with
    | [ o ] -> Spec.initial (dcfg.spec_of_obj o)
    | _ -> Value.unit (* empty projection: no gap path taken *)
  in
  Eventual.min_t_search
    (fun t -> check_sub ecfg a ~prepared ~hint ~q0 ho ~t)
    ~len:(History.length ho)

(* Out of line and behind [Trace.on]: the sub-check loops call into
   the hot engine, and growing their bodies with argument construction
   measurably perturbs code layout around the search. *)
let[@inline never] sub_span ts o args =
  Trace.complete ~cat:"check" ~ts "decompose.sub"
    ~args:(("obj", Jsonl.Str (Printf.sprintf "o%d" o)) :: args)

let per_object_min_t_acc dcfg a h =
  let ecfg = engine_cfg dcfg in
  List.map
    (fun o ->
      a.a_objects <- a.a_objects + 1;
      let span_ts = Trace.begin_ns () in
      let ho = History.proj_obj h o in
      let mt = min_t_sub dcfg ecfg a ho in
      if Trace.on () then
        sub_span span_ts o [ ("events", Jsonl.Int (History.length ho)) ];
      (o, mt))
    (History.objs h)

let min_t_stats dcfg h =
  let a = acc () in
  let per_obj = per_object_min_t_acc dcfg a h in
  (Locality.compose_min_t h per_obj, search_stats_of a, stats_of a)

let min_t dcfg h =
  let mt, _, _ = min_t_stats dcfg h in
  mt

let t_linearizable_stats dcfg h ~t =
  let a = acc () in
  let ecfg = engine_cfg dcfg in
  let ok =
    List.for_all
      (fun o ->
        a.a_objects <- a.a_objects + 1;
        let span_ts = Trace.begin_ns () in
        let ho = History.proj_obj h o in
        let t_o = sub_cut (History.index_map_obj h o) ~t in
        let prepared = Engine.prepare ecfg ho in
        let hint = Array.make (History.n_ops ho) 0 in
        let q0 = Spec.initial (dcfg.spec_of_obj o) in
        let ok = check_sub ecfg a ~prepared ~hint ~q0 ho ~t:t_o in
        if Trace.on () then
          sub_span span_ts o
            [ ("t_o", Jsonl.Int t_o); ("ok", Jsonl.Bool ok) ];
        ok)
      (History.objs h)
  in
  (ok, stats_of a)

let t_linearizable dcfg h ~t = fst (t_linearizable_stats dcfg h ~t)
let linearizable dcfg h = t_linearizable dcfg h ~t:0

(* ------------------------------------------------------------------ *)
(* Full report (decomposed drop-in for [Report.analyze])               *)

let analyze ?node_budget ?poll spec h =
  let dcfg = for_spec ?node_budget ?poll spec in
  let a = acc () in
  let exhausted = ref false in
  let guard ~absent f =
    try f () with Engine.Budget_exceeded ->
      exhausted := true;
      absent
  in
  let min_t =
    guard ~absent:None (fun () ->
        Locality.compose_min_t h (per_object_min_t_acc dcfg a h))
  in
  let search = if !exhausted then None else Some (search_stats_of a) in
  let weak_result =
    guard ~absent:None (fun () ->
        Some (Weak.check (Weak.for_spec ?node_budget ?poll spec) h))
  in
  let witness =
    (* Monolithic witness at the composed bound, so the rendered report
       is bit-identical to [Report.analyze]. *)
    guard ~absent:None (fun () ->
        match min_t with
        | None -> None
        | Some t ->
            let mono = Engine.for_spec ?node_budget ?poll spec in
            Engine.witness_at (Engine.prepare mono h) ~t)
  in
  let report : Report.t =
    {
      events = History.length h;
      operations = History.n_ops h;
      complete = List.length (History.complete_ops h);
      pending = List.length (History.pending_ops h);
      procs = List.length (History.procs h);
      objs = List.length (History.objs h);
      concurrency = Report.concurrency_of h;
      linearizable = (match min_t with Some 0 -> true | _ -> false);
      weakly_consistent =
        (match weak_result with Some (Ok ()) -> true | _ -> false);
      violating_op =
        (match weak_result with Some (Error op) -> Some op | _ -> None);
      min_t;
      witness;
      search;
      budget_exhausted = !exhausted;
    }
  in
  (report, stats_of a)
