(* Client-side decomposition of multi-object jobs: one per-object
   sub-history becomes one pool job, so a single multi-object check
   parallelizes across worker domains.  The composed verdict equals the monolithic one by the same arguments as
   [Elin_checker.Decompose] (Lemmas 7–8): statuses combine by
   severity, [min_t] through [Locality.compose_min_t], node counts by
   summation.  Sits entirely in front of [Pool] — the pool itself is
   unchanged. *)

open Elin_checker
open Elin_history

type slot =
  | Whole of Job.t (* submitted as-is (single-object, empty, or unparseable) *)
  | Split of {
      job : Job.t;
      hist : History.t;
      objs : int list;
      subs : Job.t list; (* one per object, in [objs] order *)
    }

(* Sub-jobs inherit budget/timeout; T_lin cuts map through the
   projected cut t_o(t).  Histories the pool would reject parse-fail
   here too and pass through whole, so the bad_job verdict is the
   pool's (identical to the undecomposed path). *)
let expand (j : Job.t) =
  match Textio.of_string j.Job.history_text with
  | exception _ -> Whole j
  | hist -> (
    match History.objs hist with
    | [] | [ _ ] -> Whole j
    | objs ->
      let subs =
        List.map
          (fun o ->
            let ho = History.proj_obj hist o in
            let check =
              match j.Job.check with
              | Job.T_lin t ->
                Job.T_lin (Decompose.sub_cut (History.index_map_obj hist o) ~t)
              | c -> c
            in
            {
              j with
              Job.id = Printf.sprintf "%s#o%d" j.Job.id o;
              check;
              history_text = Textio.to_string ho;
              (* Sub-jobs keep the parent's trace context and name it
                 as their parent span, so a decomposed job renders as
                 one job span with per-object children. *)
              parent = Some j.Job.id;
            })
          objs
      in
      Split { job = j; hist; objs; subs })

let rank = function
  | Verdict.Bad_job _ -> 7
  | Verdict.Failed _ -> 6
  | Verdict.Timed_out -> 5
  | Verdict.Cancelled -> 4
  | Verdict.Budget_exhausted -> 3
  | Verdict.Busy -> 2
  | Verdict.Violation -> 1
  | Verdict.Pass -> 0

let worst_status subs =
  List.fold_left
    (fun acc (v : Verdict.t) ->
      if rank v.Verdict.status > rank acc then v.Verdict.status else acc)
    Verdict.Pass subs

(* Compose the per-object verdicts of one split job back into a single
   verdict carrying the original id/seq/check. *)
let compose ~job ~hist ~objs (subs : Verdict.t list) : Verdict.t =
  let nodes = List.fold_left (fun a v -> a + v.Verdict.nodes) 0 subs in
  let memo_hits = List.fold_left (fun a v -> a + v.Verdict.memo_hits) 0 subs in
  let wall_ms = List.fold_left (fun a v -> max a v.Verdict.wall_ms) 0. subs in
  let composed_min_t () =
    Locality.compose_min_t hist
      (List.map2 (fun o (v : Verdict.t) -> (o, v.Verdict.min_t)) objs subs)
  in
  let status, min_t =
    match worst_status subs with
    | (Verdict.Bad_job _ | Verdict.Failed _ | Verdict.Timed_out
      | Verdict.Cancelled | Verdict.Budget_exhausted | Verdict.Busy) as s ->
      (s, None)
    | Verdict.Pass | Verdict.Violation -> (
      match job.Job.check with
      | Job.Linearizable | Job.T_lin _ | Job.Weak ->
        ((if List.for_all (fun (v : Verdict.t) -> v.Verdict.status = Verdict.Pass) subs
          then Verdict.Pass
          else Verdict.Violation),
         None)
      | Job.Min_t -> (
        match composed_min_t () with
        | Some _ as mt -> (Verdict.Pass, mt)
        | None -> (Verdict.Violation, None))
      | Job.Full ->
        ((if List.for_all (fun (v : Verdict.t) -> v.Verdict.status = Verdict.Pass) subs
          then Verdict.Pass
          else Verdict.Violation),
         composed_min_t ()))
  in
  {
    Verdict.job_id = job.Job.id;
    seq = job.Job.seq;
    check = Some job.Job.check;
    status;
    min_t;
    nodes;
    memo_hits;
    wall_ms;
  }

(* [run_batch] with decomposition: expand, renumber every submitted
   job into a fresh dense seq space (run_batch sorts by it), run ONE
   pool over the union, then fold each split job's sub-verdicts back.
   Output is in original submission order, deterministic for any
   [domains]. *)
let run_batch ?queue_capacity ?default_budget ?default_timeout_ms ?resolve
    ~domains jobs =
  let slots = List.map expand jobs in
  let next = ref 0 in
  let fresh j =
    let s = { j with Job.seq = !next } in
    incr next;
    s
  in
  let submitted =
    List.concat_map
      (function
        | Whole j -> [ fresh j ]
        | Split s -> List.map fresh s.subs)
      slots
  in
  let verdicts =
    Pool.run_batch ?queue_capacity ?default_budget ?default_timeout_ms
      ?resolve ~domains submitted
  in
  (* run_batch returns them sorted by the fresh seqs = slot order. *)
  let rec fold slots verdicts acc =
    match slots with
    | [] -> List.rev acc
    | Whole j :: rest ->
      (match verdicts with
      | v :: vs -> fold rest vs ({ v with Verdict.seq = j.Job.seq } :: acc)
      | [] -> List.rev acc)
    | Split { job; hist; objs; subs } :: rest ->
      let n = List.length subs in
      let rec take k vs acc' =
        if k = 0 then (List.rev acc', vs)
        else
          match vs with
          | v :: vs -> take (k - 1) vs (v :: acc')
          | [] -> (List.rev acc', [])
      in
      let mine, vs = take n verdicts [] in
      if List.length mine < n then List.rev acc
      else fold rest vs (compose ~job ~hist ~objs mine :: acc)
  in
  let composed = fold slots verdicts [] in
  List.sort (fun a b -> compare a.Verdict.seq b.Verdict.seq) composed
