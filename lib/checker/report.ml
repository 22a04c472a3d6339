(** Full per-history analysis reports: everything the checkers can say
    about a history, in one record with a pretty-printer — the payload
    behind [elin check] and handy for interactive debugging. *)

open Elin_kernel
open Elin_spec
open Elin_history

type concurrency = {
  max_overlap : int;   (* peak number of simultaneously open operations *)
  mean_overlap : float;
}

type t = {
  events : int;
  operations : int;
  complete : int;
  pending : int;
  procs : int;
  objs : int;
  concurrency : concurrency;
  linearizable : bool;
  weakly_consistent : bool;
  violating_op : Operation.t option;
  min_t : int option;
  (* A witness linearization at the minimal cut, when one exists. *)
  witness : (Operation.t * Value.t) list option;
  (* Exploration statistics of the min_t search, when it completed. *)
  search : Eventual.search_stats option;
  (* True when any phase ran out of node budget; the affected fields
     then report the conservative "unknown" value. *)
  budget_exhausted : bool;
}

let concurrency_of h =
  let open_ops = ref 0 in
  let peak = ref 0 in
  let total = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      (match e.Event.payload with
      | Event.Invoke _ -> incr open_ops
      | Event.Respond _ -> decr open_ops);
      peak := max !peak !open_ops;
      total := !total + !open_ops)
    (History.events h);
  {
    max_overlap = !peak;
    mean_overlap =
      (if History.length h = 0 then 0.
       else float_of_int !total /. float_of_int (History.length h));
  }

(** [analyze ?node_budget spec h] — the full report, every object of
    [h] of type [spec].  The min_t search and the witness run over all
    objects at once and share one {!Engine.prepare}; [Weak.check]
    decides each operation on its own object ([Decompose.analyze] also
    splits the min_t search per object).  Budget exhaustion in any phase is absorbed
    into [budget_exhausted] rather than escaping, so a bounded
    analysis always yields a (partial) report. *)
let analyze ?node_budget ?poll spec h =
  let ecfg = Engine.for_spec ?node_budget ?poll spec in
  let wcfg = Weak.for_spec ?node_budget ?poll spec in
  let exhausted = ref false in
  let guard default f =
    try f ()
    with Budget.Exceeded ->
      exhausted := true;
      default
  in
  let prep = Engine.prepare ecfg h in
  let min_t, search =
    guard (None, None) (fun () ->
        let mt, st = Eventual.min_t_prepared prep in
        (mt, Some st))
  in
  let weak_result = guard None (fun () -> Some (Weak.check wcfg h)) in
  let violating_op =
    match weak_result with Some (Error o) -> Some o | Some (Ok ()) | None -> None
  in
  {
    events = History.length h;
    operations = History.n_ops h;
    complete = List.length (History.complete_ops h);
    pending = List.length (History.pending_ops h);
    procs = List.length (History.procs h);
    objs = List.length (History.objs h);
    concurrency = concurrency_of h;
    linearizable = min_t = Some 0;
    weakly_consistent = (match weak_result with Some (Ok ()) -> true | _ -> false);
    violating_op;
    min_t;
    witness =
      guard None (fun () ->
          Option.bind min_t (fun t -> Engine.witness_at prep ~t));
    search;
    budget_exhausted = !exhausted;
  }

let is_eventually_linearizable r = r.weakly_consistent && r.min_t <> None

let pp ppf r =
  Format.fprintf ppf
    "@[<v>events: %d  operations: %d (%d complete, %d pending)@,\
     processes: %d  objects: %d  overlap: max %d, mean %.2f@,\
     linearizable: %b@,\
     weakly consistent: %b%a@,\
     min stabilization bound: %a@,\
     eventually linearizable: %b%a%a@]"
    r.events r.operations r.complete r.pending r.procs r.objs
    r.concurrency.max_overlap r.concurrency.mean_overlap r.linearizable
    r.weakly_consistent
    (fun ppf -> function
      | Some o -> Format.fprintf ppf " (violation: %a)" Operation.pp o
      | None -> ())
    r.violating_op
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.fprintf ppf "none")
       Format.pp_print_int)
    r.min_t
    (is_eventually_linearizable r)
    (fun ppf -> function
      | Some w when List.length w <= 16 ->
        Format.fprintf ppf "@,witness linearization:@,  %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,  ")
             (fun ppf ((o : Operation.t), v) ->
               Format.fprintf ppf "p%d %a -> %a" o.Operation.proc Op.pp
                 o.Operation.op Value.pp v))
          w
      | Some _ | None -> ())
    r.witness
    (fun ppf exhausted ->
      if exhausted then
        Format.fprintf ppf "@,(node budget exhausted: partial verdicts)")
    r.budget_exhausted

(** [pp_stats] — the exploration-statistics line behind
    [elin check --stats]. *)
let pp_stats ppf r =
  match r.search with
  | None -> Format.fprintf ppf "search stats: unavailable"
  | Some s ->
    Format.fprintf ppf
      "search stats: %d cuts probed, %d nodes explored, %d memo hits"
      s.Eventual.cuts_probed s.Eventual.nodes s.Eventual.memo_hits
