(** Well-formed concurrent histories.

    A history is a finite sequence of events such that each process
    subsequence is sequential: invocations and matching responses
    alternate, starting with an invocation (Section 3).  Construction
    validates well-formedness and derives the operation records that
    the checkers consume. *)

open Elin_spec

type t = {
  events : Event.t array;
  ops : Operation.t array;
  (* [op_of_event.(i)] is the id of the operation event [i] belongs to. *)
  op_of_event : int array;
}

type error =
  | Response_without_invocation of int   (* event index *)
  | Invocation_while_pending of int      (* H|p not sequential *)
  | Mismatched_response of int           (* response on a different object *)

let pp_error ppf = function
  | Response_without_invocation i ->
    Format.fprintf ppf "event %d: response with no pending invocation" i
  | Invocation_while_pending i ->
    Format.fprintf ppf "event %d: invocation while an operation is pending" i
  | Mismatched_response i ->
    Format.fprintf ppf "event %d: response does not match pending invocation" i

exception Ill_formed of error

(* The record of the operation invoked at event [inv], an invocation. *)
let operation (events : Event.t array) id inv resp =
  let e = events.(inv) in
  match e.payload with
  | Invoke op -> { Operation.id; proc = e.proc; obj = e.obj; op; inv; resp }
  | Respond _ -> assert false

let no_op =
  { Operation.id = 0; proc = 0; obj = 0; op = Op.read; inv = 0; resp = None }

(** [of_events_array events] validates well-formedness and builds the
    history around [events] itself (not a copy).  O(events): operation
    ids are numbered in invocation order, and [pending.(p)] is the
    invocation index of [p]'s open operation, or [-1]. *)
let of_events_array events =
  let n = Array.length events in
  let op_of_event = Array.make n (-1) in
  let max_proc = Array.fold_left (fun m (e : Event.t) -> max m e.proc) (-1) events in
  let pending = Array.make (max_proc + 1) (-1) in
  let n_ops =
    Array.fold_left
      (fun k (e : Event.t) -> if Event.is_invoke e then k + 1 else k)
      0 events
  in
  let ops = Array.make n_ops no_op in
  let next_id = ref 0 in
  for i = 0 to n - 1 do
    let e = events.(i) in
    match e.payload with
    | Invoke _ ->
      if pending.(e.proc) >= 0 then
        raise (Ill_formed (Invocation_while_pending i));
      pending.(e.proc) <- i;
      op_of_event.(i) <- !next_id;
      incr next_id
    | Respond v ->
      let inv = pending.(e.proc) in
      if inv < 0 then raise (Ill_formed (Response_without_invocation i));
      if events.(inv).obj <> e.obj then
        raise (Ill_formed (Mismatched_response i));
      pending.(e.proc) <- -1;
      let id = op_of_event.(inv) in
      op_of_event.(i) <- id;
      ops.(id) <- operation events id inv (Some (v, i))
  done;
  (* Left-over pending operations. *)
  for p = 0 to max_proc do
    let inv = pending.(p) in
    if inv >= 0 then
      let id = op_of_event.(inv) in
      ops.(id) <- operation events id inv None
  done;
  { events; ops; op_of_event }

(** [of_events events] validates well-formedness and builds the
    history. *)
let of_events events = of_events_array (Array.of_list events)

let of_events_result events =
  match of_events events with
  | h -> Ok h
  | exception Ill_formed e -> Error e

let well_formed events =
  match of_events events with _ -> true | exception Ill_formed _ -> false

let events t = Array.to_list t.events
let events_array t = t.events
let length t = Array.length t.events
let event t i = t.events.(i)

let ops t = Array.to_list t.ops
let ops_array t = t.ops
let n_ops t = Array.length t.ops
let op t id = t.ops.(id)
let op_of_event t i = t.op_of_event.(i)

let complete_ops t = List.filter Operation.is_complete (ops t)
let pending_ops t = List.filter Operation.is_pending (ops t)

let procs t =
  List.sort_uniq compare (Array.to_list (Array.map (fun (e : Event.t) -> e.proc) t.events))

let objs t =
  List.sort_uniq compare (Array.to_list (Array.map (fun (e : Event.t) -> e.obj) t.events))

(** [proj_proc t p] is H|p — the subsequence of events by process [p],
    as a fresh history (event indices are renumbered). *)
let proj_proc t p =
  of_events (List.filter (fun (e : Event.t) -> e.proc = p) (events t))

(** [proj_obj t o] is H|o. *)
let proj_obj t o =
  of_events (List.filter (fun (e : Event.t) -> e.obj = o) (events t))

(** [index_map_obj t o] maps each event index of [proj_obj t o] back to
    its index in [t]; needed to translate per-object stabilization
    bounds into whole-history bounds (Lemma 7). *)
let index_map_obj t o =
  let acc = ref [] in
  Array.iteri
    (fun i (e : Event.t) -> if e.obj = o then acc := i :: !acc)
    t.events;
  Array.of_list (List.rev !acc)

(** [prefix t k] is the history made of the first [k] events. *)
let prefix t k =
  if k < 0 || k > length t then invalid_arg "History.prefix";
  of_events (List.filteri (fun i _ -> i < k) (events t))

let is_sequential t =
  let rec go expect_invoke i =
    if i >= Array.length t.events then true
    else
      match (t.events.(i)).payload, expect_invoke with
      | Event.Invoke _, true -> go false (i + 1)
      | Event.Respond _, false ->
        (* must match the preceding invocation's process *)
        i > 0 && (t.events.(i)).proc = (t.events.(i - 1)).proc && go true (i + 1)
      | Event.Invoke _, false | Event.Respond _, true -> false
  in
  go true 0

(** [behaviour_of_sequential t] extracts the [(op, response)] list of a
    sequential history (pending final invocation allowed, dropped). *)
let behaviour_of_sequential t =
  if not (is_sequential t) then invalid_arg "History.behaviour_of_sequential";
  List.filter_map
    (fun (o : Operation.t) ->
      match o.resp with Some (v, _) -> Some (o.op, v) | None -> None)
    (ops t)

(** [append t events] extends the history with more events. *)
let append t more = of_events (events t @ more)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf (i, e) ->
         Format.fprintf ppf "%3d: %a" i Event.pp e))
    (List.mapi (fun i e -> (i, e)) (events t))

let to_string t = Format.asprintf "%a" pp t

(** Build a sequential history from a behaviour: op/response pairs all
    by one process on one object.  Handy for tests. *)
let of_behaviour ?(proc = 0) ?(obj = 0) behaviour =
  of_events
    (List.concat_map
       (fun (op, r) ->
         [ Event.invoke ~proc ~obj op; Event.respond ~proc ~obj r ])
       behaviour)

(** [interleave specs] — an empty history. *)
let empty = of_events []
