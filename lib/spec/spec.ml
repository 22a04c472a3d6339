(** Sequential specifications.

    A type of object is, as in Section 3 of the paper, a transition
    relation [delta ⊆ Q × OP × RES × Q] with an initial state.  We
    represent it functionally: [apply q op] enumerates all [(r, q')]
    with [(q, op, r, q') ∈ delta].  An empty list means [op] is not
    applicable in [q] (all of the paper's types are total; partial
    specs are permitted so that tests can probe illegal histories).

    A deterministic type is stored as two functions, [response] and
    [next], rather than as a one-element list, so that the checkers'
    DFS reads a response without allocating and computes a next state
    only for a response it admits.

    [all_ops] gives a finite representative set of invocations, used by
    generators and by the triviality decision procedure (Prop. 14). *)

type transitions =
  | Deterministic of {
      response : Value.t -> Op.t -> Value.t;
      next : Value.t -> Op.t -> Value.t;
    }
  | Relation of (Value.t -> Op.t -> (Value.t * Value.t) list)

type t = {
  name : string;
  initial : Value.t;
  transitions : transitions;
  all_ops : Op.t list;
}

let make ~name ~initial ~apply ~all_ops =
  { name; initial; transitions = Relation apply; all_ops }

(** [deterministic ~name ~initial ~response ~next ~all_ops] builds a
    spec whose unique transition from [q] on [op] is
    [(response q op, next q op)]. *)
let deterministic ~name ~initial ~response ~next ~all_ops =
  { name; initial; all_ops; transitions = Deterministic { response; next } }

let with_initial t initial = { t with initial }

let name t = t.name
let initial t = t.initial
let transitions t = t.transitions

(* The response is computed first, so a spec that rejects [op] raises
   from [response], the function the checkers call first too. *)
let apply t q op =
  match t.transitions with
  | Deterministic d ->
    let r = d.response q op in
    [ (r, d.next q op) ]
  | Relation f -> f q op

let all_ops t = t.all_ops

(** [responses t q op] enumerates legal responses of [op] in state [q]. *)
let responses t q op = List.map fst (apply t q op)

(** [is_legal_response t q op r] holds iff some transition from [q] on
    [op] yields response [r]. *)
let is_legal_response t q op r =
  match t.transitions with
  | Deterministic d -> Value.equal r (d.response q op)
  | Relation f -> List.exists (fun (r', _) -> Value.equal r r') (f q op)

(** [successors t q op r] enumerates states reachable from [q] by [op]
    returning [r] (several, if the type is nondeterministic in state). *)
let successors t q op r =
  List.filter_map
    (fun (r', q') -> if Value.equal r r' then Some q' else None)
    (apply t q op)

(** [apply_det t q op] is the unique transition, for deterministic
    types.  Raises [Invalid_argument] if there is not exactly one. *)
let apply_det t q op =
  match apply t q op with
  | [ rq ] -> rq
  | [] -> invalid_arg (Printf.sprintf "Spec.apply_det: %s not applicable" (Op.to_string op))
  | _ -> invalid_arg (Printf.sprintf "Spec.apply_det: %s is nondeterministic" t.name)

(** [run t ops] threads a sequence of operations through the spec from
    the initial state, deterministically; returns responses in order. *)
let run t ops =
  let _, responses =
    List.fold_left
      (fun (q, acc) op ->
        let r, q' = apply_det t q op in
        (q', r :: acc))
      (t.initial, []) ops
  in
  List.rev responses

(** [is_deterministic_on t states] checks determinism of every
    [all_ops] transition out of each state in [states].  (Determinism
    of the whole type is not decidable from the functional view; the
    concrete types in this library document their determinism and tests
    probe it on reachable states.) *)
let is_deterministic_on t states =
  List.for_all
    (fun q ->
      List.for_all (fun op -> List.length (apply t q op) <= 1) t.all_ops)
    states

(** [has_finite_nondeterminism_on t states] — trivially true for our
    functional representation (the list is finite), checked for
    documentation value. *)
let has_finite_nondeterminism_on t states =
  List.for_all
    (fun q -> List.for_all (fun op -> List.length (apply t q op) < max_int) t.all_ops)
    states

(** [reachable t ~max_states] explores the state graph from the initial
    state under [all_ops], breadth-first, up to [max_states] states.
    Returns [(states, complete)] where [complete] is false when the
    bound was hit (state space possibly infinite, e.g. fetch&increment). *)
let reachable t ~max_states =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace seen t.initial ();
  Queue.add t.initial queue;
  let complete = ref true in
  let states = ref [] in
  (try
     while not (Queue.is_empty queue) do
       let q = Queue.pop queue in
       states := q :: !states;
       List.iter
         (fun op ->
           List.iter
             (fun (_, q') ->
               if not (Hashtbl.mem seen q') then begin
                 if Hashtbl.length seen >= max_states then begin
                   complete := false;
                   raise Exit
                 end;
                 Hashtbl.replace seen q' ();
                 Queue.add q' queue
               end)
             (apply t q op))
         t.all_ops
     done
   with Exit -> ());
  (List.rev !states, !complete)

let pp ppf t = Format.fprintf ppf "%s" t.name
