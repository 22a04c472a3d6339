(** Weak consistency (Definition 1).

    A history is weakly consistent iff for each completed operation
    [op] there is a legal sequential history S that (i) uses only
    operations invoked before [op]'s response, (ii) contains every
    operation by [op]'s process that precedes [op], and (iii) ends with
    [op] returning its actual response.  Responses of the *other*
    operations in S are unconstrained (beyond legality).

    S has no real-time order, so it is an interleaving of one legal
    sequence per object, and Lemma 8's locality makes the question
    local: [check] decides each completed operation on its own object's
    operations only.  That can accept an operation the search over
    every object rejects, when another object cannot place the
    operation's required operations on it; but then the last of those
    is itself rejected and precedes it, so the first violator is the
    same for every spec, partial ones included (DESIGN.md §15).

    One search serves [check] and Figure 1's line 13 ([justifiable]):
    place any subset of the candidate operations in any legal order;
    once all required ones are placed, try to finish with [op].  Like
    [Engine]'s, a node walks only its unplaced candidates, word by
    word, allocates nothing for a deterministic spec (only the next
    state matters here, so only [next] is called) and hashes its memo
    key once. *)

open Elin_kernel
open Elin_spec
open Elin_history

type config = {
  spec_of_obj : int -> Spec.t;
  node_budget : int option;
  (* Cooperative timeout/cancellation hook; see [Budget.counter]. *)
  poll : (unit -> unit) option;
}

let config ?node_budget ?poll spec_of_obj = { spec_of_obj; node_budget; poll }

let for_spec ?node_budget ?poll spec =
  config ?node_budget ?poll (fun _ -> spec)

exception Budget_exceeded = Budget.Exceeded

(* One bump per run, as [Engine] counts its runs: the node total of a
   run is known only when it ends. *)
module Obs = Elin_obs

let m_runs = Obs.Metrics.counter "weak.runs"
let m_nodes = Obs.Metrics.counter "weak.nodes"

(* Sort transitions by next state and keep one per state: other
   operations' responses are unconstrained, so only the state matters. *)
let by_state ((_ : Value.t), q1) ((_ : Value.t), q2) = Value.compare q1 q2

(* [search spec ops ~candidates ~required ~op ~resp budget] — does
   some legal order of a subset of [candidates] (indices into the one
   object's [ops]) that holds every index flagged in [required] leave
   [op] returning [resp]?  Every required index must be a candidate;
   one [budget] unit per node. *)
let search spec (ops : Op.t array) ~candidates ~required ~op ~resp budget =
  let n = Array.length ops in
  let n_required = ref 0 in
  for i = 0 to n - 1 do
    if required.(i) then incr n_required
  done;
  let n_required = !n_required in
  let kind = Spec.transitions spec in
  (* The placed set and the object's state at the current DFS node,
     mutated in place and restored on backtrack. *)
  let placed = Bitset.create n in
  let state = [| Spec.initial spec |] in
  let nw = Bitset.word_count placed in
  Memo_key.borrow ~width:n ~arity:1 @@ fun memo ->
  let rec dfs n_placed_required =
    Budget.bump budget;
    if
      n_placed_required = n_required
      && Spec.is_legal_response spec state.(0) op resp
    then true
    else
      let h = Memo_key.hash placed state in
      if Memo_key.mem_hashed memo placed state h then false
      else begin
        let success = ref false in
        let w = ref 0 in
        while (not !success) && !w < nw do
          (* The unplaced candidates of word [w]; children restore
             [placed] before returning. *)
          let bits =
            ref (Bitset.word candidates !w land lnot (Bitset.word placed !w))
          in
          while (not !success) && !bits <> 0 do
            let b = !bits land - !bits in
            bits := !bits lxor b;
            let id = (!w * Bitset.bits_per_word) + Bitset.bit_index b in
            let saved = state.(0) in
            let n' = n_placed_required + Bool.to_int required.(id) in
            Bitset.set placed id;
            (* Any legal transition: S need not preserve responses of
               other operations. *)
            (success :=
               match kind with
               | Spec.Deterministic d ->
                 state.(0) <- d.next saved ops.(id);
                 dfs n'
               | Spec.Relation f ->
                 try_transitions n'
                   (List.sort_uniq by_state (f saved ops.(id))));
            if not !success then begin
              state.(0) <- saved;
              Bitset.clear placed id
            end
          done;
          incr w
        done;
        if not !success then ignore (Memo_key.add_hashed memo placed state h);
        !success
      end
  and try_transitions n' = function
    | [] -> false
    | ((_ : Value.t), q') :: rest ->
      state.(0) <- q';
      dfs n' || try_transitions n' rest
  in
  let ok = dfs 0 in
  if Obs.Metrics.on () then begin
    Obs.Metrics.Counter.incr m_runs;
    Obs.Metrics.Counter.add m_nodes (Budget.spent budget)
  end;
  ok

let justifiable spec ~pool ~required ~op ~resp =
  let ops = Array.of_list pool in
  let n = Array.length ops in
  let candidates = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.set candidates i
  done;
  let flags = Array.make n false in
  List.iter (fun i -> flags.(i) <- true) required;
  search spec ops ~candidates ~required:flags ~op ~resp (Budget.counter ())

(* One object's operations in invocation order, with the candidate
   and required sets that each run on the object refills. *)
type table = {
  spec : Spec.t;
  members : Operation.t array;
  ops : Op.t array;
  candidates : Bitset.t;
  required : bool array;
}

let table cfg (all : Operation.t array) o =
  let members =
    Array.of_list
      (List.filter
         (fun (x : Operation.t) -> x.Operation.obj = o)
         (Array.to_list all))
  in
  let n = Array.length members in
  {
    spec = cfg.spec_of_obj o;
    members;
    ops = Array.map (fun (x : Operation.t) -> x.Operation.op) members;
    candidates = Bitset.create n;
    required = Array.make n false;
  }

(* Definition 1 for the completed operation [x] on its object's table
   [t]: the candidates are the object's other operations invoked
   before [x]'s response, the required ones those of them by [x]'s
   process invoked before [x]. *)
let justified cfg t (x : Operation.t) =
  let resp, resp_idx = Option.get x.Operation.resp in
  for i = 0 to Array.length t.members - 1 do
    let o = t.members.(i) in
    let usable =
      o.Operation.id <> x.Operation.id && o.Operation.inv < resp_idx
    in
    if usable then Bitset.set t.candidates i
    else Bitset.clear t.candidates i;
    t.required.(i) <-
      usable
      && o.Operation.proc = x.Operation.proc
      && o.Operation.inv < x.Operation.inv
  done;
  search t.spec t.ops ~candidates:t.candidates ~required:t.required
    ~op:x.Operation.op ~resp
    (Budget.counter ?limit:cfg.node_budget ?poll:cfg.poll ())

let check cfg h =
  let all = History.ops_array h in
  let objs, slot = Engine.object_slots all in
  let tables = Array.map (table cfg all) objs in
  let rec go id =
    if id = Array.length all then Ok ()
    else
      let x = all.(id) in
      if Operation.is_pending x || justified cfg tables.(slot.(id)) x then
        go (id + 1)
      else Error x
  in
  go 0

let is_weakly_consistent cfg h =
  match check cfg h with Ok () -> true | Error _ -> false
