(** Weak consistency (Definition 1).

    A history is weakly consistent iff for each completed operation
    [op] there is a legal sequential history S that (i) uses only
    operations invoked before [op]'s response, (ii) contains every
    operation by [op]'s process that precedes [op], and (iii) ends with
    [op] returning its actual response.  Responses of the *other*
    operations in S are unconstrained (beyond legality).

    The search reuses the DFS-with-memo idea of [Engine]: place any
    subset of the candidate operations in any legal order; once all
    required operations are placed, try to finish with [op].  Like
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

(* Sort transitions by next state and keep one per state: other
   operations' responses are unconstrained, so only the state matters. *)
let by_state ((_ : Value.t), q1) ((_ : Value.t), q2) = Value.compare q1 q2

(** [op_ok cfg h target] decides Definition 1 for one completed
    operation [target] of [h]. *)
let op_ok cfg h (target : Operation.t) =
  let resp_value, resp_idx =
    match target.Operation.resp with
    | Some (v, i) -> (v, i)
    | None -> invalid_arg "Weak.op_ok: operation is pending"
  in
  let ops = History.ops_array h in
  let n = Array.length ops in
  (* Candidates: invoked before [target]'s response, excluding target.
     Required: same process, precede target in H (their response is
     before target's invocation; well-formedness makes them complete). *)
  let candidates = Bitset.create n in
  let is_required = Array.make n false in
  let n_required = ref 0 in
  Array.iter
    (fun (o : Operation.t) ->
      let id = o.Operation.id in
      if id <> target.Operation.id then begin
        if o.Operation.inv < resp_idx then Bitset.set candidates id;
        if
          o.Operation.proc = target.Operation.proc
          && o.Operation.inv < target.Operation.inv
        then begin
          is_required.(id) <- true;
          incr n_required
        end
      end)
    ops;
  let n_required = !n_required in
  let objs, slot = Engine.object_slots ops in
  let specs = Array.map cfg.spec_of_obj objs in
  let kinds = Array.map Spec.transitions specs in
  let target_slot = slot.(target.Operation.id) in
  let budget = Budget.counter ?limit:cfg.node_budget ?poll:cfg.poll () in
  (* The placed set and the state vector of the current DFS node,
     mutated in place and restored on backtrack. *)
  let placed = Bitset.create n in
  let states = Array.map Spec.initial specs in
  Memo_key.borrow ~width:n ~arity:(Array.length states) @@ fun memo ->
  let nw = Bitset.word_count placed in
  let rec dfs n_placed_required =
    Budget.bump budget;
    (* Can we close with the target now? *)
    let closes =
      n_placed_required = n_required
      && Spec.is_legal_response specs.(target_slot) states.(target_slot)
           target.Operation.op resp_value
    in
    if closes then true
    else
      let h = Memo_key.hash placed states in
      if Memo_key.mem_hashed memo placed states h then false
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
            let sl = slot.(id) in
            let saved = states.(sl) and op = ops.(id).Operation.op in
            let n' = n_placed_required + Bool.to_int is_required.(id) in
            Bitset.set placed id;
            (* Any legal transition: S need not preserve responses of
               other operations. *)
            (success :=
               match kinds.(sl) with
               | Spec.Deterministic d ->
                 states.(sl) <- d.next saved op;
                 dfs n'
               | Spec.Relation f ->
                 try_transitions sl n' (List.sort_uniq by_state (f saved op)));
            if not !success then begin
              states.(sl) <- saved;
              Bitset.clear placed id
            end
          done;
          incr w
        done;
        if not !success then ignore (Memo_key.add_hashed memo placed states h);
        !success
      end
  and try_transitions sl n' = function
    | [] -> false
    | ((_ : Value.t), q') :: rest ->
      states.(sl) <- q';
      dfs n' || try_transitions sl n' rest
  in
  dfs 0

(** [check cfg h] decides weak consistency of the whole history;
    returns the first violating operation if any. *)
let check cfg h =
  let rec go = function
    | [] -> Ok ()
    | (o : Operation.t) :: rest ->
      if op_ok cfg h o then go rest else Error o
  in
  go (History.complete_ops h)

let is_weakly_consistent cfg h =
  match check cfg h with Ok () -> true | Error _ -> false
