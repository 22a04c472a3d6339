(** Justifiable responses: the search behind Figure 1's line 13.

    Given a pool of announced operations, decide whether "a permutation
    of a subset of the operations (including all required ones) yields
    a legal sequential execution where [op] returns [resp]".  This is
    the same search as Definition 1's per-operation condition
    ([Weak.op_ok]) but over an explicit op pool rather than a history,
    so the Prop. 11 guard can run it online, with the same node loop:
    a walk over the unplaced operations, word by word, that allocates
    nothing for a deterministic spec and hashes each memo key once. *)

open Elin_kernel
open Elin_spec

(* One transition per next state: only the state matters here. *)
let by_state ((_ : Value.t), q1) ((_ : Value.t), q2) = Value.compare q1 q2

(** [justifiable spec ~pool ~required ~op ~resp] — [required] lists
    indices into [pool] that must be placed before the final [op].
    Single-object (all pool operations target the same spec). *)
let justifiable spec ~pool ~required ~op ~resp =
  let pool = Array.of_list pool in
  let n = Array.length pool in
  let is_required = Array.make n false in
  List.iter (fun i -> is_required.(i) <- true) required;
  let n_required = List.length required in
  (* The placed set and the (one-object) state of the current DFS
     node, mutated in place and restored on backtrack. *)
  let placed = Bitset.create n in
  let all = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.set all i
  done;
  let nw = Bitset.word_count placed in
  let kind = Spec.transitions spec in
  let state = [| Spec.initial spec |] in
  Memo_key.borrow ~width:n ~arity:1 @@ fun memo ->
  let rec dfs n_placed_required =
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
          (* The unplaced operations of word [w]; children restore
             [placed] before returning. *)
          let bits =
            ref (Bitset.word all !w land lnot (Bitset.word placed !w))
          in
          while (not !success) && !bits <> 0 do
            let b = !bits land - !bits in
            bits := !bits lxor b;
            let id = (!w * Bitset.bits_per_word) + Bitset.bit_index b in
            let saved = state.(0) in
            let n' = n_placed_required + Bool.to_int is_required.(id) in
            Bitset.set placed id;
            (success :=
               match kind with
               | Spec.Deterministic d ->
                 state.(0) <- d.next saved pool.(id);
                 dfs n'
               | Spec.Relation f ->
                 try_transitions n'
                   (List.sort_uniq by_state (f saved pool.(id))));
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
  dfs 0
