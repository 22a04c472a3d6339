(** Justifiable responses: the search behind Figure 1's line 13.

    Given a pool of announced operations, decide whether "a permutation
    of a subset of the operations (including all required ones) yields
    a legal sequential execution where [op] returns [resp]".  This is
    the same search as Definition 1's per-operation condition
    ([Weak.op_ok]) but over an explicit op pool rather than a history,
    so the Prop. 11 guard can run it online. *)

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
  let state = [| Spec.initial spec |] in
  let memo = Memo_key.create ~width:n ~arity:1 in
  let rec dfs n_placed_required =
    if
      n_placed_required = n_required
      && Spec.is_legal_response spec state.(0) op resp
    then true
    else if Memo_key.mem memo placed state then false
    else begin
      let success = ref false in
      let i = ref 0 in
      while (not !success) && !i < n do
        let id = !i in
        incr i;
        if not (Bitset.mem placed id) then begin
          let saved = state.(0) in
          let transitions =
            List.sort_uniq by_state (Spec.apply spec saved pool.(id))
          in
          Bitset.set placed id;
          success :=
            try_transitions
              (n_placed_required + Bool.to_int is_required.(id))
              transitions;
          if not !success then begin
            state.(0) <- saved;
            Bitset.clear placed id
          end
        end
      done;
      if not !success then ignore (Memo_key.add memo placed state);
      !success
    end
  and try_transitions n' = function
    | [] -> false
    | ((_ : Value.t), q') :: rest ->
      state.(0) <- q';
      dfs n' || try_transitions n' rest
  in
  dfs 0
