(** Differential fuzzing of the rebuilt DFS engine.

    The engine is compared against two structurally independent
    deciders at randomized cuts — the brute-force [Oracle]
    (definitional ground truth, micro-histories only) and the
    Lemma-17 slot checker [Faic] (fetch&increment histories of any
    size) — plus fixed-seed min_t tables pinning the galloping search
    to plain binary search on the paper's E3/E16 families, and a
    randomized search/witness budget-parity property (both run the
    identical tree, so they must exhaust any budget together).  A
    relational spec whose candidates have two admitted transitions is
    checked against the Oracle at every cut, alone and beside
    fetch&increment, with every witness replayed. *)

open Elin_spec
open Elin_history
open Elin_checker
open Elin_test_support

let fai = Faicounter.spec ()

(* A small random history: linearizable / pending / eventually
   linearizable / corrupted shape, over [spec]. *)
let random_history rng spec ~n_ops =
  match Elin_kernel.Prng.int rng 4 with
  | 0 -> Gen.linearizable rng ~spec ~procs:2 ~n_ops ()
  | 1 -> Gen.linearizable_with_pending rng ~spec ~procs:2 ~n_ops ()
  | 2 ->
    fst
      (Gen.eventually_linearizable rng ~spec ~procs:2
         ~prefix_ops:(n_ops / 2)
         ~suffix_ops:(n_ops - (n_ops / 2))
         ())
  | _ -> (
    let h = Gen.linearizable rng ~spec ~procs:2 ~n_ops () in
    match Gen.corrupt rng h with Some h' -> h' | None -> h)

let random_cut rng h = Elin_kernel.Prng.int rng (History.length h + 1)

(* --- engine vs brute-force Oracle, randomized cuts, three specs --- *)

let vs_oracle name spec =
  (* Oracle enumerates all orderings: keep histories micro. *)
  Support.seeded_prop ~count:120 (Printf.sprintf "engine = oracle (%s)" name)
    (fun rng ->
      let h = random_history rng spec ~n_ops:4 in
      let t = random_cut rng h in
      let engine = Engine.t_linearizable (Engine.for_spec spec) h ~t in
      let oracle = Oracle.t_linearizable (fun _ -> spec) h ~t in
      engine = oracle)

(* --- engine vs the Lemma-17 slot checker, randomized cuts --- *)

let vs_faic =
  Support.seeded_prop ~count:150 "engine = faic at random cuts" (fun rng ->
      let h = random_history rng fai ~n_ops:6 in
      let t = random_cut rng h in
      Engine.t_linearizable (Engine.for_spec fai) h ~t
      = Faic.t_linearizable h ~t)

(* --- Weak against the Lemma-17 weak-consistency test --- *)

(* Beyond the Oracle's micro histories: Definition 1 on 6-10-op fai
   histories of every [random_history] shape, including corrupted
   responses, so the in-place placed set and state of [Weak.check]'s
   search backtrack through real refutations. *)
let weak_vs_faic =
  Support.seeded_prop ~count:150 "weak = faic weak" (fun rng ->
      let h = random_history rng fai ~n_ops:(6 + Elin_kernel.Prng.int rng 5) in
      Weak.is_weakly_consistent (Weak.for_spec fai) h
      = Faic.weakly_consistent h)

(* --- a relational spec: several admitted transitions per candidate - *)

(* [fetch] returns the old value and adds 1 or 2, nondeterministically:
   both transitions carry the same response and reach different
   states, so the DFS must try each admitted transition of a candidate
   in turn.  [read] tells the states apart. *)
let fetch_1_or_2 =
  Spec.make ~name:"fetch-1-or-2" ~initial:(Value.int 0)
    ~apply:(fun q op ->
      match Op.name op with
      | "fetch" ->
        let n = Value.to_int q in
        [ (q, Value.int (n + 1)); (q, Value.int (n + 2)) ]
      | "read" -> [ (q, q) ]
      | other -> invalid_arg ("fetch-1-or-2: unknown operation " ^ other))
    ~all_ops:[ Op.make "fetch"; Op.read ]

(* Does [w] replay as a t-linearization of [h] (Definition 2)?  No
   operation twice, every completed one present, surviving responses
   kept, real-time order kept among surviving pairs, and each object's
   projection legal for its spec. *)
let replays spec_of h ~t w =
  let ids = List.map (fun ((o : Operation.t), _) -> o.Operation.id) w in
  let rec pos id i = function
    | [] -> None
    | x :: rest -> if x = id then Some i else pos id (i + 1) rest
  in
  List.length (List.sort_uniq compare ids) = List.length ids
  && List.for_all
       (fun (o : Operation.t) -> List.mem o.Operation.id ids)
       (History.complete_ops h)
  && List.for_all
       (fun ((o : Operation.t), r) ->
         match o.Operation.resp with
         | Some (v, ri) when ri >= t -> Value.equal v r
         | Some _ | None -> true)
       w
  && List.for_all
       (fun ((b : Operation.t), _) ->
         List.for_all
           (fun (a : Operation.t) ->
             match a.Operation.resp with
             | Some (_, ra) when ra >= t && b.Operation.inv >= t
                                 && ra < b.Operation.inv -> (
               match (pos a.Operation.id 0 ids, pos b.Operation.id 0 ids) with
               | Some i, Some j -> i < j
               | _ -> false)
             | Some _ | None -> true)
           (History.ops h))
       w
  && List.for_all
       (fun obj ->
         Legal.is_legal (spec_of obj)
           (List.filter_map
              (fun ((o : Operation.t), r) ->
                if o.Operation.obj = obj then Some (o.Operation.op, r) else None)
              w))
       (History.objs h)

(* At every cut: the engine's verdict is the Oracle's, and its witness
   exists exactly when it accepts and replays. *)
let agrees_at_every_cut spec_of h =
  let cfg = Engine.config spec_of in
  List.for_all
    (fun t ->
      let ok = Engine.t_linearizable cfg h ~t in
      ok = Oracle.t_linearizable spec_of h ~t
      &&
      match Engine.witness cfg h ~t with
      | Some w -> ok && replays spec_of h ~t w
      | None -> not ok)
    (List.init (History.length h + 1) Fun.id)

let relational_alone =
  Support.seeded_prop ~count:100 "relational spec = oracle at every cut"
    (fun rng ->
      agrees_at_every_cut
        (fun _ -> fetch_1_or_2)
        (random_history rng fetch_1_or_2 ~n_ops:4))

(* Object 0 is relational, object 1 fetch&increment. *)
let relational_with_fai =
  Support.seeded_prop ~count:100
    "relational + fetch&increment = oracle at every cut" (fun rng ->
      let spec_of o = if o = 0 then fetch_1_or_2 else fai in
      let h =
        match Elin_kernel.Prng.int rng 3 with
        | 0 -> Gen.mixed rng ~spec_of_obj:spec_of ~objs:2 ~procs:2 ~n_ops:5 ()
        | 1 ->
          Gen.mixed_with_pending rng ~spec_of_obj:spec_of ~objs:2 ~procs:2
            ~n_ops:5 ()
        | _ -> (
          let h =
            Gen.mixed rng ~spec_of_obj:spec_of ~objs:2 ~procs:2 ~n_ops:5 ()
          in
          match Gen.corrupt rng h with Some h' -> h' | None -> h)
      in
      agrees_at_every_cut spec_of h)

(* [Weak.check] on single-object relational histories of every
   [random_history] shape: summed [weak.runs] and [weak.nodes], and
   the first violators' count and id sum.  Constants recorded once:
   the per-transition loop and the memo must not move them. *)
let relational_weak_pins () =
  let module C = Elin_obs.Metrics.Counter in
  Elin_obs.Metrics.enable ();
  let m_runs = Elin_obs.Metrics.counter "weak.runs"
  and m_nodes = Elin_obs.Metrics.counter "weak.nodes" in
  let runs0 = C.value m_runs and nodes0 = C.value m_nodes in
  let rng = Elin_kernel.Prng.create 17 in
  let ids =
    List.filter_map
      (fun _ ->
        let h = random_history rng fetch_1_or_2 ~n_ops:8 in
        match Weak.check (Weak.for_spec fetch_1_or_2) h with
        | Ok () -> None
        | Error (o : Operation.t) -> Some o.Operation.id)
      (List.init 200 Fun.id)
  in
  Alcotest.(check int) "runs" 1_460 (C.value m_runs - runs0);
  Alcotest.(check int) "nodes" 23_629 (C.value m_nodes - nodes0);
  Alcotest.(check int) "first violators" 25 (List.length ids);
  Alcotest.(check int) "sum of their ids" 95 (List.fold_left ( + ) 0 ids)

(* --- galloping min_t = binary-search min_t --- *)

(* Plain binary search (the pre-galloping strategy), inlined so the
   suite does not depend on the optimized implementation under test. *)
let binary_min_t check ~len =
  if not (check len) then None
  else begin
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if check mid then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

let min_t_opt = Alcotest.(option int)

(* Fixed-seed tables over the paper's two named families: E3 (the
   Proposition 9 register family — min_t grows with k) and E16 (the
   Serafini delayed-winner test&set family — min_t ~ history length). *)
let galloping_matches_binary_families () =
  List.iter
    (fun k ->
      let h = Locality.register_family k in
      let cfg = Engine.config (fun _ -> Register.spec ()) in
      let check t = Engine.t_linearizable cfg h ~t in
      let len = History.length h in
      Alcotest.check min_t_opt
        (Printf.sprintf "register_family %d" k)
        (binary_min_t check ~len)
        (Eventual.min_t_search check ~len))
    [ 1; 3; 5 ];
  let ts = Testandset.spec () in
  let cfg = Engine.for_spec ts in
  List.iter
    (fun n ->
      let h = Serafini.delayed_winner_family n in
      let check t = Engine.t_linearizable cfg h ~t in
      let len = History.length h in
      Alcotest.check min_t_opt
        (Printf.sprintf "delayed_winner_family %d" n)
        (binary_min_t check ~len)
        (Eventual.min_t_search check ~len))
    [ 2; 4; 6; 8 ]

(* Randomized: the two monotone searches agree on arbitrary histories,
   and min_t through the prepared path agrees with the one-shot path. *)
let galloping_matches_binary_random =
  Support.seeded_prop ~count:150 "galloping = binary min_t (random)"
    (fun rng ->
      let h = random_history rng fai ~n_ops:6 in
      let cfg = Engine.for_spec fai in
      let check t = Engine.t_linearizable cfg h ~t in
      let len = History.length h in
      Eventual.min_t_search check ~len = binary_min_t check ~len
      && Eventual.min_t cfg h
         = fst (Eventual.min_t_prepared (Engine.prepare cfg h)))

(* --- search/witness budget parity --- *)

let budget_parity =
  Support.seeded_prop ~count:150 "search and witness share budgets"
    (fun rng ->
      let h = random_history rng fai ~n_ops:5 in
      let t = random_cut rng h in
      let full = Engine.search (Engine.for_spec fai) h ~t in
      (* A budget drawn from [1, nodes + 1]: sometimes binding,
         sometimes not. *)
      let b = 1 + Elin_kernel.Prng.int rng (full.Engine.nodes_explored + 1) in
      let cfg = Engine.for_spec ~node_budget:b fai in
      let s =
        match Engine.search cfg h ~t with
        | v -> `Done v.Engine.ok
        | exception Engine.Budget_exceeded -> `Exceeded
      in
      let w =
        match Engine.witness cfg h ~t with
        | Some _ -> `Done true
        | None -> `Done false
        | exception Engine.Budget_exceeded -> `Exceeded
      in
      s = w)

(* --- Memo_key against a Hashtbl reference ---------------------------- *)

(* The reference has the semantics of the table [Memo_key] replaced:
   [Hashtbl.Make] over (placed members, state vector), states compared
   and hashed with [Value.equal] / [Value.hash]. *)
module Ref_key = struct
  type t = int list * Value.t array

  let equal (b1, s1) (b2, s2) =
    b1 = b2
    && Array.length s1 = Array.length s2
    && Array.for_all2 Value.equal s1 s2

  let hash (b, s) =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) (Hashtbl.hash b) s
    land max_int
end

module Ref_memo = Hashtbl.Make (Ref_key)

(* A state built afresh from [r] on every call, so rebuilding a key
   gives a structurally equal but physically distinct one: interned
   small ints, and ints past the interned range, pairs, lists and
   strings, none of which are shared.  Injective in [r]. *)
let fresh_value r =
  match r mod 5 with
  | 0 -> Value.int (r / 5)
  | 1 -> Value.Int (5000 + r)
  | 2 -> Value.Pair (Value.int r, Value.Str (string_of_int r))
  | 3 -> Value.List [ Value.Int (2000 + r); Value.unit ]
  | _ -> Value.Str ("s" ^ string_of_int r)

(* A key recipe: placed members and state seeds; [build] materializes
   it afresh.  Distinct recipes build distinct keys. *)
let random_recipe rng ~width ~arity =
  let members =
    if width = 0 then []
    else
      List.sort_uniq compare
        (List.init
           (Elin_kernel.Prng.int rng 4)
           (fun _ -> Elin_kernel.Prng.int rng width))
  in
  (members, List.init arity (fun _ -> Elin_kernel.Prng.int rng 40))

let build ~width (members, seeds) =
  ( Elin_kernel.Bitset.of_list width members,
    Array.of_list (List.map fresh_value seeds) )

let widths = [ 0; 62; 63; 125 ]

let sorted_states l = List.sort compare (List.map Array.to_list l)

(* [ops] random adds and lookups on [memo], each on a freshly built
   key, against a fresh reference: answers, sizes and the stored state
   vectors agree.  Returns the verdict and the recipes it inserted. *)
let memo_round rng memo ~width ~arity ~ops =
  let reference = Ref_memo.create 16 in
  let seen = ref [] in
  let agree = ref true in
  for _ = 1 to ops do
    let recipe =
      if !seen <> [] && Elin_kernel.Prng.int rng 3 = 0 then
        List.nth !seen (Elin_kernel.Prng.int rng (List.length !seen))
      else random_recipe rng ~width ~arity
    in
    let placed, states = build ~width recipe in
    let ref_key = (fst recipe, states) in
    if Elin_kernel.Prng.bool rng then begin
      let fresh = not (Ref_memo.mem reference ref_key) in
      Ref_memo.replace reference (fst recipe, Array.copy states) ();
      seen := recipe :: !seen;
      agree := !agree && Memo_key.add memo placed states = fresh
    end
    else
      agree :=
        !agree
        && Memo_key.mem memo placed states = Ref_memo.mem reference ref_key
  done;
  ( !agree
    && Memo_key.length memo = Ref_memo.length reference
    && sorted_states (Memo_key.states memo)
       = sorted_states
           (Ref_memo.fold (fun (_, s) () acc -> s :: acc) reference []),
    !seen )

let random_shape rng =
  (List.nth widths (Elin_kernel.Prng.int rng 4), Elin_kernel.Prng.int rng 4)

let memo_matches_reference =
  Support.seeded_prop ~count:60 "memo = Hashtbl reference" (fun rng ->
      let width, arity = random_shape rng in
      let memo = Memo_key.create ~width ~arity in
      fst (memo_round rng memo ~width ~arity ~ops:600))

(* One table through rounds of random lengths, emptied by
   [Memo_key.clear] between them, as a domain's spare table is between
   the runs it is lent to: rounds of up to 1 200 operations grow most
   tables well past their 16 starting slots, and later rounds start
   from the grown, emptied table.  Every round agrees with a fresh
   reference, and after each clear the table is empty and every key
   inserted before the clear reads absent. *)
let memo_clear_matches_reference =
  Support.seeded_prop ~count:30 "memo clear and reuse = Hashtbl reference"
    (fun rng ->
      let width, arity = random_shape rng in
      let memo = Memo_key.create ~width ~arity in
      List.for_all
        (fun _ ->
          let ops = 1 + Elin_kernel.Prng.int rng 1200 in
          let agree, inserted = memo_round rng memo ~width ~arity ~ops in
          Memo_key.clear memo;
          agree
          && Memo_key.length memo = 0
          && Memo_key.states memo = []
          && List.for_all
               (fun recipe ->
                 let placed, states = build ~width recipe in
                 not (Memo_key.mem memo placed states))
               inserted)
        (List.init 6 Fun.id))

(* Keys whose hashes share their low 6 bits start their probes in a
   few slots and form long runs; each is still found, and none answers
   for another. *)
let memo_colliding_low_bits () =
  let rng = Elin_kernel.Prng.create 0x10b175 in
  List.iter
    (fun width ->
      let arity = 2 in
      let recipes =
        List.sort_uniq compare
          (List.init 20_000 (fun _ -> random_recipe rng ~width ~arity))
      in
      let low r =
        let placed, states = build ~width r in
        Memo_key.hash placed states land 63
      in
      let target = low (List.hd recipes) in
      let clash = List.filter (fun r -> low r = target) recipes in
      let inserted, held_out =
        List.partition (fun _ -> Elin_kernel.Prng.bool rng) clash
      in
      let memo = Memo_key.create ~width ~arity in
      List.iter
        (fun r ->
          let placed, states = build ~width r in
          Alcotest.(check bool) "fresh key added" true
            (Memo_key.add memo placed states))
        inserted;
      List.iter
        (fun r ->
          let placed, states = build ~width r in
          Alcotest.(check bool) "inserted key found" true
            (Memo_key.mem memo placed states))
        inserted;
      List.iter
        (fun r ->
          let placed, states = build ~width r in
          Alcotest.(check bool) "held-out key absent" false
            (Memo_key.mem memo placed states))
        held_out;
      Alcotest.(check int)
        (Printf.sprintf "width %d: length" width)
        (List.length inserted) (Memo_key.length memo))
    widths

(* Equal, not identical: the hit needs [Value.equal], not [==]. *)
let memo_structural_hits () =
  let placed = Elin_kernel.Bitset.of_list 70 [ 3; 64 ] in
  (* [opaque_identity] keeps the compiler from sharing one static
     block between the two builds. *)
  let int n = Value.Int (Sys.opaque_identity n) in
  let key () =
    [|
      int 5000;
      Value.Pair (int 7000, Value.Str (Sys.opaque_identity "x"));
      Value.List [ int 9000 ];
      Value.Str ("st" ^ Sys.opaque_identity "ate");
    |]
  in
  let memo = Memo_key.create ~width:70 ~arity:4 in
  let k1 = key () and k2 = key () in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "equal, distinct blocks" true
        (Value.equal v k2.(i) && v != k2.(i)))
    k1;
  Alcotest.(check bool) "added" true (Memo_key.add memo placed k1);
  Alcotest.(check bool) "equal key found" true (Memo_key.mem memo placed k2);
  Alcotest.(check bool) "equal key not re-added" false
    (Memo_key.add memo placed k2);
  (* The table copied the key: mutating the caller's arrays changes
     neither its contents nor its answers. *)
  k1.(0) <- Value.int 1;
  Elin_kernel.Bitset.clear placed 64;
  Alcotest.(check bool) "changed key absent" false
    (Memo_key.mem memo placed k1);
  Elin_kernel.Bitset.set placed 64;
  Alcotest.(check bool) "original still found" true
    (Memo_key.mem memo placed (key ()));
  Alcotest.check_raises "shape checked"
    (Invalid_argument "Memo_key: key shape differs from the table's")
    (fun () -> ignore (Memo_key.mem memo placed [| Value.unit |]))

(* Keys with equal full hashes: the table must tell them apart by
   comparing every word and every state.  Placed sets {62..66} and {0}
   have words (0, 31, 0) and (1, 0, 0), which the polynomial word hash
   maps to the same value; two 12-element lists that differ past the
   10 values [Hashtbl.hash] reads hash equal too. *)
let memo_full_hash_collisions () =
  let a = Elin_kernel.Bitset.of_list 125 [ 62; 63; 64; 65; 66 ] in
  let b = Elin_kernel.Bitset.of_list 125 [ 0 ] in
  let long last =
    Value.List
      (List.init 12 (fun i -> Value.Int (if i = 11 then last else i)))
  in
  let s = [| long 11 |] and s' = [| long 99 |] in
  Alcotest.(check int) "placed sets collide"
    (Memo_key.hash a s) (Memo_key.hash b s);
  Alcotest.(check int) "states collide"
    (Memo_key.hash a s) (Memo_key.hash a s');
  let memo = Memo_key.create ~width:125 ~arity:1 in
  Alcotest.(check bool) "added" true (Memo_key.add memo a s);
  Alcotest.(check bool) "other placed set absent" false
    (Memo_key.mem memo b s);
  Alcotest.(check bool) "other state absent" false (Memo_key.mem memo a s');
  Alcotest.(check bool) "other placed set added" true (Memo_key.add memo b s);
  Alcotest.(check bool) "other state added" true (Memo_key.add memo a s');
  Alcotest.(check int) "three keys" 3 (Memo_key.length memo)

(* --- engine vs Faic on 60-70- and 130-180-op histories ------------ *)

(* Generated shapes only: corrupted histories of this size can take
   the DFS into its exponential worst case.  [n_ops] is drawn from
   [lo, lo + span). *)
let wide_history rng ~lo ~span =
  let n_ops = lo + Elin_kernel.Prng.int rng span in
  match Elin_kernel.Prng.int rng 3 with
  | 0 -> Gen.linearizable rng ~spec:fai ~procs:3 ~n_ops ()
  | 1 -> Gen.linearizable_with_pending rng ~spec:fai ~procs:3 ~n_ops ()
  | _ ->
    fst
      (Gen.eventually_linearizable rng ~spec:fai ~procs:3 ~prefix_ops:6
         ~suffix_ops:(n_ops - 6) ())

(* 60-70 operations span two placed-set words, 130-180 span three, so
   the candidate scans cross one or two 62-bit word boundaries. *)
let wide_vs_faic ~lo ~span =
  Support.seeded_prop ~count:60
    (Printf.sprintf "engine = faic at random cuts (%d-%d ops)" lo
       (lo + span - 1))
    (fun rng ->
      let h = wide_history rng ~lo ~span in
      let t = random_cut rng h in
      Engine.t_linearizable (Engine.for_spec fai) h ~t
      = Faic.t_linearizable h ~t)

let () =
  Alcotest.run "engine_fuzz"
    [
      ( "differential",
        [
          vs_oracle "fetch&increment" fai;
          vs_oracle "register" (Register.spec ());
          vs_oracle "queue" (Fifo.spec ());
          vs_faic;
          weak_vs_faic;
          Support.quick "relational weak pins" relational_weak_pins;
          relational_alone;
          relational_with_fai;
        ] );
      ( "min_t",
        [
          Support.quick "galloping = binary on E3/E16 families"
            galloping_matches_binary_families;
          galloping_matches_binary_random;
        ] );
      ( "budget", [ budget_parity ] );
      ( "memo",
        [
          memo_matches_reference;
          memo_clear_matches_reference;
          Support.quick "colliding low bits" memo_colliding_low_bits;
          Support.quick "structurally equal keys" memo_structural_hits;
          Support.quick "full-hash collisions" memo_full_hash_collisions;
        ] );
      ( "wide",
        [ wide_vs_faic ~lo:60 ~span:11; wide_vs_faic ~lo:130 ~span:51 ] );
    ]
