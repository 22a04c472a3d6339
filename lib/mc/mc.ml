(** The model checker, specialized to implementation execution trees.

    Same exhaustive semantics as [Explore.for_all_histories] — every
    interleaving of process steps and every adversary branch of the
    base objects, to a step bound — but run through {!Search}'s
    parallel fingerprint-dedup BFS:

    - syntactically identical configurations reached along different
      interleavings (e.g. commuting base accesses) are expanded once;
    - each BFS level is partitioned across OCaml 5 domains by
      fingerprint owner;
    - the verdict is deterministic and domain-count-independent: when
      the predicate fails, the reported counterexample is the
      lexicographically minimal violating history of the shallowest
      violating level.

    Because a configuration's fingerprint covers the accumulated
    history (events are part of the canonical encoding), dedup merges
    only configurations with identical pasts {e and} futures: the set
    of reachable leaf histories — hence any history predicate's
    verdict — is preserved exactly, modulo 64-bit fingerprint
    collisions. *)

open Elin_spec
open Elin_history
open Elin_runtime
open Elin_explore

type outcome = {
  ok : bool;
  counterexample : History.t option;
      (** the minimal violating history under {!Canon.compare_history} *)
  stats : Search.stats;
}

type spill = {
  dir : string;
  hot : int;
  every : int;
  identity : string;
  on_checkpoint : int -> unit;
  mutable store : Elin_store.Tiered_set.stats option;
  mutable resumed_from : int option;
}

let spill ?(hot = 1 lsl 20) ?(every = 0) ?(identity = "")
    ?(on_checkpoint = fun _ -> ()) dir =
  {
    dir;
    hot;
    every;
    identity;
    on_checkpoint;
    store = None;
    resumed_from = None;
  }

let workloads_symmetric workloads =
  let n = Array.length workloads in
  n = 0
  || Array.for_all (fun wl -> List.equal Op.equal wl workloads.(0)) workloads

let check_symmetry ~symmetry ~workloads =
  if symmetry && not (workloads_symmetric workloads) then
    invalid_arg "Mc: symmetry reduction requires identical workloads"

(* Shared driver: explore every extension of [root] whose step count
   stays below [budget], classifying leaves with [leaf].

   Partial-order reduction ([por], default on) is silently disabled
   under symmetry reduction — sleep masks are process-indexed and the
   renaming quotient merges states across indexings — and beyond 62
   processes (the mask is an [int] bitmask).  With dedup on, sleep
   sets and dedup compose through [Search]'s barrier merge: the
   surviving copy of a state carries the intersection of all copies'
   sleep masks, so every direction some path still had to explore is
   explored.  The reachable state set — hence every verdict, decision
   set and lex-min counterexample, and the [states]/[kept]/[leaves]
   counts under dedup — is invariant under [por]; only redundant
   successor generation ([dedup_hits]) shrinks.  In tree mode (no
   dedup) [por] prunes the node count itself. *)
let drive (impl : Impl.t) ?domains ?(dedup = true) ?(symmetry = false)
    ?(por = true) ?(stop_early = true) ?spill:msp ?resume ?on_state ~budget
    ~leaf root =
  let por =
    por && (not symmetry) && Array.length root.Explore.procs <= 62
  in
  let pruned = Atomic.make 0 in
  let expand (node : Canon.node) =
    (match on_state with Some f -> f () | None -> ());
    let c = node.Canon.config in
    if Explore.is_done c then Search.Leaf (leaf c)
    else if c.Explore.steps >= budget then Search.Cut (leaf c)
    else Search.Children (Canon.successors ~por ~pruned impl node)
  in
  let merge = if por && dedup then Some Canon.merge_sleep else None in
  (* The frontier segments' payload is the sleep mask: the resume
     cross-check then certifies the POR metadata of the cut, not just
     the state identities.  The POR-pruned counter rides the manifest
     through the aux hooks. *)
  let sp =
    Option.map
      (fun m ->
        Search.spill ~hot:m.hot ~every:m.every ~identity:m.identity
          ~payload:(fun (n : Canon.node) -> Int64.of_int n.Canon.sleep)
          ~save_aux:(fun () -> Atomic.get pruned)
          ~restore_aux:(fun v -> Atomic.set pruned v)
          ~on_checkpoint:m.on_checkpoint m.dir)
      msp
  in
  let vs, stats =
    Search.bfs ?domains ~dedup ~stop_early ?merge ?spill:sp ?resume
      ~fingerprint:(Canon.fingerprint ~symmetry)
      ~expand ~compare:Canon.compare_history (Canon.root root)
  in
  (match msp, sp with
  | Some m, Some s ->
    m.store <- s.Search.sp_store;
    m.resumed_from <- s.Search.sp_resumed
  | _ -> ());
  (vs, { stats with Search.pruned = Atomic.get pruned })

let outcome_of (violations, stats) =
  match violations with
  | [] -> { ok = true; counterexample = None; stats }
  | h :: _ -> { ok = false; counterexample = Some h; stats }

(** [check impl ~workloads p] — does [p] hold on every leaf history
    (finished or cut at [max_steps])?  The [Explore.for_all_histories]
    contract, parallel and deduplicated. *)
let check (impl : Impl.t) ~workloads ?locals ?(max_steps = 40)
    ?domains ?dedup ?(symmetry = false) ?por ?spill ?resume ?on_state p =
  check_symmetry ~symmetry ~workloads;
  let leaf c =
    let h = Explore.history c in
    if p h then None else Some h
  in
  outcome_of
    (drive impl ?domains ?dedup ~symmetry ?por ?spill ?resume
       ?on_state ~budget:max_steps ~leaf
       (Explore.initial_config impl ~workloads ?locals ()))

(** [check_from impl c0 ~max_extra_steps p] — [check] over every
    extension of configuration [c0] by at most [max_extra_steps] steps
    (the Prop. 18 stability certificate's shape).  No symmetry
    reduction: the processes' in-flight operations break it. *)
let check_from (impl : Impl.t) (c0 : Explore.config) ~max_extra_steps
    ?domains ?dedup ?por ?spill ?resume ?on_state p =
  let leaf c =
    let h = Explore.history c in
    if p h then None else Some h
  in
  outcome_of
    (drive impl ?domains ?dedup ?por ?spill ?resume ?on_state
       ~budget:(c0.Explore.steps + max_extra_steps) ~leaf c0)

(** [count_states impl ~workloads ()] — exhaust the bounded space with
    no predicate; the stats are the result. *)
let count_states (impl : Impl.t) ~workloads ?locals ?(max_steps = 40)
    ?domains ?dedup ?(symmetry = false) ?por ?spill ?resume ?on_state () =
  check_symmetry ~symmetry ~workloads;
  let _, stats =
    drive impl ?domains ?dedup ~symmetry ?por ?spill ?resume ?on_state
      ~stop_early:false ~budget:max_steps
      ~leaf:(fun _ -> None)
      (Explore.initial_config impl ~workloads ?locals ())
  in
  stats

(** [leaf_histories impl ~workloads ()] — the {e set} of reachable leaf
    histories (sorted under {!Canon.compare_history}), plus stats.
    Used by the dedup-soundness tests: the set is invariant under
    [~dedup]. *)
let leaf_histories (impl : Impl.t) ~workloads ?locals ?(max_steps = 40)
    ?domains ?dedup ?por ?spill ?resume () =
  let hs, stats =
    drive impl ?domains ?dedup ?por ?spill ?resume ~stop_early:false
      ~budget:max_steps
      ~leaf:(fun c -> Some (Explore.history c))
      (Explore.initial_config impl ~workloads ?locals ())
  in
  (hs, stats)
