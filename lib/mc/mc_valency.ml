(** The valency analysis's exhaustive searches (the E9 workload),
    run through {!Search}'s parallel fingerprint-dedup BFS over
    {!Valency}'s protocol configurations: consensus checking, valence
    tagging, critical-configuration search and the commutation check.

    Every search explores [Valency.step] on every runnable process and
    every adversary branch, to a step bound.  Protocol steps on
    different base objects commute, so the interleaving tree collapses
    heavily under state dedup — exactly the state space where
    fingerprinting pays.  A search may start from any node, so the
    valence of every configuration on a descent is one BFS.

    The continuation-digest construction mirrors {!Canon}: a running
    process's programme is a deterministic function of its input value
    and the base responses it consumed, both of which the digest
    absorbs. *)

open Elin_spec
open Elin_runtime
open Elin_valency
module Fp = Elin_kernel.Fingerprint

type node = {
  config : Valency.config;
  digests : int64 array;
  sleep : int;  (* sleep set as a process bitmask (POR); see {!Canon} *)
}

let digest_input input =
  let b = Bytes.create 8 in
  Fp.start_at b 0;
  Fp.byte_at b 0 1;
  Canon.absorb_value b 0 input;
  Fp.finish_at b 0;
  Fp.word b 0

let root (p : Valency.protocol) ~inputs =
  {
    config = Valency.initial p ~inputs;
    digests = Array.map digest_input inputs;
    sleep = 0;
  }

(** [step p node i] — [Valency.step] with digest maintenance (the
    labelling trick of {!Canon.step}: re-enumerate the pure
    [Base.access] to learn which response each branch consumed). *)
let step ?choices (p : Valency.protocol) node i =
  let c = node.config in
  let with_digest c' d =
    let digests = Array.copy node.digests in
    digests.(i) <- d;
    { config = c'; digests; sleep = 0 }
  in
  match c.Valency.procs.(i) with
  | Valency.Decided _ -> []
  | Valency.Running (Program.Return _) ->
    List.map (fun c' -> with_digest c' 0L) (Valency.step p c i)
  | Valency.Running (Program.Access (obj, o, _)) ->
    let choices =
      match choices with
      | Some cs -> cs
      | None ->
        p.Valency.bases.(obj).Base.access ~state:c.Valency.bases.(obj) ~proc:i
          ~step:c.Valency.steps o
    in
    List.map2
      (fun (resp, _) c' ->
        with_digest c' (Canon.digest_access node.digests.(i) ~obj ~op:o ~resp))
      choices
      (Valency.step ~choices p c i)

(** Sleep-set pruning, exactly as in {!Canon.successors} but over
    {!Indep.of_valency} footprints — decision steps are [Local], so a
    poised decision commutes with everything and sleeps freely. *)
let m_pruned = Elin_obs.Metrics.counter "mc.por_pruned"

let successors ?(por = false) ?pruned (p : Valency.protocol) node =
  let c = node.config in
  let enabled = Valency.runnable c in
  if not por then List.concat_map (fun i -> step p node i) enabled
  else begin
    let foots = List.map (fun q -> (q, Indep.of_valency p c q)) enabled in
    let slept =
      List.filter_map
        (fun (q, (fq, _)) ->
          if node.sleep land (1 lsl q) <> 0 then Some (q, fq) else None)
        foots
    in
    let rec go acc explored = function
      | [] -> List.concat (List.rev acc)
      | (i, (fp_i, choices)) :: rest ->
        if node.sleep land (1 lsl i) <> 0 then begin
          (match pruned with Some a -> Atomic.incr a | None -> ());
          if Elin_obs.Metrics.on () then
            Elin_obs.Metrics.Counter.incr m_pruned;
          go acc explored rest
        end
        else begin
          let inherit_mask m (q, fq) =
            if Indep.independent fq fp_i then m lor (1 lsl q) else m
          in
          let sleep' =
            List.fold_left inherit_mask
              (List.fold_left inherit_mask 0 slept)
              explored
          in
          let ss =
            List.map (fun s -> { s with sleep = sleep' })
              (step ?choices p node i)
          in
          go (ss :: acc) ((i, fp_i) :: explored) rest
        end
    in
    go [] [] foots
  end

let merge_sleep a b = { a with sleep = a.sleep land b.sleep }

let fingerprint node =
  let c = node.config in
  let b = Bytes.create 8 in
  Fp.start_at ~seed:0x76616CL (* "val" *) b 0;
  Fp.int_at b 0 c.Valency.steps;
  let n = Array.length c.Valency.procs in
  Fp.int_at b 0 n;
  for i = 0 to n - 1 do
    match c.Valency.procs.(i) with
    | Valency.Decided v ->
      Fp.byte_at b 0 0;
      Canon.absorb_value b 0 v
    | Valency.Running _ ->
      Fp.byte_at b 0 1;
      Fp.int64_at b 0 node.digests.(i)
  done;
  Fp.int_at b 0 (Array.length c.Valency.bases);
  Array.iter (Canon.absorb_value b 0) c.Valency.bases;
  Fp.finish_at b 0;
  Fp.word b 0

(* Leaf verdicts: a decision vector, or a path cut by the bound. *)
type leaf = Decision of Value.t array | Truncated

let compare_leaf a b =
  match a, b with
  | Decision x, Decision y ->
    List.compare Value.compare (Array.to_list x) (Array.to_list y)
  | Decision _, Truncated -> -1
  | Truncated, Decision _ -> 1
  | Truncated, Truncated -> 0

(** [decisions_from p node ~max_steps] — the sorted decision vectors of
    the paths from [node] that decide within the bound, whether every
    path did, and the search's stats. *)
let decisions_from ?domains ?(dedup = true) ?(por = true) ?spill:msp
    ?resume (p : Valency.protocol) node ~max_steps =
  let por = por && Array.length node.config.Valency.procs <= 62 in
  let pruned = Atomic.make 0 in
  let expand node =
    let c = node.config in
    if Valency.all_decided c then
      Search.Leaf
        (Some
           (Decision
              (Array.map
                 (function
                   | Valency.Decided v -> v
                   | Valency.Running _ -> assert false)
                 c.Valency.procs)))
    else if c.Valency.steps >= max_steps then Search.Cut (Some Truncated)
    else Search.Children (successors ~por ~pruned p node)
  in
  let merge = if por && dedup then Some merge_sleep else None in
  (* Valency nodes carry sleep masks too; same payload contract as
     {!Mc.drive}'s. *)
  let sp =
    Option.map
      (fun (m : Mc.spill) ->
        Search.spill ~hot:m.Mc.hot ~every:m.Mc.every ~identity:m.Mc.identity
          ~payload:(fun n -> Int64.of_int n.sleep)
          ~save_aux:(fun () -> Atomic.get pruned)
          ~restore_aux:(fun v -> Atomic.set pruned v)
          ~on_checkpoint:m.Mc.on_checkpoint m.Mc.dir)
      msp
  in
  let leaves, stats =
    Search.bfs ?domains ~dedup ~stop_early:false ?merge ?spill:sp ?resume
      ~fingerprint ~expand ~compare:compare_leaf node
  in
  (match msp, sp with
  | Some m, Some s ->
    m.Mc.store <- s.Search.sp_store;
    m.Mc.resumed_from <- s.Search.sp_resumed
  | _ -> ());
  let decisions =
    List.filter_map (function Decision d -> Some d | Truncated -> None) leaves
  in
  ( decisions,
    not (List.mem Truncated leaves),
    { stats with Search.pruned = Atomic.get pruned } )

type report = {
  decisions : Value.t array list;  (* sorted, duplicate-free *)
  agreement_violation : Value.t array option;
  validity_violation : Value.t array option;
  terminated : bool;
  stats : Search.stats;
}

(** [check_consensus p ~inputs ~max_steps ()] — the consensus
    specification on one input vector.  [decisions] is reported even
    when termination fails ([terminated = false]): the decision set of
    the paths that did decide within the bound. *)
let check_consensus (p : Valency.protocol) ~inputs ~max_steps ?domains
    ?dedup ?por ?spill ?resume () =
  let decisions, terminated, stats =
    decisions_from ?domains ?dedup ?por ?spill ?resume p (root p ~inputs)
      ~max_steps
  in
  let agreement_violation =
    List.find_opt
      (fun d -> Array.exists (fun v -> not (Value.equal v d.(0))) d)
      decisions
  in
  let validity_violation =
    List.find_opt
      (fun d ->
        Array.exists
          (fun v -> not (Array.exists (fun input -> Value.equal v input) inputs))
          d)
      decisions
  in
  { decisions; agreement_violation; validity_violation; terminated; stats }

(* ------------------------------------------------------------------ *)
(* Valency tagging and critical configurations.                       *)
(* ------------------------------------------------------------------ *)

type valence =
  | Univalent of Value.t  (* all consensus decisions below equal this *)
  | Multivalent of Value.t list
  | Undetermined          (* a path below is cut: valence unknown *)

(** [valence p node ~max_steps] — for {e agreement-correct} protocols,
    the decision value set below [node] (process 0's decisions). *)
let valence p node ~max_steps =
  match decisions_from p node ~max_steps with
  | _, false, _ -> Undetermined
  | decisions, true, _ -> (
    match List.sort_uniq Value.compare (List.map (fun d -> d.(0)) decisions) with
    | [ v ] -> Univalent v
    | vs -> Multivalent vs)

type critical = {
  config : Valency.config;
  (* For each runnable process: the object its poised step accesses
     (None for a decision step) and the valence after it moves (first
     adversary branch). *)
  moves : (int option * valence) array;
}

(** [find_critical p ~inputs ~max_steps] — walk down from the root
    through the first multivalent child until reaching a configuration
    all of whose successors are univalent; [None] when the root is
    already univalent or valences are undetermined.  Each
    configuration's valence is searched at most once, and only when
    the walk needs it. *)
let find_critical (p : Valency.protocol) ~inputs ~max_steps =
  let valence node = lazy (valence p node ~max_steps) in
  let multivalent (_, v) =
    match Lazy.force v with Multivalent _ -> true | _ -> false
  in
  let rec descend ((node : node), v) =
    match Lazy.force v with
    | Univalent _ | Undetermined -> None
    | Multivalent _ -> (
      let c = node.config in
      let moves =
        List.map
          (fun i -> (i, List.map (fun n -> (n, valence n)) (step p node i)))
          (Valency.runnable c)
      in
      match List.find_opt multivalent (List.concat_map snd moves) with
      | Some child -> descend child
      | None ->
        (* Every successor is univalent (or undetermined): critical. *)
        let move (i, succs) =
          ( Valency.poised c i,
            match succs with (_, v) :: _ -> Lazy.force v | [] -> Undetermined )
        in
        Some { config = c; moves = Array.of_list (List.map move moves) })
  in
  let r = root p ~inputs in
  descend (r, valence r)

(** [commute_check p node i j ~max_steps] — Prop. 15's commutation
    argument, checked concretely: the decision sets after stepping
    i;j and j;i from [node] (every adversary branch), normalized.  A
    configuration with a path cut by the bound contributes nothing. *)
let commute_check p node i j ~max_steps =
  let after a b = List.concat_map (fun n -> step p n b) (step p node a) in
  let ds nodes =
    List.concat_map
      (fun n ->
        match decisions_from p n ~max_steps with
        | ds, true, _ -> ds
        | _, false, _ -> [])
      nodes
  in
  let norm ds = List.sort_uniq compare (List.map Array.to_list ds) in
  (norm (ds (after i j)), norm (ds (after j i)))
