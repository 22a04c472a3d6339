(** The model checker, specialized to the valency analysis's protocol
    configurations (the E9 workload).

    [Valency.decision_set] is a sequential DFS that re-visits
    syntactically identical configurations: protocol steps on
    different base objects commute, so the interleaving tree collapses
    heavily under state dedup — exactly the state space where
    fingerprinting pays.  This module runs the same exhaustive
    semantics ([Valency.step] on every runnable process, every
    adversary branch) through {!Search}'s parallel BFS and reports the
    decision-vector set, the consensus verdicts, and the exploration
    stats.

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

type report = {
  decisions : Value.t array list;  (* sorted, duplicate-free *)
  agreement_violation : Value.t array option;
  validity_violation : Value.t array option;
  terminated : bool;
  stats : Search.stats;
}

(** [check_consensus p ~inputs ~max_steps ()] — the
    [Valency.check_consensus] verdicts, computed by the parallel
    dedup'd engine.  Unlike the DFS original, [decisions] is still
    reported when termination fails ([terminated = false]): the
    decision set of the paths that did decide within the bound. *)
let check_consensus (p : Valency.protocol) ~inputs ~max_steps ?domains
    ?dedup ?(por = true) ?spill:msp ?resume () =
  let por = por && Array.length inputs <= 62 in
  let dedup_on = match dedup with Some b -> b | None -> true in
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
  let merge = if por && dedup_on then Some merge_sleep else None in
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
    Search.bfs ?domains ?dedup ~stop_early:false ?merge ?spill:sp
      ?resume ~fingerprint ~expand
      ~compare:compare_leaf (root p ~inputs)
  in
  (match msp, sp with
  | Some m, Some s ->
    m.Mc.store <- s.Search.sp_store;
    m.Mc.resumed_from <- s.Search.sp_resumed
  | _ -> ());
  let stats = { stats with Search.pruned = Atomic.get pruned } in
  let decisions =
    List.filter_map (function Decision d -> Some d | Truncated -> None) leaves
  in
  let terminated = not (List.mem Truncated leaves) in
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
