(** Differential stress suite for the parallel search (EXPERIMENTS.md
    gate; [make mc-stress]).

    Generates seeded random bounded state spaces — small per-level id
    ranges force genuine cross-path duplicates — and runs each through
    {!Search.bfs} at several domain counts, asserting verdict lists and
    stats bit-identical to a naive sequential reference BFS written
    out below (one hash table, no domains, no routing).  The reference
    keeps a global visited set on purpose: [Search.bfs] dedups each
    level against itself only, and these spaces are level-stratified
    (the fingerprint covers the depth), so equal results show that
    per-level dedup equals global dedup on them.  Two space
    flavours:

    - {b plain}: the fingerprint covers the whole state, dedup is
      first-wins (any copy is the same state);
    - {b merge}: the fingerprint covers only [(depth, id)] while a
      [meta] bitmask rides along and duplicates are resolved by
      intersection at the level boundary — the [merge] path POR
      depends on.  [meta] feeds the leaf verdicts, so a merge applied
      in the wrong place or order shows up as a verdict diff, not just
      a count diff.

    Every space also runs a second time with one reached state's
    fingerprint replaced by [0L] — the word the level tables use for
    an empty slot — so the search must keep [0L] as an ordinary member
    in every mode.

    Runs standalone under [dune runtest] (3 quick repeats) and as
    [test_mc_stress.exe --repeat N --domains 1,2,4 --seed S] from the
    Makefile. *)

module Prng = Elin_kernel.Prng
module Fp = Elin_kernel.Fingerprint
module Search = Elin_mc.Search

type state = { depth : int; id : int; meta : int }

(* Deterministic per-space hash: everything about the space's shape is
   a pure function of (space seed, depth, id). *)
let h ~seed ~depth ~id k =
  Int64.to_int
    (Int64.shift_right_logical
       (Fp.finish (Fp.int (Fp.int (Fp.int (Fp.start ~seed ()) depth) id) k))
       2)

type space = {
  seed : int64;
  max_depth : int;
  width : int;      (* ids per level: small => many duplicate states *)
  branching : int;  (* max children per state *)
  leaf_pct : int;   (* chance an interior state is a leaf, in % *)
}

let random_space rng =
  {
    seed = Int64.of_int (Prng.int rng 0x3FFFFFFF);
    max_depth = 8 + Prng.int rng 7;
    width = 40 + Prng.int rng 120;
    branching = 2 + Prng.int rng 4;
    leaf_pct = 5 + Prng.int rng 15;
  }

(* Children ids depend only on (depth, id); the child meta narrows the
   parent's (so merged metas stay merged down the tree). *)
let expand sp s =
  if s.depth >= sp.max_depth then Search.Cut (Some (s.depth, s.id, s.meta))
  else if h ~seed:sp.seed ~depth:s.depth ~id:s.id 0 mod 100 < sp.leaf_pct then
    Search.Leaf (Some (s.depth, s.id, s.meta))
  else begin
    let n = 1 + (h ~seed:sp.seed ~depth:s.depth ~id:s.id 1 mod sp.branching) in
    Search.Children
      (List.init n (fun k ->
           let hv = h ~seed:sp.seed ~depth:s.depth ~id:s.id (2 + k) in
           {
             depth = s.depth + 1;
             id = hv mod sp.width;
             meta = s.meta land lnot (1 lsl (hv mod 16));
           }))
  end

let fp_full sp s =
  Fp.finish
    (Fp.int (Fp.int (Fp.int (Fp.start ~seed:sp.seed ()) s.depth) s.id) s.meta)

let fp_shape sp s =
  Fp.finish (Fp.int (Fp.int (Fp.start ~seed:sp.seed ()) s.depth) s.id)

let merge_meta a b = { a with meta = a.meta land b.meta }

let root = { depth = 0; id = 0; meta = 0xFFFF }

let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

let check_equal ~what ~cfg (v0, (s0 : Search.stats)) (v1, (s1 : Search.stats))
    =
  if v0 <> v1 then
    fail "%s: verdict lists differ (%d vs %d verdicts) [%s]" what
      (List.length v0) (List.length v1) cfg;
  let field name a b =
    if a <> b then fail "%s: %s differs (%d vs %d) [%s]" what name a b cfg
  in
  field "states" s0.Search.states s1.Search.states;
  field "dedup_hits" s0.Search.dedup_hits s1.Search.dedup_hits;
  field "kept" s0.Search.kept s1.Search.kept;
  field "leaves" s0.Search.leaves s1.Search.leaves;
  field "cut" s0.Search.cut s1.Search.cut;
  field "levels" s0.Search.levels s1.Search.levels;
  field "frontier_peak" s0.Search.frontier_peak s1.Search.frontier_peak

(* The fingerprint a zero-key variant replaces by [0L]: of the
   fingerprints of levels 1-5, the one that arrives most often (the
   smallest on ties), so the search meets [0L] as a duplicate as well
   as a fresh state.  A pure function of the space, so the space stream
   of the other variants is unchanged. *)
let zero_target sp fingerprint =
  let arrivals = Hashtbl.create 256 in
  let rec level d states =
    if d <= 5 && states <> [] then begin
      let next =
        List.concat_map
          (fun s -> match expand sp s with Search.Children cs -> cs | _ -> [])
          states
      in
      List.iter
        (fun c ->
          let f = fingerprint c in
          Hashtbl.replace arrivals f
            (1 + Option.value ~default:0 (Hashtbl.find_opt arrivals f)))
        next;
      level (d + 1) (List.sort_uniq Stdlib.compare next)
    end
  in
  level 1 [ root ];
  Hashtbl.fold
    (fun f n (bf, bn) ->
      if n > bn || (n = bn && Int64.compare f bf < 0) then (f, n) else (bf, bn))
    arrivals (fingerprint root, 0)
  |> fst

(* Under [zero], every state fingerprinted [zero_target] gets [0L]
   instead. *)
let space_fns sp ~merge ~zero =
  let fingerprint, merge_fn =
    if merge then (fp_shape sp, Some merge_meta) else (fp_full sp, None)
  in
  if not zero then (fingerprint, merge_fn)
  else
    let z = zero_target sp fingerprint in
    let fp s = if Int64.equal (fingerprint s) z then 0L else fingerprint s in
    (fp, merge_fn)

let run_one sp ~domains ~dedup ~merge ~zero =
  let fingerprint, merge_fn = space_fns sp ~merge ~zero in
  Search.bfs ~domains ~dedup ~stop_early:false ?merge:merge_fn ~fingerprint
    ~expand:(expand sp) ~compare:Stdlib.compare root

(* The oracle: level-by-level BFS over lists.  A level's successors are
   deduplicated against every earlier level and against each other;
   under [merge] a duplicate folds its meta into the surviving copy.
   Only the fields [check_equal] compares are filled in. *)
let reference_bfs sp ~dedup ~merge ~zero =
  let fingerprint, merge_fn = space_fns sp ~merge ~zero in
  let visited = Hashtbl.create 1024 in
  let states = ref 0 and hits = ref 0 and kept = ref 0 and peak = ref 0 in
  let leaves = ref 0 and cut = ref 0 and levels = ref 0 and found = ref [] in
  let terminal ~is_cut v =
    incr leaves;
    if is_cut then incr cut;
    Option.iter (fun v -> found := v :: !found) v
  in
  if dedup then Hashtbl.replace visited (fingerprint root) ();
  let frontier = ref [ root ] in
  while !frontier <> [] do
    peak := max !peak (List.length !frontier);
    incr levels;
    let level = Hashtbl.create 64 and next = ref [] in
    List.iter
      (fun s ->
        incr states;
        match expand sp s with
        | Search.Leaf v -> terminal ~is_cut:false v
        | Search.Cut v -> terminal ~is_cut:true v
        | Search.Children cs ->
          List.iter
            (fun c ->
              let fp = fingerprint c in
              if not dedup then next := c :: !next
              else if Hashtbl.mem visited fp then incr hits
              else
                match Hashtbl.find_opt level fp, merge_fn with
                | None, _ ->
                  Hashtbl.replace level fp c;
                  next := c :: !next
                | Some c0, Some m ->
                  incr hits;
                  Hashtbl.replace level fp (m c0 c)
                | Some _, None -> incr hits)
            cs)
      !frontier;
    let next =
      if dedup then List.map (fun c -> Hashtbl.find level (fingerprint c)) !next
      else !next
    in
    Hashtbl.iter (fun fp _ -> Hashtbl.replace visited fp ()) level;
    kept := !kept + List.length next;
    frontier := next
  done;
  ( List.sort_uniq Stdlib.compare !found,
    { Search.states = !states; dedup_hits = !hits; kept = !kept; pruned = 0;
      frontier_peak = !peak; leaves = !leaves; cut = !cut; levels = !levels;
      per_domain = [| !states |]; domains = 1; wall = 0. } )

let stress ~repeat ~domain_counts ~seed =
  let rng = Prng.create seed in
  let total = ref 0 in
  for r = 1 to repeat do
    let sp = random_space rng in
    (* (dedup, merge): plain tree, plain dedup, and the Tag/merge path;
       each as is and with a zero fingerprint. *)
    List.iter
      (fun ((dedup, merge), zero) ->
        let reference = reference_bfs sp ~dedup ~merge ~zero in
        total := !total + (snd reference).Search.states;
        List.iter
          (fun domains ->
            let cfg =
              Printf.sprintf
                "repeat=%d seed=0x%Lx domains=%d dedup=%b merge=%b zero=%b" r
                sp.seed domains dedup merge zero
            in
            check_equal ~what:"search vs reference BFS" ~cfg reference
              (run_one sp ~domains ~dedup ~merge ~zero))
          domain_counts)
      (List.concat_map
         (fun mode -> [ (mode, false); (mode, true) ])
         [ (false, false); (true, false); (true, true) ])
  done;
  !total

let () =
  let repeat = ref 3 and domains = ref [ 1; 2; 4 ] and seed = ref 0x5eed in
  let rec parse = function
    | [] -> ()
    | "--repeat" :: n :: rest ->
      repeat := int_of_string n;
      parse rest
    | "--domains" :: ds :: rest ->
      domains := List.map int_of_string (String.split_on_char ',' ds);
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string s;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: test_mc_stress [--repeat N] [--domains 1,2,4] [--seed S]\n\
         unknown argument %S\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match stress ~repeat:!repeat ~domain_counts:!domains ~seed:!seed with
  | total ->
    Printf.printf
      "mc-stress: OK — %d repeats x {tree, dedup, merge} x {as is, one \
       state fingerprinted 0L} x domains [%s] agree with the reference BFS \
       (%d reference states)\n"
      !repeat
      (String.concat "; " (List.map string_of_int !domains))
      total
  | exception Failure msg ->
    Printf.eprintf "mc-stress: FAILED\n%s\n" msg;
    exit 1
