(** Tests for the external-memory store (lib/store): CRC-32 known
    answers, segment write/probe round trips, the crash corners
    (truncated tails, torn manifests, checksum-corrupt blocks — all
    must fail loudly, never degrade silently), the two-phase
    checkpoint manifest protocol, the tiered visited set's dedup
    semantics against a model, and the cross-process persistence
    contract: a segment written by this process must answer identical
    probes from a freshly spawned one (fingerprints only — never
    [Hashtbl.hash] — may reach disk). *)

open Elin_store
module Fp = Elin_kernel.Fingerprint

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "elin-store-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* The deterministic record family shared with the probe child: pure
   functions of the index, so a separate process recomputes them
   bit-identically. *)
let fp_of i = Fp.finish (Fp.int (Fp.start ~seed:0x73746FL () ) i)
let payload_of fp = Int64.lognot fp

let records n =
  let l = List.init n (fun i -> fp_of i) in
  let l = List.sort_uniq Int64.unsigned_compare l in
  Array.of_list (List.map (fun fp -> (fp, payload_of fp)) l)

(* Overwrite [len] bytes at [off] with 0xDE. *)
let corrupt_bytes path ~off ~len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.make len '\xde' in
  let w = Unix.write fd b 0 len in
  assert (w = len);
  Unix.close fd

let truncate_by path n =
  let st = Unix.stat path in
  Unix.truncate path (st.Unix.st_size - n)

(* --- crc32 -------------------------------------------------------- *)

let crc32_known_answer () =
  (* The canonical IEEE CRC-32 check value. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l
    (Int32.of_int (Crc32.digest_string "123456789"));
  Alcotest.(check int) "empty" 0 (Crc32.digest_string "")

let crc32_incremental () =
  let s = "the quick brown fox" in
  let whole = Crc32.digest_string s in
  let split =
    let c = Crc32.update_string Crc32.start (String.sub s 0 7) in
    let c = Crc32.update_string c (String.sub s 7 (String.length s - 7)) in
    Crc32.finish c
  in
  Alcotest.(check int) "split = whole" whole split

(* --- segments ----------------------------------------------------- *)

let segment_roundtrip () =
  let dir = fresh_dir () in
  let rs = records 1000 in
  Segment.write ~dir ~name:"t.seg" rs;
  let r = Segment.open_reader ~dir ~name:"t.seg" in
  Alcotest.(check int) "length" (Array.length rs) (Segment.length r);
  Alcotest.(check string) "name" "t.seg" (Segment.name r);
  Array.iter
    (fun (fp, pl) ->
      match Segment.probe r fp with
      | Some v -> Alcotest.(check int64) "payload" pl v
      | None -> Alcotest.fail (Printf.sprintf "missing %s" (Fp.to_hex fp)))
    rs;
  for i = 2000 to 2020 do
    Alcotest.(check bool) "absent" true (Segment.probe r (fp_of i) = None)
  done;
  Alcotest.(check bool) "to_array" true (Segment.to_array r = rs);
  let st = Unix.stat (Filename.concat dir "t.seg") in
  Alcotest.(check int) "file_bytes" st.Unix.st_size (Segment.file_bytes r);
  Segment.close r

let segment_rejects_unsorted () =
  let dir = fresh_dir () in
  let bad = [| (2L, 0L); (1L, 0L) |] in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Segment.write: records not strictly ascending")
    (fun () -> Segment.write ~dir ~name:"bad.seg" bad);
  let dup = [| (1L, 0L); (1L, 0L) |] in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Segment.write: records not strictly ascending")
    (fun () -> Segment.write ~dir ~name:"bad.seg" dup)

(* Unsigned order: a fingerprint with the top bit set sorts last, not
   first — the probe binary searches would otherwise miss. *)
let segment_unsigned_order () =
  let dir = fresh_dir () in
  let rs = [| (1L, 10L); (Int64.min_int, 20L); (-1L, 30L) |] in
  Segment.write ~dir ~name:"u.seg" rs;
  let r = Segment.open_reader ~dir ~name:"u.seg" in
  Alcotest.(check bool) "1" true (Segment.probe r 1L = Some 10L);
  Alcotest.(check bool) "min_int" true
    (Segment.probe r Int64.min_int = Some 20L);
  Alcotest.(check bool) "-1" true (Segment.probe r (-1L) = Some 30L);
  Alcotest.(check bool) "0 absent" true (Segment.probe r 0L = None);
  Segment.close r

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Segment.Corrupt")
  | exception Segment.Corrupt _ -> ()

let segment_truncated_tail () =
  let dir = fresh_dir () in
  Segment.write ~dir ~name:"t.seg" (records 700);
  truncate_by (Filename.concat dir "t.seg") 5;
  expect_corrupt "open truncated" (fun () ->
      Segment.open_reader ~dir ~name:"t.seg")

(* Flip a record byte inside block 0 (records start after the 32-byte
   header region).  Header and index checksums still pass. *)
let corrupt_block_0 dir =
  corrupt_bytes (Filename.concat dir "t.seg") ~off:40 ~len:1

(* Damage done before the open fails the open itself: the Bloom filter
   is built from a CRC-verified read of every block. *)
let segment_corrupt_block () =
  let dir = fresh_dir () in
  Segment.write ~dir ~name:"t.seg" (records 700);
  corrupt_block_0 dir;
  expect_corrupt "open corrupt block" (fun () ->
      Segment.open_reader ~dir ~name:"t.seg")

(* Damage done after the open still fails loudly: a probe that loads
   the block checks its CRC again. *)
let segment_corrupt_block_after_open () =
  let dir = fresh_dir () in
  let rs = records 700 in
  Segment.write ~dir ~name:"t.seg" rs;
  let r = Segment.open_reader ~dir ~name:"t.seg" in
  corrupt_block_0 dir;
  expect_corrupt "probe corrupt block" (fun () ->
      (* A member of block 0: the smallest record. *)
      Segment.probe r (fst rs.(0)));
  Segment.close r

(* The Bloom filter never hides a member: empty and one-record
   segments, and either side of the 256-record block edge. *)
let segment_bloom_no_false_negatives () =
  let dir = fresh_dir () in
  List.iter
    (fun n ->
      let name = Printf.sprintf "n%d.seg" n in
      let rs = records n in
      Segment.write ~dir ~name rs;
      let r = Segment.open_reader ~dir ~name in
      Alcotest.(check int) (name ^ " length") n (Segment.length r);
      Array.iter
        (fun (fp, pl) ->
          Alcotest.(check (option int64)) (name ^ " member") (Some pl)
            (Segment.probe r fp))
        rs;
      Segment.close r)
    [ 0; 1; 255; 256; 257; 700 ]

(* Non-members rarely get past the filter: 10^5 probes of fingerprints
   outside the segment (the fixed-seed [fp_of] family) read a block
   under 0.25% of the time.  1 000 records take a 16 384-bit filter;
   7 probes at 16.4 bits per record give about 0.06%. *)
let segment_bloom_false_positives () =
  let dir = fresh_dir () in
  let n = 1000 and probes = 100_000 in
  Segment.write ~dir ~name:"fp.seg" (records n);
  let r = Segment.open_reader ~dir ~name:"fp.seg" in
  for i = n to n + probes - 1 do
    if Segment.probe r (fp_of i) <> None then
      Alcotest.failf "fp_of %d is not a member" i
  done;
  let reads = Segment.block_reads r in
  if reads * 400 >= probes then
    Alcotest.failf "%d block reads for %d non-member probes" reads probes;
  Segment.close r

let segment_corrupt_header () =
  let dir = fresh_dir () in
  Segment.write ~dir ~name:"t.seg" (records 100);
  corrupt_bytes (Filename.concat dir "t.seg") ~off:14 ~len:1;
  expect_corrupt "open corrupt header" (fun () ->
      Segment.open_reader ~dir ~name:"t.seg")

let segment_bad_magic () =
  let dir = fresh_dir () in
  Segment.write ~dir ~name:"t.seg" (records 100);
  corrupt_bytes (Filename.concat dir "t.seg") ~off:0 ~len:2;
  expect_corrupt "open bad magic" (fun () ->
      Segment.open_reader ~dir ~name:"t.seg")

(* --- checkpoint manifests ----------------------------------------- *)

let manifest ~seq ~level =
  {
    Checkpoint.seq;
    identity = "{\"test\":true}";
    engine = "sharded";
    dedup = true;
    shards = 2;
    writers = 2;
    level;
    totals =
      {
        Checkpoint.t_states = 100 * seq;
        t_hits = 7;
        t_kept = 90;
        t_aux = 3;
        t_peak = 40;
        t_leaves = 5;
        t_cut = 2;
      };
    per_writer =
      [|
        { Checkpoint.w_states = 60; w_hits = 4; w_kept = 50; w_leaves = 3; w_cut = 1 };
        { Checkpoint.w_states = 40; w_hits = 3; w_kept = 40; w_leaves = 2; w_cut = 1 };
      |];
    per_domain = [| 60; 40 |];
    visited_segments = [ "visited-s0-0.seg"; "visited-s1-0.seg" ];
    exe_digest = Checkpoint.exe_digest ();
  }

let checkpoint_roundtrip () =
  let dir = fresh_dir () in
  Alcotest.(check bool) "empty dir" true (Checkpoint.load_latest ~dir = None);
  Checkpoint.commit ~dir (manifest ~seq:1 ~level:2);
  Checkpoint.commit ~dir (manifest ~seq:2 ~level:4);
  match Checkpoint.load_latest ~dir with
  | None -> Alcotest.fail "no manifest"
  | Some m ->
    Alcotest.(check int) "seq" 2 m.Checkpoint.seq;
    Alcotest.(check int) "level" 4 m.Checkpoint.level;
    Alcotest.(check int) "t_states" 200 m.Checkpoint.totals.Checkpoint.t_states;
    Alcotest.(check int) "writers" 2 (Array.length m.Checkpoint.per_writer);
    Alcotest.(check bool) "segments" true
      (m.Checkpoint.visited_segments
      = [ "visited-s0-0.seg"; "visited-s1-0.seg" ])

(* A torn manifest write leaves only MANIFEST.<seq>.tmp — the old
   manifest must win, silently. *)
let checkpoint_torn_manifest_old_wins () =
  let dir = fresh_dir () in
  Checkpoint.commit ~dir (manifest ~seq:1 ~level:2);
  let oc = open_out (Filename.concat dir "MANIFEST.2.tmp") in
  output_string oc "torn garbage";
  close_out oc;
  (match Checkpoint.load_latest ~dir with
  | Some m -> Alcotest.(check int) "old wins" 1 m.Checkpoint.seq
  | None -> Alcotest.fail "expected manifest 1")

(* A committed-but-corrupt manifest is a loud error — resume must
   never fall back to an older checkpoint or recheck from scratch. *)
let checkpoint_corrupt_manifest_is_loud () =
  let dir = fresh_dir () in
  Checkpoint.commit ~dir (manifest ~seq:1 ~level:2);
  Checkpoint.commit ~dir (manifest ~seq:2 ~level:4);
  corrupt_bytes (Filename.concat dir "MANIFEST.2") ~off:20 ~len:2;
  expect_corrupt "corrupt committed manifest" (fun () ->
      Checkpoint.load_latest ~dir)

let checkpoint_truncated_manifest_is_loud () =
  let dir = fresh_dir () in
  Checkpoint.commit ~dir (manifest ~seq:1 ~level:2);
  truncate_by (Filename.concat dir "MANIFEST.1") 3;
  expect_corrupt "truncated manifest" (fun () -> Checkpoint.load_latest ~dir)

(* Two manifests retained; committing seq prunes seq - 2 and its
   checkpoint artefacts (never visited segments). *)
let checkpoint_prunes_old () =
  let dir = fresh_dir () in
  Checkpoint.write_blob ~dir
    ~name:(Checkpoint.frontier_blob ~seq:1 ~writer:0)
    "blob1";
  Segment.write ~dir ~name:"visited-s0-0.seg" [| (1L, 0L) |];
  Checkpoint.commit ~dir (manifest ~seq:1 ~level:2);
  Checkpoint.commit ~dir (manifest ~seq:2 ~level:4);
  Checkpoint.commit ~dir (manifest ~seq:3 ~level:6);
  Alcotest.(check bool) "manifest 1 pruned" false
    (Sys.file_exists (Filename.concat dir "MANIFEST.1"));
  Alcotest.(check bool) "ckpt1 blob pruned" false
    (Sys.file_exists
       (Filename.concat dir (Checkpoint.frontier_blob ~seq:1 ~writer:0)));
  Alcotest.(check bool) "manifest 2 kept" true
    (Sys.file_exists (Filename.concat dir "MANIFEST.2"));
  Alcotest.(check bool) "visited segments never pruned" true
    (Sys.file_exists (Filename.concat dir "visited-s0-0.seg"))

let blob_roundtrip_and_corruption () =
  let dir = fresh_dir () in
  let data = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  Checkpoint.write_blob ~dir ~name:"x.blob" data;
  Alcotest.(check string) "roundtrip" data
    (Checkpoint.read_blob ~dir ~name:"x.blob");
  expect_corrupt "missing blob" (fun () ->
      Checkpoint.read_blob ~dir ~name:"absent.blob");
  truncate_by (Filename.concat dir "x.blob") 4;
  expect_corrupt "truncated blob" (fun () ->
      Checkpoint.read_blob ~dir ~name:"x.blob");
  Checkpoint.write_blob ~dir ~name:"y.blob" data;
  corrupt_bytes (Filename.concat dir "y.blob") ~off:100 ~len:1;
  expect_corrupt "corrupt blob" (fun () ->
      Checkpoint.read_blob ~dir ~name:"y.blob")

(* --- tiered set --------------------------------------------------- *)

(* Single-domain shortcuts over the owner-discipline entry points: one
   caller owns every shard. *)
let add t fp = Tiered_set.add_owned t ~shard:(Tiered_set.owner t fp) fp
let mem t fp = Tiered_set.mem_owned t ~shard:(Tiered_set.owner t fp) fp

let flush t =
  for shard = 0 to Tiered_set.shards t - 1 do
    Tiered_set.flush_shard t shard
  done

(* Dedup semantics against a model Hashtbl, through repeated spills
   (tiny hot capacity) and re-adds of known members. *)
let tiered_matches_model () =
  let dir = fresh_dir () in
  let t = Tiered_set.create ~dir ~shards:4 ~hot_capacity:16 () in
  let model = Hashtbl.create 512 in
  let adds = List.init 600 (fun i -> fp_of (i mod 400)) in
  List.iter
    (fun fp ->
      let fresh_model = not (Hashtbl.mem model fp) in
      if fresh_model then Hashtbl.replace model fp ();
      let fresh = add t fp in
      Alcotest.(check bool) "add agrees with model" fresh_model fresh)
    adds;
  Hashtbl.iter
    (fun fp () -> Alcotest.(check bool) "member" true (mem t fp))
    model;
  for i = 1000 to 1050 do
    Alcotest.(check bool) "non-member" false (mem t (fp_of i))
  done;
  Alcotest.(check int) "cardinal" (Hashtbl.length model)
    (Tiered_set.cardinal t);
  let s = Tiered_set.stats t in
  Alcotest.(check bool) "spilled > 0" true (s.Tiered_set.spilled > 0);
  Alcotest.(check int) "spilled + hot = cardinal" (Hashtbl.length model)
    (s.Tiered_set.spilled + s.Tiered_set.hot);
  Tiered_set.close t

let tiered_owned_entry_points () =
  let dir = fresh_dir () in
  let t = Tiered_set.create ~dir ~shards:2 ~hot_capacity:8 () in
  for i = 0 to 100 do
    let fp = fp_of i in
    let shard = Tiered_set.owner t fp in
    Alcotest.(check bool) "fresh" true (Tiered_set.add_owned t ~shard fp);
    Alcotest.(check bool) "dup" false (Tiered_set.add_owned t ~shard fp);
    Alcotest.(check bool) "mem" true (Tiered_set.mem_owned t ~shard fp)
  done;
  (match Tiered_set.add_owned t ~shard:0 (fp_of 5000) with
  | exception Invalid_argument _ ->
    if Tiered_set.owner t (fp_of 5000) = 0 then
      Alcotest.fail "spurious wrong-shard rejection"
  | _ ->
    if Tiered_set.owner t (fp_of 5000) <> 0 then
      Alcotest.fail "wrong-shard add not rejected");
  Tiered_set.close t

(* flush + open_existing round trip: the reopened set sees every
   spilled member, continues sequence numbers, and stays disjoint. *)
let tiered_reopen_from_segments () =
  let dir = fresh_dir () in
  let t = Tiered_set.create ~dir ~shards:2 ~hot_capacity:32 () in
  for i = 0 to 199 do
    ignore (add t (fp_of i))
  done;
  flush t;
  let names = Tiered_set.segment_names t in
  let spilled = (Tiered_set.stats t).Tiered_set.spilled in
  Tiered_set.close t;
  Alcotest.(check int) "all spilled after flush" 200 spilled;
  let t2 =
    Tiered_set.open_existing ~dir ~shards:2 ~hot_capacity:32 ~segments:names ()
  in
  for i = 0 to 199 do
    Alcotest.(check bool) "reopened member" true (mem t2 (fp_of i))
  done;
  (* Every [mem] above missed the empty hot tiers: one disk probe
     each, however many segments it visited. *)
  Alcotest.(check int) "disk_probes counts probes, not segments" 200
    (Tiered_set.stats t2).Tiered_set.disk_probes;
  for i = 0 to 199 do
    Alcotest.(check bool) "re-add is dup" false (add t2 (fp_of i))
  done;
  (* New inserts spill under fresh sequence numbers, clashing with
     nothing. *)
  for i = 200 to 299 do
    Alcotest.(check bool) "new insert" true (add t2 (fp_of i))
  done;
  flush t2;
  let names2 = Tiered_set.segment_names t2 in
  Alcotest.(check bool) "segment inventory grew" true
    (List.length names2 > List.length names);
  Alcotest.(check bool) "old names retained" true
    (List.for_all (fun n -> List.mem n names2) names);
  Tiered_set.close t2

let tiered_reopen_corrupt_segment_is_loud () =
  let dir = fresh_dir () in
  let t = Tiered_set.create ~dir ~shards:2 ~hot_capacity:16 () in
  for i = 0 to 99 do
    ignore (add t (fp_of i))
  done;
  flush t;
  let names = Tiered_set.segment_names t in
  Tiered_set.close t;
  truncate_by (Filename.concat dir (List.hd names)) 5;
  expect_corrupt "open_existing over truncated segment" (fun () ->
      Tiered_set.open_existing ~dir ~shards:2 ~hot_capacity:16 ~segments:names
        ())

(* Deterministic spill shape: the same insertion sequence yields the
   same segment names and byte counts, run to run. *)
let tiered_flush_cadence_deterministic () =
  let shape dir =
    let t = Tiered_set.create ~dir ~shards:2 ~hot_capacity:16 () in
    for i = 0 to 499 do
      ignore (add t (fp_of i))
    done;
    let s = Tiered_set.stats t in
    let names = Tiered_set.segment_names t in
    Tiered_set.close t;
    (names, s.Tiered_set.segments, s.Tiered_set.disk_bytes,
     s.Tiered_set.spilled, s.Tiered_set.flushes)
  in
  let a = shape (fresh_dir ()) and b = shape (fresh_dir ()) in
  Alcotest.(check bool) "identical spill shape" true (a = b)

(* A cold miss allocates nothing: the filter hash is computed once per
   probe, each segment's filter is tested in a closure-free loop, and
   the probe span is built only when tracing is on.  100 000 misses
   over 11 sealed 1 024-record segments stay under 4 minor words per
   probe (dev profile); a closure and a boxed hash per segment visited
   read about 171. *)
let tiered_cold_miss_allocation () =
  let dir = fresh_dir () in
  let t = Tiered_set.create ~dir ~shards:1 ~hot_capacity:1024 () in
  let members = 11 * 1024 in
  for i = 0 to members - 1 do
    ignore (Tiered_set.add_owned t ~shard:0 (fp_of i))
  done;
  let n = 100_000 in
  let probes = Array.init n (fun i -> fp_of (members + i)) in
  let probes0 = (Tiered_set.stats t).Tiered_set.disk_probes in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    if Tiered_set.mem_owned t ~shard:0 probes.(i) then incr hits
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  let s = Tiered_set.stats t in
  Tiered_set.close t;
  Alcotest.(check int) "segments" 11 s.Tiered_set.segments;
  Alcotest.(check int) "hot tier empty" 0 s.Tiered_set.hot;
  Alcotest.(check int) "every probe a miss" 0 !hits;
  Alcotest.(check int) "every probe reached the segments" n
    (s.Tiered_set.disk_probes - probes0);
  if words >= 4. then Alcotest.failf "%.1f minor words per cold miss" words

(* --- cross-process persistence contract --------------------------- *)

(* Child side: re-derive the record family from the indices alone and
   interrogate the parent's segment.  Runs in a fresh process, so any
   in-process-only hash leaking into the format breaks it. *)
let child_sentinel = "--segment-probe-child"

let run_probe_child dir name n =
  let ok = ref true in
  let check b = if not b then ok := false in
  (try
     let r = Segment.open_reader ~dir ~name in
     check (Segment.length r = n);
     for i = 0 to n - 1 do
       let fp = fp_of i in
       check (Segment.probe r fp = Some (payload_of fp))
     done;
     for i = n to n + 20 do
       check (Segment.probe r (fp_of i) = None)
     done;
     Segment.close r
   with _ -> ok := false);
  exit (if !ok then 0 else 1)

let cross_process_probe () =
  let dir = fresh_dir () in
  let n = 1000 in
  let rs = records n in
  Alcotest.(check int) "no collisions in family" n (Array.length rs);
  Segment.write ~dir ~name:"xproc.seg" rs;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; child_sentinel; dir; "xproc.seg";
         string_of_int n |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c ->
    Alcotest.fail (Printf.sprintf "probe child exited %d" c)
  | _ -> Alcotest.fail "probe child killed"

(* The first CRC of a process, forced from several domains at once
   (shards sealing their first segments concurrently).  Only a fresh
   process has a first CRC, so each round is a child process: its
   domains meet at a spin barrier, then all digest the known-answer
   input, and the child exits 0 iff every digest is right. *)
let crc_race_sentinel = "--crc-race-child"

let run_crc_race_child () =
  let n = 4 in
  let ready = Atomic.make 0 in
  let digest () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    try Crc32.digest_string "123456789" = 0xCBF43926 with _ -> false
  in
  let others = List.init (n - 1) (fun _ -> Domain.spawn digest) in
  let mine = digest () in
  exit (if List.for_all Domain.join others && mine then 0 else 1)

let crc32_first_use_racing () =
  for round = 1 to 64 do
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; crc_race_sentinel |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c ->
      Alcotest.failf "round %d: racing first CRC child exited %d" round c
    | _ -> Alcotest.failf "round %d: racing first CRC child killed" round
  done

let () =
  (match Array.to_list Sys.argv with
  | _ :: s :: dir :: name :: n :: _ when s = child_sentinel ->
    run_probe_child dir name (int_of_string n)
  | [ _; s ] when s = crc_race_sentinel -> run_crc_race_child ()
  | _ -> ());
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick crc32_known_answer;
          Alcotest.test_case "incremental" `Quick crc32_incremental;
          Alcotest.test_case "first use from racing domains" `Quick
            crc32_first_use_racing;
        ] );
      ( "segment",
        [
          Alcotest.test_case "roundtrip" `Quick segment_roundtrip;
          Alcotest.test_case "rejects unsorted" `Quick segment_rejects_unsorted;
          Alcotest.test_case "unsigned order" `Quick segment_unsigned_order;
          Alcotest.test_case "truncated tail" `Quick segment_truncated_tail;
          Alcotest.test_case "corrupt block" `Quick segment_corrupt_block;
          Alcotest.test_case "corrupt block after open" `Quick
            segment_corrupt_block_after_open;
          Alcotest.test_case "corrupt header" `Quick segment_corrupt_header;
          Alcotest.test_case "bad magic" `Quick segment_bad_magic;
          Alcotest.test_case "bloom: no false negatives" `Quick
            segment_bloom_no_false_negatives;
          Alcotest.test_case "bloom: false positives under 0.25%" `Quick
            segment_bloom_false_positives;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick checkpoint_roundtrip;
          Alcotest.test_case "torn manifest: old wins" `Quick
            checkpoint_torn_manifest_old_wins;
          Alcotest.test_case "corrupt manifest is loud" `Quick
            checkpoint_corrupt_manifest_is_loud;
          Alcotest.test_case "truncated manifest is loud" `Quick
            checkpoint_truncated_manifest_is_loud;
          Alcotest.test_case "prunes seq-2" `Quick checkpoint_prunes_old;
          Alcotest.test_case "blob roundtrip + corruption" `Quick
            blob_roundtrip_and_corruption;
        ] );
      ( "tiered",
        [
          Alcotest.test_case "matches model" `Quick tiered_matches_model;
          Alcotest.test_case "owned entry points" `Quick
            tiered_owned_entry_points;
          Alcotest.test_case "reopen from segments" `Quick
            tiered_reopen_from_segments;
          Alcotest.test_case "reopen corrupt segment is loud" `Quick
            tiered_reopen_corrupt_segment_is_loud;
          Alcotest.test_case "deterministic flush cadence" `Quick
            tiered_flush_cadence_deterministic;
          Alcotest.test_case "cold miss allocation" `Quick
            tiered_cold_miss_allocation;
        ] );
      ( "cross-process",
        [ Alcotest.test_case "segment probe" `Quick cross_process_probe ] );
    ]
