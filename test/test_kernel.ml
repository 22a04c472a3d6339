(** Unit and property tests for the kernel substrate: PRNG, bitsets,
    greedy interval matching. *)

open Elin_kernel
open Elin_test_support

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let prng_bounds =
  Support.qtest "int stays in bounds" QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      0 <= v && v < bound)

let prng_split () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check bool) "split streams independent-ish" true (xs <> ys)

let prng_shuffle_permutes =
  Support.seeded_prop "shuffle permutes" (fun rng ->
      let xs = List.init 30 (fun i -> i) in
      let ys = Prng.shuffle rng xs in
      List.sort compare ys = xs)

let prng_choose_member =
  Support.seeded_prop "choose returns member" (fun rng ->
      let xs = [ 3; 1; 4; 1; 5; 9 ] in
      List.mem (Prng.choose rng xs) xs)

let prng_float_unit =
  Support.seeded_prop "float in [0,1)" (fun rng ->
      let f = Prng.float rng in
      0.0 <= f && f < 1.0)

(* --- Bitset --- *)

let bitset_empty () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty b);
  for i = 0 to 99 do
    Alcotest.(check bool) "not mem" false (Bitset.mem b i)
  done

let bitset_add_mem () =
  let b = Bitset.create 130 in
  List.iter (Bitset.set b) [ 0; 61; 62; 129 ];
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Bitset.mem b i))
    [ 0; 61; 62; 129 ];
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check bool) "not mem 63" false (Bitset.mem b 63);
  Alcotest.(check int) "words" 3 (Bitset.word_count b)

(* Setting a member again changes nothing; one clear removes it. *)
let bitset_add_idempotent () =
  let b = Bitset.create 10 in
  Bitset.set b 3;
  Bitset.set b 3;
  Alcotest.(check (list int)) "set twice" [ 3 ] (Bitset.to_list b);
  Bitset.clear b 3;
  Alcotest.(check bool) "one clear" true (Bitset.is_empty b)

let bitset_remove () =
  let b = Bitset.of_list 70 [ 1; 65; 3 ] in
  Bitset.clear b 65;
  Alcotest.(check bool) "removed" false (Bitset.mem b 65);
  Alcotest.(check (list int)) "rest" [ 1; 3 ] (Bitset.to_list b);
  Bitset.clear b 65;
  Alcotest.(check (list int)) "clear absent" [ 1; 3 ] (Bitset.to_list b)

(* The DFS's use: set on placement, clear on backtrack, and the set
   and its words are back where they started. *)
let bitset_set_clear_in_place =
  Support.seeded_prop "set/clear in place" (fun rng ->
      let width = 1 + Prng.int rng 200 in
      let b =
        Bitset.of_list width (List.init 10 (fun _ -> Prng.int rng width))
      in
      let before = Bitset.to_list b in
      let words = List.init (Bitset.word_count b) (Bitset.word b) in
      let path =
        List.filter (fun i -> not (Bitset.mem b i))
          (List.init 10 (fun _ -> Prng.int rng width))
        |> List.sort_uniq compare
      in
      List.iter (Bitset.set b) path;
      let all_set = List.for_all (Bitset.mem b) path in
      List.iter (Bitset.clear b) (List.rev path);
      all_set
      && Bitset.to_list b = before
      && List.init (Bitset.word_count b) (Bitset.word b) = words)

let bitset_equal_hash =
  Support.seeded_prop "equal sets hash equal" (fun rng ->
      let xs = List.init 20 (fun _ -> Prng.int rng 90) in
      let a = Bitset.of_list 90 xs in
      let b = Bitset.of_list 90 (List.rev xs) in
      Bitset.equal a b && Bitset.hash a = Bitset.hash b)

let bitset_roundtrip =
  Support.seeded_prop "of_list/to_list roundtrip" (fun rng ->
      let xs = List.sort_uniq compare (List.init 15 (fun _ -> Prng.int rng 200)) in
      Bitset.to_list (Bitset.of_list 200 xs) = xs)

let bitset_full () =
  let b = Bitset.of_list 5 [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "is_full" true (Bitset.is_full b);
  Bitset.clear b 2;
  Alcotest.(check bool) "not full" false (Bitset.is_full b)

let bitset_out_of_range () =
  Alcotest.check_raises "mem out of width"
    (Invalid_argument "Bitset: index 10 out of width 10") (fun () ->
      ignore (Bitset.mem (Bitset.create 10) 10));
  Alcotest.check_raises "set out of width"
    (Invalid_argument "Bitset: index -1 out of width 10") (fun () ->
      Bitset.set (Bitset.create 10) (-1))

(* --- Fingerprint --- *)

(* Zero/empty inputs must digest deterministically and stay told
   apart: absorbing nothing, a zero of each width, and an empty
   string/sequence are all distinct encodings. *)
let fingerprint_zero_empty () =
  let fp f = Fingerprint.finish (f (Fingerprint.start ())) in
  let nothing = fp Fun.id in
  Alcotest.(check bool) "empty digest deterministic" true
    (Fingerprint.equal nothing (fp Fun.id));
  let distinct =
    [
      ("nothing", nothing);
      ("byte 0", fp (fun a -> Fingerprint.byte a 0));
      ("int 0", fp (fun a -> Fingerprint.int a 0));
      ("string \"\\000\"", fp (fun a -> Fingerprint.string a "\000"));
      ("string \"\\000...\"", fp (fun a -> Fingerprint.string a "\000\000"));
    ]
  in
  List.iteri
    (fun i (ni, di) ->
      List.iteri
        (fun j (nj, dj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s <> %s" ni nj)
              false (Fingerprint.equal di dj))
        distinct)
    distinct;
  (* The absorbers are an untyped byte stream (callers tag their
     encodings): [bool b] is literally [byte (if b then 1 else 0)],
     [int n] is [int64 (of_int n)], and an empty sequence — string,
     list, flat array — is exactly its absorbed 0-length prefix. *)
  let equal_classes =
    [
      ( "bool false = byte 0",
        fp (fun a -> Fingerprint.bool a false),
        fp (fun a -> Fingerprint.byte a 0) );
      ( "int 0 = int64 0",
        fp (fun a -> Fingerprint.int a 0),
        fp (fun a -> Fingerprint.int64 a 0L) );
      ( "empty string = int 0",
        fp (fun a -> Fingerprint.string a ""),
        fp (fun a -> Fingerprint.int a 0) );
      ( "empty list = int 0",
        fp (fun a -> Fingerprint.list Fingerprint.int a []),
        fp (fun a -> Fingerprint.int a 0) );
      ( "empty int_array = empty list",
        fp (fun a -> Fingerprint.int_array a [||]),
        fp (fun a -> Fingerprint.list Fingerprint.int a []) );
      ( "empty int64_array = empty list",
        fp (fun a -> Fingerprint.int64_array a [||]),
        fp (fun a -> Fingerprint.list Fingerprint.int a []) );
    ]
  in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) name true (Fingerprint.equal a b))
    equal_classes;
  Alcotest.(check bool) "bool true <> bool false" false
    (Fingerprint.equal
       (fp (fun a -> Fingerprint.bool a true))
       (fp (fun a -> Fingerprint.bool a false)))

(* The flat-array absorbers are drop-in replacements for the closure
   folds they optimize. *)
let fingerprint_flat_absorbers =
  Support.seeded_prop "flat absorbers match folds" (fun rng ->
      let n = Prng.int rng 30 in
      let xs = Array.init n (fun _ -> Prng.int rng 1_000_000) in
      let ys = Array.map Int64.of_int xs in
      let fp f = Fingerprint.finish (f (Fingerprint.start ())) in
      Fingerprint.equal
        (fp (fun a -> Fingerprint.int_array a xs))
        (fp (fun a -> Fingerprint.array Fingerprint.int a xs))
      && Fingerprint.equal
           (fp (fun a -> Fingerprint.int64_array a ys))
           (fp (fun a -> Fingerprint.array Fingerprint.int64 a ys)))

(* Distinct seeds give distinct digest families; the same seed
   reproduces bit-identical digests. *)
let fingerprint_seeding () =
  let fp seed i =
    Fingerprint.finish (Fingerprint.int (Fingerprint.start ~seed ()) i)
  in
  for i = 0 to 99 do
    Alcotest.(check bool) "same seed reproduces" true
      (Fingerprint.equal (fp 0xabcdL i) (fp 0xabcdL i));
    Alcotest.(check bool) "distinct seeds differ" false
      (Fingerprint.equal (fp 0xabcdL i) (fp 0x1234L i))
  done

(* Seeded-collision smoke: 10^5 distinct short encodings, digested
   under two independent seeds — any same-family collision at this
   scale (expected ~ 3x10^-10) is a bug, and no pair may collide
   under both families at once. *)
let fingerprint_collision_smoke () =
  let n = 100_000 in
  let family seed =
    let tbl = Hashtbl.create (2 * n) in
    for i = 0 to n - 1 do
      let acc = Fingerprint.start ~seed () in
      let acc = Fingerprint.int (Fingerprint.byte acc (i land 0xff)) i in
      let d = Fingerprint.finish (Fingerprint.string acc (string_of_int i)) in
      (match Hashtbl.find_opt tbl d with
      | Some j ->
        Alcotest.failf "seed %Lx: encodings %d and %d collide on %s" seed j i
          (Fingerprint.to_hex d)
      | None -> ());
      Hashtbl.add tbl d i
    done;
    tbl
  in
  let a = family 0x6b65726eL in
  let b = family 0x736d6f6bL in
  Alcotest.(check int) "family sizes" (Hashtbl.length a) (Hashtbl.length b)

(* --- Fp_table --- *)

(* A full-width random fingerprint: [Prng.bits] gives 62 bits. *)
let random_fp rng =
  Int64.logxor
    (Int64.of_int (Prng.bits rng))
    (Int64.shift_left (Int64.of_int (Prng.bits rng)) 31)

let specials = [ 0L; -1L; Int64.min_int; Int64.max_int; 1L ]

(* 10^5 random operations over a pool of 3x10^4 keys (so most keys
   recur), with the keys the empty-slot sentinel could confuse mixed
   in, against a [Hashtbl] model. *)
let fp_table_differential () =
  let rng = Prng.create 0xf7ab in
  let pool =
    Array.append (Array.of_list specials)
      (Array.init 30_000 (fun _ -> random_fp rng))
  in
  let t = Fp_table.create () and model = Hashtbl.create 1024 in
  for step = 1 to 100_000 do
    let k = pool.(Prng.int rng (Array.length pool)) in
    let expect = Hashtbl.find_opt model k in
    match Prng.int rng 4 with
    | 0 ->
      Alcotest.(check bool) "add" (expect = None) (Fp_table.add t k step);
      if expect = None then Hashtbl.replace model k step
    | 1 ->
      Fp_table.replace t k step;
      Hashtbl.replace model k step
    | 2 -> Alcotest.(check bool) "mem" (expect <> None) (Fp_table.mem t k)
    | _ ->
      Alcotest.(check (option int)) "find" expect
        (match Fp_table.find t k with v -> Some v | exception Not_found -> None)
  done;
  Alcotest.(check int) "length" (Hashtbl.length model) (Fp_table.length t);
  let seen = ref 0 in
  Fp_table.iter
    (fun k v ->
      incr seen;
      Alcotest.(check (option int))
        "iter payload" (Hashtbl.find_opt model k) (Some v))
    t;
  Alcotest.(check int) "iter count" (Hashtbl.length model) !seen

(* 0L is the empty-slot pattern, -1L and min_int are the sign-bit
   extremes: all are ordinary members. *)
let fp_table_special_keys () =
  let t = Fp_table.create () in
  List.iter
    (fun k -> Alcotest.(check bool) "absent at first" false (Fp_table.mem t k))
    specials;
  List.iteri
    (fun i k ->
      Alcotest.(check bool) "fresh" true (Fp_table.add t k (i - 2));
      Alcotest.(check bool) "duplicate" false (Fp_table.add t k 99))
    specials;
  Alcotest.(check int) "length" (List.length specials) (Fp_table.length t);
  List.iteri
    (fun i k ->
      Alcotest.(check bool) "member" true (Fp_table.mem t k);
      Alcotest.(check int) "payload" (i - 2) (Fp_table.find t k))
    specials;
  Alcotest.check_raises "non-member" Not_found (fun () ->
      ignore (Fp_table.find t 2L))

(* Keys whose mixed words agree on their low 12 bits share one home
   slot at every capacity up to 4096, so they form one long probe
   chain; keys of that home that were never added must still miss. *)
let fp_table_colliding_low_bits () =
  let same_home =
    Seq.ints 1
    |> Seq.map Int64.of_int
    |> Seq.filter (fun k -> Int64.to_int (Fingerprint.mix k) land 0xfff = 0)
    |> Seq.take 200 |> List.of_seq
  in
  let members = List.filteri (fun i _ -> i mod 2 = 0) same_home in
  let absent = List.filteri (fun i _ -> i mod 2 = 1) same_home in
  let t = Fp_table.create () in
  List.iteri
    (fun i k -> Alcotest.(check bool) "fresh" true (Fp_table.add t k i))
    members;
  List.iteri
    (fun i k ->
      Alcotest.(check bool) "member" true (Fp_table.mem t k);
      Alcotest.(check int) "payload" i (Fp_table.find t k);
      Alcotest.(check bool) "duplicate" false (Fp_table.add t k 0))
    members;
  List.iter
    (fun k -> Alcotest.(check bool) "never added" false (Fp_table.mem t k))
    absent;
  Alcotest.(check int) "length" (List.length members) (Fp_table.length t)

(* The capacity is a power of two and doubles when an insert takes the
   table past half full, i.e. at the (2^j + 1)-th member; after each of
   those inserts every earlier key must still be found. *)
let fp_table_mem_after_doubling () =
  let rng = Prng.create 0xd0b1 in
  let t = Fp_table.create () in
  let keys = Array.init ((1 lsl 15) + 1) (fun _ -> random_fp rng) in
  keys.(5) <- 0L;
  Array.iteri
    (fun n k ->
      ignore (Fp_table.add t k n);
      let count = n + 1 in
      if count > 2 && (count - 1) land (count - 2) = 0 then
        for i = 0 to n do
          if not (Fp_table.mem t keys.(i)) then
            Alcotest.failf "key %d lost at %d members" i count;
          Alcotest.(check int) "payload" i (Fp_table.find t keys.(i))
        done)
    keys

let fp_table_iter_once () =
  let rng = Prng.create 0x17e2 in
  let t = Fp_table.create () in
  let keys = 0L :: -1L :: List.init 5000 (fun _ -> random_fp rng) in
  List.iter (fun k -> ignore (Fp_table.add t k 7)) keys;
  let visits = Hashtbl.create 1024 in
  Fp_table.iter
    (fun k v ->
      Alcotest.(check int) "payload" 7 v;
      let n = Option.value ~default:0 (Hashtbl.find_opt visits k) in
      Hashtbl.replace visits k (n + 1))
    t;
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        "visited once" (Some 1) (Hashtbl.find_opt visits k))
    keys;
  Alcotest.(check int)
    "nothing else" (Fp_table.length t) (Hashtbl.length visits)

let fp_table_clear () =
  let rng = Prng.create 0xc1ea in
  let t = Fp_table.create () in
  let keys = 0L :: List.init 3000 (fun _ -> random_fp rng) in
  List.iter (fun k -> ignore (Fp_table.add t k 1)) keys;
  Fp_table.clear t;
  Alcotest.(check int) "empty" 0 (Fp_table.length t);
  Fp_table.iter (fun _ _ -> Alcotest.fail "iter after clear") t;
  List.iter
    (fun k -> Alcotest.(check bool) "gone" false (Fp_table.mem t k))
    keys;
  List.iteri
    (fun i k ->
      Alcotest.(check bool) "re-add is fresh" true (Fp_table.add t k i))
    keys;
  List.iteri
    (fun i k -> Alcotest.(check int) "new payload" i (Fp_table.find t k))
    keys;
  Alcotest.(check int) "length" (List.length keys) (Fp_table.length t)

let fp_table_replace () =
  let t = Fp_table.create () in
  List.iter
    (fun k ->
      Alcotest.(check bool) "add" true (Fp_table.add t k 1);
      Alcotest.(check bool)
        "add keeps the old payload" false (Fp_table.add t k 2);
      Alcotest.(check int) "old payload" 1 (Fp_table.find t k);
      Fp_table.replace t k 3;
      Alcotest.(check int) "replaced" 3 (Fp_table.find t k))
    [ 0L; 42L ];
  Fp_table.replace t 43L (-5);
  Alcotest.(check int) "replace inserts" (-5) (Fp_table.find t 43L);
  Alcotest.(check int) "length" 3 (Fp_table.length t)

(* --- Shard_set --- *)

let shard_add_mem () =
  let s = Shard_set.create ~shards:4 () in
  Alcotest.(check int) "shards" 4 (Shard_set.shards s);
  let fp = 0x123456789abcdefL in
  let sh = Shard_set.owner s fp in
  Alcotest.(check bool) "owner in range" true (sh >= 0 && sh < 4);
  Alcotest.(check int) "owner deterministic" sh (Shard_set.owner s fp);
  Alcotest.(check bool) "fresh add" true (Shard_set.add s ~shard:sh fp);
  Alcotest.(check bool) "re-add" false (Shard_set.add s ~shard:sh fp);
  Alcotest.(check bool) "mem" true (Shard_set.mem s ~shard:sh fp);
  Alcotest.(check int) "shard cardinal" 1 (Shard_set.shard_cardinal s sh);
  Alcotest.(check int) "cardinal" 1 (Shard_set.cardinal s)

(* [iter] and [clear] see one shard only: what the spill tier's seal
   reads and empties. *)
let shard_iter_clear () =
  let s = Shard_set.create ~shards:3 () in
  let fps = List.init 300 Int64.of_int in
  List.iter
    (fun fp -> ignore (Shard_set.add s ~shard:(Shard_set.owner s fp) fp))
    fps;
  let owned sh = List.filter (fun fp -> Shard_set.owner s fp = sh) fps in
  let members sh =
    let acc = ref [] in
    Shard_set.iter s ~shard:sh (fun fp -> acc := fp :: !acc);
    List.sort compare !acc
  in
  for sh = 0 to 2 do
    Alcotest.(check (list int64)) "iter = owned members" (owned sh) (members sh)
  done;
  Shard_set.clear s ~shard:1;
  Alcotest.(check int) "cleared shard" 0 (Shard_set.shard_cardinal s 1);
  Alcotest.(check (list int64)) "other shards kept" (owned 2) (members 2);
  Alcotest.(check int) "cardinal"
    (List.length (owned 0) + List.length (owned 2))
    (Shard_set.cardinal s);
  List.iter
    (fun fp ->
      Alcotest.(check bool) "re-add" true (Shard_set.add s ~shard:1 fp))
    (owned 1)

let shard_owner_uniform () =
  let shards = 4 in
  let s = Shard_set.create ~shards () in
  let n = 4096 in
  let counts = Array.make shards 0 in
  for i = 0 to n - 1 do
    let o = Shard_set.owner s (Int64.of_int i) in
    counts.(o) <- counts.(o) + 1
  done;
  let expect = n / shards in
  Array.iteri
    (fun o c ->
      if c < expect / 2 || c > expect * 2 then
        Alcotest.failf "shard %d owns %d of %d (uniform would be ~%d)" o c n
          expect)
    counts

(* Owner choice reads the high bits of the mixed word, so the
   fingerprints confined to a single owner shard still disperse
   uniformly over its low bits — what any low-bit consumer of the same
   word (a stripe or bucket index) reads.  Keying both on one bit range
   was the aliasing bug this guards against. *)
let shard_owner_keeps_stripes_uniform () =
  let ss = Shard_set.create ~shards:4 () in
  let stripes = 64 in
  let counts = Array.make stripes 0 in
  let owned = ref 0 and i = ref 0 in
  while !owned < 2048 do
    let fp = Int64.of_int !i in
    if Shard_set.owner ss fp = 0 then begin
      incr owned;
      let s = Int64.to_int (Fingerprint.mix fp) land (stripes - 1) in
      counts.(s) <- counts.(s) + 1
    end;
    incr i
  done;
  let expect = 2048 / stripes in
  Array.iteri
    (fun s c ->
      if c = 0 || c > 3 * expect then
        Alcotest.failf
          "stripe %d holds %d of one owner's 2048 fps (uniform would be ~%d)" s
          c expect)
    counts

(* The single-owner discipline across real domains: each domain adds
   only the fingerprints it owns, so the partition is exact and
   disjoint with no synchronization at all. *)
let shard_parallel_ownership () =
  let shards = 4 in
  let s = Shard_set.create ~shards () in
  let n = 20_000 in
  let worker d () =
    let mine = ref 0 in
    for i = 0 to n - 1 do
      let fp = Int64.of_int i in
      if Shard_set.owner s fp = d && Shard_set.add s ~shard:d fp then incr mine
    done;
    !mine
  in
  let ds = Array.init shards (fun d -> Domain.spawn (worker d)) in
  let total = Array.fold_left (fun t d -> t + Domain.join d) 0 ds in
  Alcotest.(check int) "disjoint exact partition" n total;
  Alcotest.(check int) "cardinal" n (Shard_set.cardinal s)

(* --- Spsc --- *)

let spsc_fifo () =
  let q = Spsc.create () in
  Alcotest.(check bool) "fresh empty" true (Spsc.is_empty q);
  Alcotest.(check (option int)) "pop empty" None (Spsc.pop q);
  for i = 0 to 99 do
    Spsc.push q i
  done;
  Alcotest.(check bool) "non-empty" false (Spsc.is_empty q);
  for i = 0 to 99 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Spsc.pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.pop q)

let spsc_cross_domain () =
  let q = Spsc.create () in
  let n = 100_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Spsc.push q i
        done)
  in
  let expect = ref 0 in
  while !expect < n do
    match Spsc.pop q with
    | None -> Domain.cpu_relax ()
    | Some v ->
      if v <> !expect then
        Alcotest.failf "reordered: got %d, wanted %d" v !expect;
      incr expect
  done;
  Domain.join producer;
  Alcotest.(check (option int)) "drained" None (Spsc.pop q)

(* --- Barrier --- *)

let barrier_rounds () =
  let n = 4 and rounds = 50 in
  let b = Barrier.create n in
  Alcotest.(check int) "parties" n (Barrier.parties b);
  let counter = Atomic.make 0 in
  let worker () =
    for r = 1 to rounds do
      Atomic.incr counter;
      Barrier.await b;
      (* Between the two awaits of round [r] every party has bumped
         exactly [r] times and none has started round [r+1]. *)
      let c = Atomic.get counter in
      if c <> r * n then Alcotest.failf "round %d saw count %d" r c;
      Barrier.await b
    done
  in
  let ds = Array.init (n - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join ds;
  Alcotest.(check int) "all increments" (rounds * n) (Atomic.get counter)

let barrier_poison () =
  let b = Barrier.create 3 in
  Alcotest.(check bool) "fresh" false (Barrier.poisoned b);
  Barrier.poison b;
  Alcotest.(check bool) "flagged" true (Barrier.poisoned b);
  let raised () =
    match Barrier.await b with
    | () -> false
    | exception Barrier.Poisoned -> true
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn raised) in
  let mine = raised () in
  Alcotest.(check bool) "await raises Poisoned everywhere" true
    (mine && Array.for_all Domain.join ds)

(* Poisoning while parties are blocked in [await] wakes them with
   [Poisoned] instead of deadlocking the incomplete round. *)
let barrier_poison_wakes_waiters () =
  let b = Barrier.create 3 in
  let waiter () =
    match Barrier.await b with
    | () -> false
    | exception Barrier.Poisoned -> true
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn waiter) in
  (* Third party never arrives: poison instead. *)
  Barrier.poison b;
  Alcotest.(check bool) "blocked waiters raise Poisoned" true
    (Array.for_all Domain.join ds)

(* --- Matching --- *)

let matching_simple () =
  (* slots 0,2; fillers lb [0;0] -> feasible *)
  Alcotest.(check bool) "feasible" true
    (Matching.feasible ~slots:[ 0; 2 ] ~lower_bounds:[| 0; 0 |]);
  (* slot 0 but both fillers need >= 1 -> infeasible *)
  Alcotest.(check bool) "infeasible" false
    (Matching.feasible ~slots:[ 0 ] ~lower_bounds:[| 1; 1 |])

let matching_exact_assignment () =
  match Matching.assign ~slots:[ 1; 3; 5 ] ~lower_bounds:[| 4; 0; 2 |] with
  | None -> Alcotest.fail "expected assignment"
  | Some pairs ->
    (* Greedy: slot 1 <- filler lb 0 (idx 1); slot 3 <- lb 2 (idx 2);
       slot 5 <- lb 4 (idx 0). *)
    Alcotest.(check (list (pair int int))) "assignment"
      [ (1, 1); (3, 2); (5, 0) ]
      pairs

let matching_insufficient_fillers () =
  Alcotest.(check bool) "too few fillers" false
    (Matching.feasible ~slots:[ 0; 1; 2 ] ~lower_bounds:[| 0; 0 |])

let matching_hall_violation () =
  (* Two fillers both need slot >= 5 but slots are 1 and 6: slot 1
     unfillable. *)
  Alcotest.(check bool) "hall violation" false
    (Matching.feasible ~slots:[ 1; 6 ] ~lower_bounds:[| 5; 5 |])

(* Brute-force cross-check of the greedy matcher. *)
let matching_matches_bruteforce =
  Support.seeded_prop ~count:500 "greedy = brute force" (fun rng ->
      let n_slots = Prng.int rng 5 in
      let n_fillers = Prng.int rng 6 in
      let slots =
        List.sort_uniq compare (List.init n_slots (fun _ -> Prng.int rng 8))
      in
      let lbs = Array.init n_fillers (fun _ -> Prng.int rng 8) in
      let greedy = Matching.feasible ~slots ~lower_bounds:lbs in
      (* brute force: try all injections slots -> fillers *)
      let rec brute slots used =
        match slots with
        | [] -> true
        | s :: rest ->
          List.exists
            (fun f ->
              (not (List.mem f used)) && lbs.(f) <= s && brute rest (f :: used))
            (List.init n_fillers (fun f -> f))
      in
      greedy = brute slots [])

let () =
  Alcotest.run "kernel"
    [
      ( "prng",
        [
          Support.quick "deterministic" prng_deterministic;
          Support.quick "seed sensitivity" prng_seed_sensitivity;
          Support.quick "split" prng_split;
          prng_bounds;
          prng_shuffle_permutes;
          prng_choose_member;
          prng_float_unit;
        ] );
      ( "bitset",
        [
          Support.quick "empty" bitset_empty;
          Support.quick "add/mem across words" bitset_add_mem;
          Support.quick "add idempotent" bitset_add_idempotent;
          Support.quick "remove" bitset_remove;
          Support.quick "is_full" bitset_full;
          Support.quick "out of range" bitset_out_of_range;
          bitset_set_clear_in_place;
          bitset_equal_hash;
          bitset_roundtrip;
        ] );
      ( "fingerprint",
        [
          Support.quick "zero/empty digests" fingerprint_zero_empty;
          fingerprint_flat_absorbers;
          Support.quick "seeding" fingerprint_seeding;
          Support.quick "collision smoke (10^5 x 2 seeds)"
            fingerprint_collision_smoke;
        ] );
      ( "fp_table",
        [
          Support.quick "differential vs Hashtbl (10^5 ops)"
            fp_table_differential;
          Support.quick "0L, -1L and min_int are members" fp_table_special_keys;
          Support.quick "colliding low bits" fp_table_colliding_low_bits;
          Support.quick "mem after each doubling" fp_table_mem_after_doubling;
          Support.quick "iter visits each member once" fp_table_iter_once;
          Support.quick "clear empties and stays usable" fp_table_clear;
          Support.quick "payload replace" fp_table_replace;
        ] );
      ( "shard_set",
        [
          Support.quick "add/mem/owner" shard_add_mem;
          Support.quick "per-shard iter/clear" shard_iter_clear;
          Support.quick "owner dispersion" shard_owner_uniform;
          Support.quick "owner/stripe bit disjointness"
            shard_owner_keeps_stripes_uniform;
          Support.quick "parallel single-owner discipline"
            shard_parallel_ownership;
        ] );
      ( "spsc",
        [
          Support.quick "fifo" spsc_fifo;
          Support.quick "cross-domain handoff" spsc_cross_domain;
        ] );
      ( "barrier",
        [
          Support.quick "lock-step rounds" barrier_rounds;
          Support.quick "poison before await" barrier_poison;
          Support.quick "poison wakes blocked waiters"
            barrier_poison_wakes_waiters;
        ] );
      ( "matching",
        [
          Support.quick "simple" matching_simple;
          Support.quick "exact assignment" matching_exact_assignment;
          Support.quick "insufficient fillers" matching_insufficient_fillers;
          Support.quick "hall violation" matching_hall_violation;
          matching_matches_bruteforce;
        ] );
    ]
