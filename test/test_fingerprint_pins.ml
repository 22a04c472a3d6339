(** Fingerprint pins: constants recorded once and never re-recorded.

    Fingerprints are persisted (visited-set segments, frontier segments
    and MANIFESTs), and the spill store's shape — how many segments,
    how many bytes, which probes hit the disk — is a function of them.
    Any change to the absorbers, the node summaries or the order in
    which a search hands states to [~fingerprint] must therefore leave
    every value below bit-identical.  Each pin is either one absorber on
    one fixed input, or the wrapping [Int64] sum and the count of every
    fingerprint one whole search computes.  Every whole search also
    checks that no fingerprint arrives at two step counts: the level
    stratification that [Search.bfs]'s per-level dedup rests on. *)

open Elin_spec
open Elin_runtime
open Elin_explore
open Elin_checker
open Elin_valency
open Elin_mc
open Elin_test_support
module Fp = Elin_kernel.Fingerprint
module Fp_table = Elin_kernel.Fp_table

let check_pin name ~want got =
  if not (Int64.equal want got) then
    Alcotest.failf "%s: fingerprint 0x%016Lx, pinned 0x%016Lx" name got want

(* --- absorbers on fixed inputs ------------------------------------- *)

let non_ascii = "caf\xc3\xa9 \xe2\x86\x92 \xe2\x88\x9e"

let absorber_pins =
  let fp ?seed f = Fp.finish (f (Fp.start ?seed ())) in
  [
    ("start", fp Fun.id, 0xf52a15e9a9b5e89bL);
    ("start ~seed:mc", fp ~seed:0x6D63L Fun.id, 0x61bba583ced12ad7L);
    ("start ~seed:pp", fp ~seed:0x7070L Fun.id, 0x4dc74e45907bc02dL);
    ("start ~seed:bs", fp ~seed:0x6273L Fun.id, 0x713fe12d0d75fc49L);
    ("start ~seed:ev", fp ~seed:0x6576L Fun.id, 0xaa0782d1777af48cL);
    ("start ~seed:val", fp ~seed:0x76616CL Fun.id, 0x4db9a8e8a38a3b25L);
    ("start ~seed:-1", fp ~seed:(-1L) Fun.id, 0x7ddc93b2b3a915afL);
    ("byte 0", fp (fun a -> Fp.byte a 0), 0x25fc6dd36ce04b20L);
    ("byte 255", fp (fun a -> Fp.byte a 255), 0x4f2db50f124040cdL);
    ("byte 0x1ab", fp (fun a -> Fp.byte a 0x1ab), 0x014acaad82904369L);
    ("bool true", fp (fun a -> Fp.bool a true), 0xaa1093e3c79ab7f9L);
    ("bool false", fp (fun a -> Fp.bool a false), 0x25fc6dd36ce04b20L);
    ("int 0", fp (fun a -> Fp.int a 0), 0x813f0174a2367c13L);
    ("int -1", fp (fun a -> Fp.int a (-1)), 0x9795737c4a2dacd5L);
    ("int min_int", fp (fun a -> Fp.int a min_int), 0x8576e08a02074cb4L);
    ("int max_int", fp (fun a -> Fp.int a max_int), 0xf7cd385d5090203dL);
    ("int64 0L", fp (fun a -> Fp.int64 a 0L), 0x813f0174a2367c13L);
    ("int64 -1L", fp (fun a -> Fp.int64 a (-1L)), 0x9795737c4a2dacd5L);
    ("int64 min_int", fp (fun a -> Fp.int64 a Int64.min_int), 0xe9343a592d080592L);
    ("int64 max_int", fp (fun a -> Fp.int64 a Int64.max_int), 0xa9686622d76c426bL);
    ("string empty", fp (fun a -> Fp.string a ""), 0x813f0174a2367c13L);
    ("string fetch&inc", fp (fun a -> Fp.string a "fetch&inc"), 0xda8581846d770f90L);
    ("string non-ascii", fp (fun a -> Fp.string a non_ascii), 0x30a1ee76e630cec6L);
    ("list int", fp (fun a -> Fp.list Fp.int a [ 0; -1; min_int ]), 0x128a26bd4aac22f9L);
    ("array string", fp (fun a -> Fp.array Fp.string a [| ""; "x" |]), 0xc28518944556487aL);
    ( "int64_array",
      fp (fun a -> Fp.int64_array a [| 0L; -1L; Int64.min_int |]),
      0x340557e50b4e32e8L );
    ("int_array", fp (fun a -> Fp.int_array a [| 0; -1; min_int |]), 0x128a26bd4aac22f9L);
    ( "seeded chain",
      fp ~seed:0x6D63L (fun a ->
          Fp.string (Fp.int64 (Fp.bool (Fp.int a 7) true) (-1L)) non_ascii),
      0xdbb9e8d064de630fL );
    ("mix 0L", Fp.mix 0L, 0x0000000000000000L);
    ("mix -1L", Fp.mix (-1L), 0x64b5720b4b825f21L);
    ("mix min_int", Fp.mix Int64.min_int, 0x8f780810af31a493L);
  ]

let absorbers () =
  List.iter (fun (name, got, want) -> check_pin name ~want got) absorber_pins

(* --- whole searches -------------------------------------------------- *)

(* A [~fingerprint] that records the wrapping sum and the count of the
   values it hands to [Search.bfs], and fails when one fingerprint
   arrives at two step counts.  Every transition adds exactly one step,
   so a state's step count is its BFS level offset: [Search.bfs]
   dedups within one level only, which is exact because every
   fingerprint below belongs to one level. *)
let recording ~steps f =
  let sum = ref 0L and count = ref 0 in
  let step_of = Fp_table.create () in
  let fingerprint s =
    let fp = f s in
    let n = steps s in
    if not (Fp_table.add step_of fp n) then begin
      let m = Fp_table.find step_of fp in
      if m <> n then
        Alcotest.failf "fingerprint 0x%016Lx arrives at step counts %d and %d"
          fp m n
    end;
    sum := Int64.add !sum fp;
    incr count;
    fp
  in
  (fingerprint, fun () -> (!sum, !count))

let check_search name ~sum ~count (got_sum, got_count) =
  check_pin (name ^ ": sum") ~want:sum got_sum;
  Alcotest.(check int) (name ^ ": fingerprints computed") count got_count

(* [Mc.check]'s search (the [Mc.drive] expansion, default dedup and
   merge, one domain) with [~fingerprint] observed. *)
let mc_search ?(symmetry = false) ~por impl ~workloads ~max_steps pred =
  let fingerprint, read =
    recording
      ~steps:(fun (n : Canon.node) -> n.Canon.config.Explore.steps)
      (Canon.fingerprint ~symmetry)
  in
  let pruned = Atomic.make 0 in
  let leaf c =
    let h = Explore.history c in
    if pred h then None else Some h
  in
  let expand (node : Canon.node) =
    let c = node.Canon.config in
    if Explore.is_done c then Search.Leaf (leaf c)
    else if c.Explore.steps >= max_steps then Search.Cut (leaf c)
    else Search.Children (Canon.successors ~por ~pruned impl node)
  in
  let merge = if por then Some Canon.merge_sleep else None in
  let violations, _ =
    Search.bfs ~domains:1 ?merge ~fingerprint ~expand
      ~compare:Canon.compare_history
      (Canon.root (Explore.initial_config impl ~workloads ()))
  in
  Alcotest.(check int) "no violation" 0 (List.length violations);
  read ()

let fai_board ~per_proc ~depth ~por =
  mc_search ~por (Impls.fai_from_board ())
    ~workloads:(Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc)
    ~max_steps:depth
    (Engine.linearizable (Engine.for_spec (Faicounter.spec ())))

let board_2x2 () =
  check_search "fai/board 2x2 d14, por" ~sum:0x3af81db1b57ca01eL ~count:985
    (fai_board ~per_proc:2 ~depth:14 ~por:true);
  check_search "fai/board 2x2 d14, no por" ~sum:0x8194a3d49472ef89L ~count:1_123
    (fai_board ~per_proc:2 ~depth:14 ~por:false)

let board_2x3 () =
  check_search "fai/board 2x3 d22, por" ~sum:0x5e97eadc0f0cf302L ~count:23_951
    (fai_board ~per_proc:3 ~depth:22 ~por:true);
  check_search "fai/board 2x3 d22, no por" ~sum:0x92c077ad169788ebL ~count:27_225
    (fai_board ~per_proc:3 ~depth:22 ~por:false)

let board_2x4 () =
  check_search "fai/board 2x4 d26, por" ~sum:0x0ad3c5f2db35e561L
    ~count:608_105
    (fai_board ~per_proc:4 ~depth:26 ~por:true)

(* The renaming quotient: the minimum over every process permutation of
   the full structural encoding. *)
let symmetry () =
  let pin name ~procs ~per_proc ~depth ~sum ~count =
    check_search name ~sum ~count
      (mc_search ~symmetry:true ~por:false (Impls.fai_from_cas ())
         ~workloads:(Run.uniform_workload Op.fetch_inc ~procs ~per_proc)
         ~max_steps:depth
         (Engine.linearizable (Engine.for_spec (Faicounter.spec ()))))
  in
  pin "fai/cas 2x2 d16, symmetry" ~procs:2 ~per_proc:2 ~depth:16 ~sum:0x8a1443113ea2e317L
    ~count:2_011;
  pin "fai/cas 3x1 d12, symmetry" ~procs:3 ~per_proc:1 ~depth:12 ~sum:0x5c486214d5a2ce73L
    ~count:1_580

(* The E9 workload (Prop. 15) through [Mc_valency]'s node encoding. *)
let valency () =
  let inputs = [| Value.int 0; Value.int 1 |] in
  let pin name p ~max_steps ~sum ~count =
    let fingerprint, read =
      recording
        ~steps:(fun (n : Mc_valency.node) -> n.Mc_valency.config.Valency.steps)
        Mc_valency.fingerprint
    in
    let expand (node : Mc_valency.node) =
      let c = node.Mc_valency.config in
      if Valency.all_decided c then Search.Leaf None
      else if c.Valency.steps >= max_steps then Search.Cut None
      else Search.Children (Mc_valency.successors p node)
    in
    let _ =
      Search.bfs ~domains:1 ~stop_early:false ~fingerprint ~expand
        ~compare:Int.compare
        (Mc_valency.root p ~inputs)
    in
    check_search name ~sum ~count (read ())
  in
  pin "cas d25" (Protocols.cas ()) ~max_steps:25 ~sum:0x412f17eeb3d434edL ~count:37;
  pin "registers + test&set d40"
    (Protocols.registers_plus_linearizable_testandset ())
    ~max_steps:40 ~sum:0x639198fa63b0368fL ~count:35;
  pin "registers + ev test&set d40"
    (Protocols.registers_plus_ev_testandset ())
    ~max_steps:40 ~sum:0x07fe3015bfb77e62L ~count:47

let () =
  Alcotest.run "fingerprint-pins"
    [
      ( "fingerprint pins",
        [
          Support.quick "absorbers on fixed inputs" absorbers;
          Support.quick "mc search fai/board 2x2 d14" board_2x2;
          Support.quick "mc search fai/board 2x3 d22" board_2x3;
          Support.slow "mc search fai/board 2x4 d26" board_2x4;
          Support.quick "symmetry fai/cas" symmetry;
          Support.quick "valency E9" valency;
        ] );
    ]
