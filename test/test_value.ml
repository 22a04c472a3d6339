(** Tests for universal values, operations and the op codec. *)

open Elin_spec
open Elin_test_support

let constructors () =
  Alcotest.check Support.value "int" (Value.Int 3) (Value.int 3);
  Alcotest.check Support.value "pair"
    (Value.Pair (Value.Int 1, Value.Bool true))
    (Value.pair (Value.int 1) (Value.bool true));
  Alcotest.check Support.value "list"
    (Value.List [ Value.Unit ])
    (Value.list [ Value.unit ])

let accessors () =
  Alcotest.(check int) "to_int" 7 (Value.to_int (Value.int 7));
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.bool true));
  Alcotest.(check string) "to_str" "x" (Value.to_str (Value.str "x"));
  let a, b = Value.to_pair (Value.pair (Value.int 1) (Value.int 2)) in
  Alcotest.check Support.value "fst" (Value.int 1) a;
  Alcotest.check Support.value "snd" (Value.int 2) b;
  Alcotest.(check unit) "to_unit" () (Value.to_unit Value.unit)

let accessor_type_errors () =
  Alcotest.(check bool) "to_int of bool raises" true
    (match Value.to_int (Value.bool true) with
    | exception Value.Type_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "to_list of int raises" true
    (match Value.to_list (Value.int 1) with
    | exception Value.Type_error _ -> true
    | _ -> false)

let equality_structural () =
  let v = Value.list [ Value.pair (Value.int 1) (Value.str "a") ] in
  let w = Value.list [ Value.pair (Value.int 1) (Value.str "a") ] in
  Alcotest.(check bool) "equal" true (Value.equal v w);
  Alcotest.(check int) "compare" 0 (Value.compare v w);
  Alcotest.(check int) "hash equal" (Value.hash v) (Value.hash w)

(* A random value: ints on both sides of the interned -256..1024
   range, built by [Value.int] and by the raw constructor, and nested
   pairs and lists. *)
let rec random_value rng depth =
  let module P = Elin_kernel.Prng in
  let int () =
    let n = P.int rng 3000 - 1500 in
    if P.bool rng then Value.int n else Value.Int n
  in
  match P.int rng (if depth = 0 then 4 else 6) with
  | 0 -> Value.unit
  | 1 -> Value.bool (P.bool rng)
  | 2 -> int ()
  | 3 -> Value.str (P.choose rng [ ""; "a"; "b"; "empty" ])
  | 4 -> Value.pair (random_value rng (depth - 1)) (random_value rng (depth - 1))
  | _ -> Value.list (List.init (P.int rng 4) (fun _ -> random_value rng (depth - 1)))

(* A structurally equal copy sharing no block with [v]. *)
let rec copy (v : Value.t) : Value.t =
  match v with
  | Value.Unit -> Value.Unit
  | Value.Bool b -> Value.Bool b
  | Value.Int n -> Value.Int n
  | Value.Str s -> Value.Str (String.init (String.length s) (String.get s))
  | Value.Pair (a, b) -> Value.Pair (copy a, copy b)
  | Value.List xs -> Value.List (List.map copy xs)

(* [Value.equal] agrees with [Stdlib.(=)] on random pairs: unrelated
   values, fresh copies, and a copy with one int nudged. *)
let equal_is_structural =
  Support.seeded_prop ~count:500 "equal = Stdlib.(=)" (fun rng ->
      let a = random_value rng 3 in
      let rec nudge (v : Value.t) : Value.t =
        match v with
        | Value.Int n -> Value.Int (n + 1)
        | Value.Pair (x, y) ->
          if Elin_kernel.Prng.bool rng then Value.Pair (nudge x, y)
          else Value.Pair (x, nudge y)
        | Value.List (x :: xs) -> Value.List (nudge x :: xs)
        | v -> v
      in
      let b =
        match Elin_kernel.Prng.int rng 3 with
        | 0 -> random_value rng 3
        | 1 -> copy a
        | _ -> nudge (copy a)
      in
      Value.equal a b = (a = b) && Value.equal b a = (b = a))

let pp_forms () =
  let s v = Value.to_string v in
  Alcotest.(check string) "unit" "()" (s Value.unit);
  Alcotest.(check string) "int" "42" (s (Value.int 42));
  Alcotest.(check string) "pair" "(1, true)"
    (s (Value.pair (Value.int 1) (Value.bool true)));
  Alcotest.(check string) "list" "[1; 2]"
    (s (Value.list [ Value.int 1; Value.int 2 ]))

(* --- Op --- *)

let op_name_includes_args () =
  (* Section 3: "the name of an operation includes all of the
     operation's arguments" — write(1) and write(2) are different
     operations. *)
  Alcotest.(check bool) "write 1 <> write 2" false
    (Op.equal (Op.write 1) (Op.write 2));
  Alcotest.(check bool) "write 1 = write 1" true
    (Op.equal (Op.write 1) (Op.write 1))

let op_pp () =
  Alcotest.(check string) "no args" "read" (Op.to_string Op.read);
  Alcotest.(check string) "with args" "write(3)" (Op.to_string (Op.write 3));
  Alcotest.(check string) "cas" "cas(0, 1)"
    (Op.to_string (Op.cas ~expected:0 ~desired:1))

let op_compare_total () =
  let ops = [ Op.read; Op.write 1; Op.write 2; Op.fetch_inc; Op.deq ] in
  let sorted = List.sort Op.compare ops in
  Alcotest.(check int) "same length" (List.length ops) (List.length sorted);
  List.iter
    (fun o -> Alcotest.(check bool) "member" true (List.exists (Op.equal o) sorted))
    ops

(* --- Codec --- *)

let codec_roundtrip () =
  let ops =
    [ Op.read; Op.write 5; Op.fetch_inc; Op.cas ~expected:1 ~desired:2;
      Op.propose 1; Op.make "odd" ~args:[ Value.pair (Value.int 1) Value.unit ] ]
  in
  List.iter
    (fun o ->
      Alcotest.check Support.op "roundtrip" o (Codec.decode_op (Codec.encode_op o)))
    ops

let codec_entry_roundtrip () =
  let p, o = Codec.decode_entry (Codec.encode_entry ~proc:3 (Op.write 1)) in
  Alcotest.(check int) "proc" 3 p;
  Alcotest.check Support.op "op" (Op.write 1) o

let () =
  Alcotest.run "value"
    [
      ( "value",
        [
          Support.quick "constructors" constructors;
          Support.quick "accessors" accessors;
          Support.quick "type errors" accessor_type_errors;
          Support.quick "structural equality" equality_structural;
          equal_is_structural;
          Support.quick "pretty-printing" pp_forms;
        ] );
      ( "op",
        [
          Support.quick "name includes args" op_name_includes_args;
          Support.quick "pretty-printing" op_pp;
          Support.quick "compare total" op_compare_total;
        ] );
      ( "codec",
        [
          Support.quick "op roundtrip" codec_roundtrip;
          Support.quick "entry roundtrip" codec_entry_roundtrip;
        ] );
    ]
