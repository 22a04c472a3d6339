(** Tests for histories: well-formedness, operations, projections,
    prefixes, sequential extraction, text (de)serialization. *)

open Elin_spec
open Elin_history
open Elin_test_support
open Support

let well_formed_concurrent () =
  let hist =
    h [ inv 0 (Op.write 1); inv 1 Op.read; res 0 Value.unit; resi 1 0 ]
  in
  Alcotest.(check int) "events" 4 (History.length hist);
  Alcotest.(check int) "ops" 2 (History.n_ops hist);
  Alcotest.(check int) "complete" 2 (List.length (History.complete_ops hist))

let pending_operation () =
  let hist = h [ inv 0 Op.read; inv 1 (Op.write 1); res 1 Value.unit ] in
  Alcotest.(check int) "pending" 1 (List.length (History.pending_ops hist));
  let p = List.hd (History.pending_ops hist) in
  Alcotest.(check int) "pending proc" 0 p.Operation.proc

let ill_formed_double_invoke () =
  Alcotest.(check bool) "double invoke rejected" false
    (History.well_formed [ inv 0 Op.read; inv 0 Op.read ])

let ill_formed_orphan_response () =
  Alcotest.(check bool) "orphan response rejected" false
    (History.well_formed [ resi 0 1 ])

let ill_formed_wrong_object () =
  Alcotest.(check bool) "response on other object rejected" false
    (History.well_formed [ inv ~obj:0 0 Op.read; res ~obj:1 0 (Value.int 0) ])

let of_events_result_error () =
  match History.of_events_result [ resi 0 1 ] with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    Alcotest.(check string) "error rendering"
      "event 0: response with no pending invocation"
      (Format.asprintf "%a" History.pp_error e)

let operation_indices () =
  let hist =
    h [ inv 0 Op.fetch_inc; inv 1 Op.fetch_inc; resi 1 0; resi 0 1 ]
  in
  let ops = History.ops hist in
  let o0 = List.find (fun (o : Operation.t) -> o.Operation.proc = 0) ops in
  let o1 = List.find (fun (o : Operation.t) -> o.Operation.proc = 1) ops in
  Alcotest.(check int) "o0 inv" 0 o0.Operation.inv;
  Alcotest.(check (option int)) "o0 resp idx" (Some 3) (Operation.response_index o0);
  Alcotest.(check int) "o1 inv" 1 o1.Operation.inv;
  Alcotest.(check (option int)) "o1 resp idx" (Some 2) (Operation.response_index o1);
  (* real-time precedence *)
  Alcotest.(check bool) "no precedence o0->o1" false (Operation.precedes o0 o1);
  Alcotest.(check bool) "no precedence o1->o0" false (Operation.precedes o1 o0)

let precedence () =
  let hist = h [ inv 0 Op.read; resi 0 0; inv 1 Op.read; resi 1 0 ] in
  match History.ops hist with
  | [ a; b ] ->
    Alcotest.(check bool) "a precedes b" true (Operation.precedes a b);
    Alcotest.(check bool) "b not precedes a" false (Operation.precedes b a)
  | _ -> Alcotest.fail "expected 2 ops"

let projections () =
  let hist =
    h
      [
        inv ~obj:0 0 (Op.write 1); inv ~obj:1 1 Op.read; res ~obj:0 0 Value.unit;
        res ~obj:1 1 (Value.int 0); inv ~obj:1 0 Op.read; res ~obj:1 0 (Value.int 0);
      ]
  in
  let h0 = History.proj_obj hist 0 in
  let h1 = History.proj_obj hist 1 in
  Alcotest.(check int) "H|o0 events" 2 (History.length h0);
  Alcotest.(check int) "H|o1 events" 4 (History.length h1);
  let hp0 = History.proj_proc hist 0 in
  Alcotest.(check int) "H|p0 events" 4 (History.length hp0);
  Alcotest.(check bool) "H|p0 sequential" true (History.is_sequential hp0)

let index_map () =
  let hist =
    h
      [
        inv ~obj:1 0 Op.read; res ~obj:1 0 (Value.int 0); inv ~obj:0 1 Op.read;
        res ~obj:0 1 (Value.int 0);
      ]
  in
  let m = History.index_map_obj hist 0 in
  Alcotest.(check (list int)) "object-0 events at 2,3" [ 2; 3 ]
    (Array.to_list m)

let prefixes () =
  let hist = h [ inv 0 Op.read; resi 0 0; inv 1 Op.read; resi 1 0 ] in
  Alcotest.(check int) "prefix 0" 0 (History.length (History.prefix hist 0));
  let p = History.prefix hist 3 in
  Alcotest.(check int) "prefix 3 events" 3 (History.length p);
  Alcotest.(check int) "prefix 3 pending" 1 (List.length (History.pending_ops p));
  Alcotest.(check bool) "prefix too long raises" true
    (match History.prefix hist 5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let sequential_behaviour () =
  let hist = seq [ (Op.write 1, Value.unit); (Op.read, Value.int 1) ] in
  Alcotest.(check bool) "is_sequential" true (History.is_sequential hist);
  let b = History.behaviour_of_sequential hist in
  Alcotest.(check int) "behaviour length" 2 (List.length b)

let not_sequential () =
  let hist = h [ inv 0 Op.read; inv 1 Op.read; resi 0 0; resi 1 0 ] in
  Alcotest.(check bool) "concurrent not sequential" false
    (History.is_sequential hist)

let procs_objs () =
  let hist =
    h [ inv ~obj:2 3 Op.read; res ~obj:2 3 (Value.int 0); inv ~obj:0 1 Op.read ]
  in
  Alcotest.(check (list int)) "procs" [ 1; 3 ] (History.procs hist);
  Alcotest.(check (list int)) "objs" [ 0; 2 ] (History.objs hist)

let append () =
  let hist = h [ inv 0 Op.read ] in
  let hist = History.append hist [ resi 0 0 ] in
  Alcotest.(check int) "appended" 2 (History.length hist)

(* --- textio --- *)

let textio_roundtrip () =
  let hist =
    h
      [
        inv 0 (Op.write 1); inv ~obj:1 1 Op.fetch_inc; res 0 Value.unit;
        res ~obj:1 1 (Value.int 0);
        inv 0 (Op.make "odd" ~args:[ Value.pair (Value.str "a") (Value.bool true) ]);
        res 0 (Value.list [ Value.int 1; Value.unit ]);
      ]
  in
  let s = Textio.to_string hist in
  Alcotest.check Support.history "roundtrip" hist (Textio.of_string s)

let textio_comments_blanks () =
  let s = "# a comment\n\ninv 0 0 read\nres 0 0 5\n" in
  let hist = Textio.of_string s in
  Alcotest.(check int) "events" 2 (History.length hist)

let textio_parse_error () =
  Alcotest.(check bool) "bad kind rejected" true
    (match Textio.of_string "zap 0 0 read\n" with
    | exception Textio.Parse_error _ -> true
    | _ -> false)

let textio_file_roundtrip () =
  let hist = paper_fai_family 3 in
  let path = Filename.temp_file "elin" ".hist" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Textio.to_file path hist;
      Alcotest.check Support.history "file roundtrip" hist (Textio.of_file path))

(* property: generated histories always round-trip *)
let textio_roundtrip_prop =
  Support.seeded_prop ~count:100 "generated histories roundtrip" (fun rng ->
      let spec = Register.spec () in
      let hist = Gen.linearizable rng ~spec ~procs:3 ~n_ops:8 () in
      let hist' = Textio.of_string (Textio.to_string hist) in
      List.equal Event.equal (History.events hist) (History.events hist'))

(* --- of_events against the Hashtbl construction it replaced ----------- *)

(* [History.of_events] as it was before validation moved to int arrays,
   kept as the reference: it returns the events, the operations and
   [op_of_event], or raises the same [History.Ill_formed]. *)
let reference_of_events events =
  let events = Array.of_list events in
  let n = Array.length events in
  let op_of_event = Array.make n (-1) in
  let max_proc = Array.fold_left (fun m (e : Event.t) -> max m e.proc) (-1) events in
  let pending = Array.make (max_proc + 1) None in
  let ops = ref [] in
  let n_ops = ref 0 in
  let inv_info = Hashtbl.create 16 in
  Array.iteri
    (fun i (e : Event.t) ->
      match e.payload with
      | Invoke op -> (
        match pending.(e.proc) with
        | Some _ -> raise (History.Ill_formed (Invocation_while_pending i))
        | None ->
          let id = !n_ops in
          incr n_ops;
          pending.(e.proc) <- Some id;
          Hashtbl.replace inv_info id (e.proc, e.obj, op, i);
          op_of_event.(i) <- id)
      | Respond v -> (
        match pending.(e.proc) with
        | None -> raise (History.Ill_formed (Response_without_invocation i))
        | Some id ->
          let proc, obj, op, inv = Hashtbl.find inv_info id in
          if obj <> e.obj then raise (History.Ill_formed (Mismatched_response i));
          pending.(e.proc) <- None;
          op_of_event.(i) <- id;
          ops := { Operation.id; proc; obj; op; inv; resp = Some (v, i) } :: !ops))
    events;
  Array.iteri
    (fun _p -> function
      | None -> ()
      | Some id ->
        let proc, obj, op, inv = Hashtbl.find inv_info id in
        ops := { Operation.id; proc; obj; op; inv; resp = None } :: !ops)
    pending;
  let ops_arr =
    Array.make !n_ops
      { Operation.id = 0; proc = 0; obj = 0; op = Op.read; inv = 0; resp = None }
  in
  List.iter (fun (o : Operation.t) -> ops_arr.(o.id) <- o) !ops;
  (events, ops_arr, op_of_event)

(* A random well-formed event list: up to 4 processes on up to 3
   objects, each process alternating invocations and matching
   responses; some operations may be left pending. *)
let random_events rng =
  let module R = Elin_kernel.Prng in
  let procs = 1 + R.int rng 4 and objs = 1 + R.int rng 3 in
  let open_obj = Array.make procs (-1) in
  List.init (R.int rng 24) (fun _ ->
      let p = R.int rng procs in
      if open_obj.(p) >= 0 then begin
        let obj = open_obj.(p) in
        open_obj.(p) <- -1;
        Event.respond ~proc:p ~obj (Value.int (R.int rng 3))
      end
      else begin
        let obj = R.int rng objs in
        open_obj.(p) <- obj;
        Event.invoke ~proc:p ~obj (R.choose rng [ Op.read; Op.write 1; Op.fetch_inc ])
      end)

(* One random mutation: drop an event, duplicate one, swap two
   adjacent ones, or move one to another process or object. *)
let mutate rng events =
  let module R = Elin_kernel.Prng in
  let a = Array.of_list events in
  let n = Array.length a in
  if n = 0 then events
  else
    let i = R.int rng n in
    let (e : Event.t) = a.(i) in
    match R.int rng 5 with
    | 0 -> List.filteri (fun j _ -> j <> i) events
    | 1 -> List.concat (List.mapi (fun j e -> if j = i then [ e; e ] else [ e ]) events)
    | 2 when n >= 2 ->
      let i = min i (n - 2) in
      let t = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- t;
      Array.to_list a
    | 3 ->
      a.(i) <- { e with proc = (e.proc + 1 + R.int rng 3) mod 4 };
      Array.to_list a
    | _ ->
      a.(i) <- { e with obj = (e.obj + 1 + R.int rng 2) mod 3 };
      Array.to_list a

let of_events_matches_reference =
  Support.seeded_prop ~count:2000 "of_events = Hashtbl reference" (fun rng ->
      let events = random_events rng in
      let events =
        if Elin_kernel.Prng.bool rng then events else mutate rng events
      in
      let outcome f =
        match f () with x -> Ok x | exception History.Ill_formed e -> Error e
      in
      let want = outcome (fun () -> reference_of_events events) in
      let got =
        outcome (fun () ->
            let t = History.of_events events in
            ( History.events_array t,
              History.ops_array t,
              Array.init (History.length t) (History.op_of_event t) ))
      in
      if want <> got then
        QCheck2.Test.fail_reportf "events:@.%a"
          (Format.pp_print_list Event.pp) events;
      true)

let () =
  Alcotest.run "history"
    [
      ( "well-formedness",
        [
          Support.quick "concurrent" well_formed_concurrent;
          Support.quick "pending" pending_operation;
          Support.quick "double invoke" ill_formed_double_invoke;
          Support.quick "orphan response" ill_formed_orphan_response;
          Support.quick "wrong object" ill_formed_wrong_object;
          Support.quick "error rendering" of_events_result_error;
          of_events_matches_reference;
        ] );
      ( "operations",
        [
          Support.quick "indices" operation_indices;
          Support.quick "precedence" precedence;
        ] );
      ( "structure",
        [
          Support.quick "projections" projections;
          Support.quick "index map" index_map;
          Support.quick "prefixes" prefixes;
          Support.quick "sequential behaviour" sequential_behaviour;
          Support.quick "not sequential" not_sequential;
          Support.quick "procs/objs" procs_objs;
          Support.quick "append" append;
        ] );
      ( "textio",
        [
          Support.quick "roundtrip" textio_roundtrip;
          Support.quick "comments/blank lines" textio_comments_blanks;
          Support.quick "parse error" textio_parse_error;
          Support.quick "file roundtrip" textio_file_roundtrip;
          textio_roundtrip_prop;
        ] );
    ]
