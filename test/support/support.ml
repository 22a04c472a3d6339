(** Shared helpers for the test suites. *)

open Elin_spec
open Elin_history

(* --- Alcotest testables --- *)

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let op : Op.t Alcotest.testable = Alcotest.testable Op.pp Op.equal

let history : History.t Alcotest.testable =
  Alcotest.testable History.pp (fun a b ->
      List.equal Event.equal (History.events a) (History.events b))

(* --- Event shorthand --- *)

let inv ?(obj = 0) proc o = Event.invoke ~proc ~obj o
let res ?(obj = 0) proc v = Event.respond ~proc ~obj v
let resi ?obj proc n = res ?obj proc (Value.int n)

let h events = History.of_events events

(** A sequential single-process history from op names/responses. *)
let seq ?(proc = 0) ?(obj = 0) behaviour =
  History.of_behaviour ~proc ~obj behaviour

(* --- The paper's running examples --- *)

(** Section 3.2's fetch&increment family: p gets 0, then q gets
    0, 1, ..., k-1.  Every finite instance is 2-linearizable but not
    linearizable (for k >= 2). *)
let paper_fai_family k =
  h
    ([ inv 0 Op.fetch_inc; resi 0 0 ]
    @ List.concat_map
        (fun i -> [ inv 1 Op.fetch_inc; resi 1 i ])
        (List.init k (fun i -> i)))

(** A partial spec: test&set that admits no second test&set, so a
    sequence holding two of them has no transition. *)
let test_and_set_once =
  Spec.make ~name:"test&set-once" ~initial:(Value.int 0)
    ~apply:(fun q op ->
      match Op.name op with
      | "test&set" when Value.equal q (Value.int 0) ->
        [ (Value.int 0, Value.int 1) ]
      | "test&set" -> []
      | other -> invalid_arg ("test&set-once: unknown operation " ^ other))
    ~all_ops:[ Op.test_and_set ]

(* --- QCheck plumbing --- *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(** Seeded-run property: [prop] receives a fresh [Prng.t]. *)
let seeded_prop ?(count = 200) name prop =
  qtest ~count name Gen.qcheck_seed (fun seed ->
      prop (Elin_kernel.Prng.create seed))

let check_bool name expected actual () =
  Alcotest.(check bool) name expected actual

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Allocation --- *)

(** Words this domain allocated straight into the major heap while [f]
    ran: major words minus the ones promoted from the minor heap.
    OCaml 5.1's [Gc.counters] count only the calling domain. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

(* --- Naive sequential references for the exhaustive searches --- *)

(* Plain recursive walks of the transition semantics, written beside
   the differential tests that compare [Elin_mc]'s searches against
   them: no dedup, no reduction, no parallelism. *)

type walk = { nodes : int; leaves : int; truncated : int }

(** [leaf_walk impl c0 ~budget f] — the execution tree below [c0]:
    [f] sees every leaf, once per schedule: finished configurations and
    those cut at [budget] total steps. *)
let leaf_walk impl c0 ~budget f =
  let open Elin_explore in
  let nodes = ref 0 and leaves = ref 0 and truncated = ref 0 in
  let rec go (c : Explore.config) =
    incr nodes;
    if Explore.is_done c then begin
      incr leaves;
      f c
    end
    else if c.Explore.steps >= budget then begin
      incr leaves;
      incr truncated;
      f c
    end
    else List.iter go (Explore.successors impl c)
  in
  go c0;
  { nodes = !nodes; leaves = !leaves; truncated = !truncated }

(** [valency_decisions p c ~max_steps] — the distinct decision vectors
    of the paths below [c] that decide within [max_steps] total steps,
    in first-found order, and whether every path did. *)
let valency_decisions p c ~max_steps =
  let open Elin_valency in
  let found = ref [] and terminated = ref true in
  let rec go (c : Valency.config) =
    if Valency.all_decided c then begin
      let d =
        Array.map
          (function Valency.Decided v -> v | Valency.Running _ -> assert false)
          c.Valency.procs
      in
      if not (List.mem d !found) then found := d :: !found
    end
    else if c.Valency.steps >= max_steps then terminated := false
    else
      List.iter
        (fun i -> List.iter go (Valency.step p c i))
        (Valency.runnable c)
  in
  go c;
  (List.rev !found, !terminated)
