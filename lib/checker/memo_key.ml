(** The failure memo shared by the DFS checkers: a set of keys
    (placed-operation set, per-object state vector), stored unboxed.

    Each key is copied into flat growable arrays — [nw] placed words,
    [arity] states and one hash per key — and an [int] slot array
    indexes them by open addressing with linear probing.  A probe reads
    the caller's live [Bitset.t] and state vector, so a lookup allocates
    nothing and an insertion allocates only when the table grows.

    A hit compares the full key: every placed word and [Value.equal] on
    every state.  States are never compared with [==]: ints past the
    interned range and structured values are built afresh by each
    transition ([next] of a deterministic spec, or the list of a
    relational one).  A search that probes a key and later inserts the
    same key passes the probe's hash to {!add_hashed}, so the DFS
    hashes a failed node's key once.

    The arrays start at 16 slots and 8 keys, so for any placed set
    under 32 words every block sits in the minor heap (at most 256
    words) and a small history's check never touches the major heap;
    the table doubles once it is more than half full.

    A run of a DFS checker does not build its own table: {!borrow}
    lends it the spare table its domain keeps, which earlier runs
    already grew, so a min_t gallop's ten or so probes stop regrowing
    a table past the minor heap's 256-word limit on every probe.  A
    table is used by one run at a time: a borrow takes it out of its
    domain's slot, and a nested run or another systhread on the same
    domain finds the slot empty and builds its own. *)

open Elin_kernel
open Elin_spec

type t = {
  nw : int;  (* placed words per key *)
  arity : int;  (* states per key *)
  mutable slots : int array;  (* -1 empty, else a key index *)
  mutable count : int;
  mutable hashes : int array;  (* key index -> hash *)
  mutable words : int array;  (* key k's words at [k * nw, (k + 1) * nw) *)
  mutable states : Value.t array;  (* key k's states at [k * arity, ...) *)
}

let initial_slots = 16

let words_of_width width =
  if width < 0 then invalid_arg "Memo_key: negative width";
  (width + Bitset.bits_per_word - 1) / Bitset.bits_per_word

let create ~width ~arity =
  let nw = words_of_width width in
  let keys = initial_slots / 2 in
  {
    nw;
    arity;
    slots = Array.make initial_slots (-1);
    count = 0;
    hashes = Array.make keys 0;
    words = Array.make (keys * nw) 0;
    states = Array.make (keys * arity) Value.unit;
  }

let length t = t.count

let hash placed states =
  let h = ref (Bitset.hash placed) in
  for k = 0 to Array.length states - 1 do
    h := (!h * 31) + Value.hash states.(k)
  done;
  (* Spread the high bits into the low ones the slot index reads. *)
  let h = !h in
  let h = (h lxor (h lsr 31)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 27)) land max_int

(* The probe loop and its key comparisons are top-level functions, not
   closures: the checkers call them once per DFS child. *)

let rec same_words t base placed k =
  k = t.nw
  || t.words.(base + k) = Bitset.word placed k
     && same_words t base placed (k + 1)

let rec same_states t base states k =
  k = t.arity
  || Value.equal t.states.(base + k) states.(k)
     && same_states t base states (k + 1)

(* The key index of (placed, states), or [-1 - i] for the empty slot
   [i] that ends its probe sequence. *)
let rec probe t placed states h i =
  let e = t.slots.(i) in
  if e < 0 then -1 - i
  else if
    t.hashes.(e) = h
    && same_words t (e * t.nw) placed 0
    && same_states t (e * t.arity) states 0
  then e
  else probe t placed states h ((i + 1) land (Array.length t.slots - 1))

let check_key t placed states =
  if Bitset.word_count placed <> t.nw || Array.length states <> t.arity then
    invalid_arg "Memo_key: key shape differs from the table's"

let mem_hashed t placed states h =
  check_key t placed states;
  probe t placed states h (h land (Array.length t.slots - 1)) >= 0

let mem t placed states = mem_hashed t placed states (hash placed states)

let rec free_slot slots i =
  if slots.(i) < 0 then i
  else free_slot slots ((i + 1) land (Array.length slots - 1))

let grow t =
  let cap = 2 * Array.length t.slots in
  let slots = Array.make cap (-1) in
  for e = 0 to t.count - 1 do
    slots.(free_slot slots (t.hashes.(e) land (cap - 1))) <- e
  done;
  let keys = cap / 2 in
  let hashes = Array.make keys 0 in
  Array.blit t.hashes 0 hashes 0 t.count;
  let words = Array.make (keys * t.nw) 0 in
  Array.blit t.words 0 words 0 (t.count * t.nw);
  let states = Array.make (keys * t.arity) Value.unit in
  Array.blit t.states 0 states 0 (t.count * t.arity);
  t.slots <- slots;
  t.hashes <- hashes;
  t.words <- words;
  t.states <- states

let add_hashed t placed states h =
  check_key t placed states;
  let r = probe t placed states h (h land (Array.length t.slots - 1)) in
  if r >= 0 then false
  else begin
    let i =
      if 2 * (t.count + 1) <= Array.length t.slots then -1 - r
      else begin
        grow t;
        free_slot t.slots (h land (Array.length t.slots - 1))
      end
    in
    let e = t.count in
    t.hashes.(e) <- h;
    for k = 0 to t.nw - 1 do
      t.words.((e * t.nw) + k) <- Bitset.word placed k
    done;
    Array.blit states 0 t.states (e * t.arity) t.arity;
    t.slots.(i) <- e;
    t.count <- e + 1;
    true
  end

let add t placed states = add_hashed t placed states (hash placed states)

let states t =
  List.init t.count (fun e -> Array.sub t.states (e * t.arity) t.arity)

(* Every key was placed at the first free slot on its probe sequence,
   past slots that held keys of lower index, and nothing is removed
   during a run; so, walking the keys from the last inserted down, the
   probe from a key's home slot meets only occupied slots until its
   own.  The states are reset too, so an emptied table keeps no
   checker state alive. *)
let clear t =
  let mask = Array.length t.slots - 1 in
  for e = t.count - 1 downto 0 do
    let i = ref (t.hashes.(e) land mask) in
    while t.slots.(!i) <> e do
      i := (!i + 1) land mask
    done;
    t.slots.(!i) <- -1
  done;
  Array.fill t.states 0 (t.count * t.arity) Value.unit;
  t.count <- 0

(* --- One spare table per domain ------------------------------------ *)

(* A table grown past this many slots is dropped when its run ends
   rather than kept: the 300 svc_check-shaped histories of
   test_checker_pins need at most 890 keys (2 048 slots), and a bound
   twice that lets one costly job pin at most 4 096 slots and 2 048
   keys on a domain (DESIGN.md §4.1 "Memo sizing"). *)
let retained_slots = 4096

(* The empty slot: no key has -1 words, so {!borrow} never takes it
   for a spare of the right shape, and an empty slot costs no option
   box per run. *)
let none =
  {
    nw = -1;
    arity = -1;
    slots = [||];
    count = 0;
    hashes = [||];
    words = [||];
    states = [||];
  }

(* Systhreads share their domain's slot, so it is emptied and refilled
   with atomic operations: a table is never lent twice at once. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make none)

let give_back slot t =
  if Array.length t.slots <= retained_slots then begin
    clear t;
    Atomic.set slot t
  end

let borrow ~width ~arity f =
  let slot = Domain.DLS.get spare in
  let t = Atomic.exchange slot none in
  let t =
    if t.nw = words_of_width width && t.arity = arity then t
    else create ~width ~arity
  in
  match f t with
  | v ->
    give_back slot t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    give_back slot t;
    Printexc.raise_with_backtrace e bt

let spare_slots () = Array.length (Atomic.get (Domain.DLS.get spare)).slots
