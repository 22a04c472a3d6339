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
    the table doubles once it is more than half full.  Tables are
    per-run values, never shared between domains. *)

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

let create ~width ~arity =
  let nw = Bitset.word_count (Bitset.create width) in
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
