(* Slot [i] is bytes [16i, 16i + 16) of [slots]: the key, then the
   payload.  A zero key word marks an empty slot, so the fingerprint
   0L cannot live in a slot; it lives in [zero]/[zero_val] instead.
   Every accessor below is inlined so that keys loaded from the buffer
   stay unboxed: a probe allocates nothing. *)

type t = {
  mutable slots : Bytes.t;
  mutable mask : int;  (* capacity - 1; the capacity is a power of two *)
  mutable count : int;  (* occupied slots; 0L is not counted here *)
  mutable zero : bool;  (* 0L is a member *)
  mutable zero_val : int;
}

let slot_bytes = 16

(* 256 bytes: small enough for the minor heap, so a table that stays
   small never touches the major heap. *)
let initial_capacity = 16

let create () =
  {
    slots = Bytes.make (initial_capacity * slot_bytes) '\000';
    mask = initial_capacity - 1;
    count = 0;
    zero = false;
    zero_val = 0;
  }

let[@inline] key slots i = Bytes.get_int64_le slots (i * slot_bytes)

let[@inline] payload slots i =
  Int64.to_int (Bytes.get_int64_le slots ((i * slot_bytes) + 8))

let[@inline] set_slot slots i k v =
  Bytes.set_int64_le slots (i * slot_bytes) k;
  Bytes.set_int64_le slots ((i * slot_bytes) + 8) (Int64.of_int v)

(* The slot holding [k] (non-zero), or the empty slot that ends its
   probe sequence.  The home slot is the low bits of the mixed word;
   the owner shard is its high bits. *)
let[@inline] locate slots mask k =
  let i = ref (Int64.to_int (Fingerprint.mix k) land mask) in
  while
    let k' = key slots !i in
    not (Int64.equal k' k || Int64.equal k' 0L)
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let old = t.slots and old_cap = t.mask + 1 in
  let mask = (2 * old_cap) - 1 in
  let slots = Bytes.make ((mask + 1) * slot_bytes) '\000' in
  for i = 0 to old_cap - 1 do
    let k = key old i in
    if not (Int64.equal k 0L) then
      set_slot slots (locate slots mask k) k (payload old i)
  done;
  t.slots <- slots;
  t.mask <- mask

let length t = t.count + Bool.to_int t.zero

let mem t k =
  if Int64.equal k 0L then t.zero
  else not (Int64.equal (key t.slots (locate t.slots t.mask k)) 0L)

(* Fills the empty slot [i] found by [locate]; keeps the load at most
   one half. *)
let insert t i k v =
  set_slot t.slots i k v;
  t.count <- t.count + 1;
  if 2 * t.count > t.mask + 1 then grow t

let add t k v =
  if Int64.equal k 0L then
    if t.zero then false
    else begin
      t.zero <- true;
      t.zero_val <- v;
      true
    end
  else
    let i = locate t.slots t.mask k in
    if Int64.equal (key t.slots i) 0L then begin
      insert t i k v;
      true
    end
    else false

let replace t k v =
  if Int64.equal k 0L then begin
    t.zero <- true;
    t.zero_val <- v
  end
  else
    let i = locate t.slots t.mask k in
    if Int64.equal (key t.slots i) 0L then insert t i k v
    else set_slot t.slots i k v

let find t k =
  if Int64.equal k 0L then if t.zero then t.zero_val else raise Not_found
  else
    let i = locate t.slots t.mask k in
    if Int64.equal (key t.slots i) 0L then raise Not_found
    else payload t.slots i

let iter f t =
  if t.zero then f 0L t.zero_val;
  let slots = t.slots in
  for i = 0 to t.mask do
    let k = key slots i in
    if not (Int64.equal k 0L) then f k (payload slots i)
  done

let clear t =
  if t.count > 0 then Bytes.fill t.slots 0 (Bytes.length t.slots) '\000';
  t.count <- 0;
  t.zero <- false
