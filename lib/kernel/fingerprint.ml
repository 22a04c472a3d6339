(** Seeded 64-bit fingerprints (FNV-1a).

    The model checker keys its visited set on fingerprints of canonical
    state encodings rather than on the states themselves: a fingerprint
    is 8 bytes however large the configuration, and the accumulator
    absorbs the encoding incrementally so no intermediate buffer is
    built.  FNV-1a is not cryptographic; with 64-bit digests the
    birthday bound for the state counts we explore (well under 10^7
    states) keeps the collision probability below 10^-5, and
    {!Elin_mc}'s documentation spells out that dedup soundness is
    modulo such collisions.

    The accumulator is a plain [int64], so threading it through a fold
    allocates nothing and is trivially safe to use from several domains
    at once. *)

type t = int64

(* FNV-1a 64-bit parameters. *)
let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

type acc = int64

let start ?(seed = 0L) () : acc = Int64.logxor offset_basis seed

let byte (a : acc) b : acc =
  Int64.mul (Int64.logxor a (Int64.of_int (b land 0xff))) prime

(** [int64 a x] absorbs all 8 bytes of [x], little-endian. *)
let int64 (a : acc) (x : int64) : acc =
  let a = ref a in
  for i = 0 to 7 do
    a := byte !a (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !a

let int (a : acc) (n : int) : acc = int64 a (Int64.of_int n)

let bool (a : acc) (b : bool) : acc = byte a (if b then 1 else 0)

let string (a : acc) (s : string) : acc =
  let a = ref (int a (String.length s)) in
  String.iter (fun c -> a := byte !a (Char.code c)) s;
  !a

(** [list f a xs] absorbs the length then each element — length-prefixed
    so that [[x]; [y]] and [[x; y]] cannot encode alike. *)
let list f (a : acc) xs : acc =
  List.fold_left f (int a (List.length xs)) xs

let array f (a : acc) xs : acc =
  Array.fold_left f (int a (Array.length xs)) xs

(** Flat-array absorbers for pre-packed state vectors: the model
    checker folds per-process/per-object summaries into [int64 array]s
    once and re-absorbs only the flat words on every fingerprint, so
    the hot path never re-walks structured values. *)
let int64_array (a : acc) (xs : int64 array) : acc =
  let a = ref (int a (Array.length xs)) in
  for i = 0 to Array.length xs - 1 do
    a := int64 !a (Array.unsafe_get xs i)
  done;
  !a

let int_array (a : acc) (xs : int array) : acc =
  let a = ref (int a (Array.length xs)) in
  for i = 0 to Array.length xs - 1 do
    a := int !a (Array.unsafe_get xs i)
  done;
  !a

let finish (a : acc) : t =
  (* A final avalanche round (splitmix64-style) so that short inputs
     differing in one low byte still spread across all 64 bits. *)
  let z = a in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* One more full avalanche over an already-finished fingerprint.
   Fingerprints come out of [finish] well-mixed, but consumers that
   carve them into disjoint bit ranges (the owner-shard index and any
   low-bit bucket index) must not key on raw bits: a state family
   whose encodings fix some low bits would then collapse onto one
   bucket (or one shard).  Remixing gives every consumer an
   independent view; indices that read disjoint ranges of the SAME
   mixed word never alias.  Inlined, so a consumer that only carves
   bits out of the mixed word allocates no box for it. *)
let[@inline] mix (z : t) : t =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let equal = Int64.equal
let compare = Int64.compare

let to_hex (t : t) = Printf.sprintf "%016Lx" t

let pp ppf t = Format.fprintf ppf "%s" (to_hex t)
