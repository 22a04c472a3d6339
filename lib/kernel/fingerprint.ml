(** Seeded 64-bit fingerprints (FNV-1a).

    The model checker keys its dedup on fingerprints of canonical
    state encodings rather than on the states themselves: a fingerprint
    is 8 bytes however large the configuration, and the accumulator
    absorbs the encoding incrementally so no intermediate buffer is
    built.  FNV-1a is not cryptographic; with 64-bit digests the
    birthday bound for the state counts we explore (well under 10^7
    states) keeps the collision probability below 10^-5, and
    {!Elin_mc}'s documentation spells out that dedup soundness is
    modulo such collisions.

    Every absorber is a loop of one per-byte step ([step] below), in
    one of two forms:

    - threaded: an [acc] value passed in and returned.  This toolchain
      (OCaml 5.1, no flambda) boxes an [int64] that crosses a call
      boundary, so each threaded absorb allocates a 3-word box unless
      the call is inlined.  The small absorbers are [@inline]: in a
      release build a chain of them, loops included, runs in registers
      ([start] with a [~seed] boxes once).  A dev build ([dune
      runtest]) compiles with [-opaque] and inlines nothing across
      modules, so there every threaded absorb called from another
      module allocates.
    - buffer-backed ([*_at]): the running state is word [i] (bytes
      [8i .. 8i+7], native order) of a caller-owned [Bytes.t], and the
      absorber returns [unit].  Nothing crosses a call boundary as an
      [int64], so these allocate nothing in either build.  Recursive
      walks over structured values use this form.

    Both forms are safe to use from several domains at once as long
    as no two domains share a buffer. *)

type t = int64

(* FNV-1a 64-bit parameters. *)
let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

type acc = int64

(* ------------------------------------------------------------------ *)
(* The FNV-1a step and its loops: the one definition both forms use.   *)
(* ------------------------------------------------------------------ *)

let[@inline] step (a : int64) b =
  Int64.mul (Int64.logxor a (Int64.of_int (b land 0xff))) prime

(* All 8 bytes of [x], little-endian. *)
let[@inline] step_int64 (a : int64) (x : int64) =
  let a = ref a in
  for i = 0 to 7 do
    a := step !a (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !a

(* [Int64.of_int n], little-endian: [asr] replicates the sign bit that
   [Int64.of_int] extends into bit 63. *)
let[@inline] step_int (a : int64) n =
  let a = ref a in
  for i = 0 to 7 do
    a := step !a (n asr (8 * i))
  done;
  !a

let[@inline] step_string (a : int64) s =
  let a = ref (step_int a (String.length s)) in
  for i = 0 to String.length s - 1 do
    a := step !a (Char.code (String.unsafe_get s i))
  done;
  !a

(* A final avalanche round (splitmix64-style) so that short inputs
   differing in one low byte still spread across all 64 bits. *)
let[@inline] avalanche (z : int64) =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* ------------------------------------------------------------------ *)
(* Threaded accumulators.                                              *)
(* ------------------------------------------------------------------ *)

(* Its optional argument keeps [start] out of line, so without a seed
   it returns the preallocated basis rather than a fresh box. *)
let start ?seed () : acc =
  match seed with
  | None -> offset_basis
  | Some seed -> Int64.logxor offset_basis seed

let[@inline] byte (a : acc) b : acc = step a b
let[@inline] int64 (a : acc) (x : int64) : acc = step_int64 a x
let[@inline] int (a : acc) (n : int) : acc = step_int a n
let[@inline] bool (a : acc) (b : bool) : acc = step a (if b then 1 else 0)
let[@inline] string (a : acc) (s : string) : acc = step_string a s

(** [list f a xs] absorbs the length then each element — length-prefixed
    so that [[x]; [y]] and [[x; y]] cannot encode alike. *)
let list f (a : acc) xs : acc =
  List.fold_left f (int a (List.length xs)) xs

let array f (a : acc) xs : acc =
  Array.fold_left f (int a (Array.length xs)) xs

let int64_array (a : acc) (xs : int64 array) : acc =
  let a = ref (step_int a (Array.length xs)) in
  for i = 0 to Array.length xs - 1 do
    a := step_int64 !a (Array.unsafe_get xs i)
  done;
  !a

let int_array (a : acc) (xs : int array) : acc =
  let a = ref (step_int a (Array.length xs)) in
  for i = 0 to Array.length xs - 1 do
    a := step_int !a (Array.unsafe_get xs i)
  done;
  !a

let[@inline] finish (a : acc) : t = avalanche a

(* ------------------------------------------------------------------ *)
(* Buffer-backed accumulators.                                         *)
(* ------------------------------------------------------------------ *)

let[@inline] word b i : t = Bytes.get_int64_ne b (i lsl 3)
let[@inline] set_word b i (x : t) = Bytes.set_int64_ne b (i lsl 3) x

let start_at ?(seed = 0L) b i = set_word b i (Int64.logxor offset_basis seed)
let[@inline] byte_at b i x = set_word b i (step (word b i) x)
let[@inline] bool_at b i x = set_word b i (step (word b i) (if x then 1 else 0))
let[@inline] int_at b i n = set_word b i (step_int (word b i) n)
let int64_at b i x = set_word b i (step_int64 (word b i) x)
let string_at b i s = set_word b i (step_string (word b i) s)
let[@inline] word_at b i src j = set_word b i (step_int64 (word b i) (word src j))

let words_at b i src ~pos ~len =
  let a = ref (step_int (word b i) len) in
  for j = pos to pos + len - 1 do
    a := step_int64 !a (word src j)
  done;
  set_word b i !a

let digest_at b i src j =
  set_word b i (step_int64 (word b i) (avalanche (word src j)))

let[@inline] finish_at b i = set_word b i (avalanche (word b i))

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
