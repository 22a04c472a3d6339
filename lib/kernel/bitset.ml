(** Mutable fixed-width bitsets.

    The linearizability checkers keep "the set of operations already
    placed" in one of these along the DFS path: [set] when an operation
    is placed, [clear] on backtrack, so a node expansion allocates no
    set of its own.  Widths are small (tens to a few hundred bits) but
    exceed 63, so we back the set with an int array.  The failure memo
    ([Elin_checker.Memo_key]) copies the live words into its own flat
    storage through {!word_count} and {!word}. *)

type t = { width : int; words : int array }

let bits_per_word = 62 (* stay clear of the tag bit and sign *)

(* [bit_index]: OCaml 5.1 has no count-trailing-zeros, but 2 is a
   primitive root modulo 67, so the powers 2^0 .. 2^61 are distinct
   modulo 67 and one table lookup inverts them.  The table is
   immutable after initialization, so any domain may read it. *)
let log2_mod67 =
  let a = Array.make 67 (-1) in
  for i = 0 to bits_per_word - 1 do
    a.((1 lsl i) mod 67) <- i
  done;
  a

let bit_index b = log2_mod67.(b mod 67)

let nwords width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make (nwords width) 0 }

(* The error path is a function of its own so that [check_index]
   stays small enough to inline into [mem]/[set]/[clear], which the
   checkers' DFS calls several times per node. *)
let out_of_range t i =
  invalid_arg (Printf.sprintf "Bitset: index %d out of width %d" i t.width)

let[@inline] check_index t i = if i < 0 || i >= t.width then out_of_range t i

let mem t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let set t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let word_count t = Array.length t.words
let word t k = t.words.(k)

let cardinal t =
  let count_word w =
    let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
    go 0 w
  in
  Array.fold_left (fun acc w -> acc + count_word w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b = a.width = b.width && a.words = b.words

let hash t =
  let h = ref t.width in
  for k = 0 to Array.length t.words - 1 do
    h := (!h * 31) + t.words.(k)
  done;
  !h land max_int

(** [is_full t] holds when every index in [0, width) is present. *)
let is_full t = cardinal t = t.width

let fold f t init =
  let acc = ref init in
  for i = 0 to t.width - 1 do
    if mem t i then acc := f i !acc
  done;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list width xs =
  let t = create width in
  List.iter (set t) xs;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (to_list t)
