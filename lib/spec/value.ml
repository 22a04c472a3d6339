(** Universal values.

    Operations, responses and object states across the whole
    reproduction are drawn from this single type so that histories over
    heterogeneous objects can be stored, hashed, compared and printed
    uniformly — the checkers and the execution-tree explorers depend on
    structural equality and hashing of states.  Typed front-ends (e.g.
    [Elin_runtime.Api.Faicounter]) wrap it. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

(* --- Atom interning ------------------------------------------------

   The model checker's hot path compares and hashes values millions of
   times ([Memo_key] lookups, canonical fingerprints, dedup of
   adversary choices).  The atoms it actually meets — unit, booleans,
   small ints, the empty list — are hash-consed into immutable pools
   built once at module initialization, so the smart constructors
   return physically shared representatives and [equal] can short-cut
   on [==] before falling back to the structural walk.  The pools are
   immutable after initialization, hence safe to read from any number
   of OCaml 5 domains with no locking; values built directly through
   the (public) constructors simply miss the fast path, never
   correctness. *)

let unit = Unit

let atom_true = Bool true
let atom_false = Bool false
let bool b = if b then atom_true else atom_false

let small_lo = -256
let small_hi = 1024
let small_ints = Array.init (small_hi - small_lo + 1) (fun i -> Int (small_lo + i))
let int n = if n >= small_lo && n <= small_hi then small_ints.(n - small_lo) else Int n

let str s = Str s
let pair a b = Pair (a, b)

let nil = List []
let list = function [] -> nil | xs -> List xs

(* Structural equality/comparison/hashing are exactly what we need:
   values contain no functions or cycles.  [equal] takes the
   physical-equality fast path first — interned atoms (and any shared
   substructure) succeed without a walk — then compares two ints
   without calling the polymorphic [caml_equal], which is what a
   checker pays to reject a fixed int response. *)
let equal (a : t) (b : t) =
  a == b || match (a, b) with Int x, Int y -> x = y | _ -> a = b

(* [compare] must remain exactly [Stdlib.compare]: adversary-choice
   dedup ([Ev_base]), verdict ordering and the seeded [Base.pick] all
   observe this order, and committed golden outputs depend on it. *)
let compare (a : t) (b : t) = Stdlib.compare a b

let hash (a : t) =
  (* Atom fast paths: no polymorphic-hash dispatch for the common
     cases.  Constants chosen to spread small ints; every path must be
     a function of the value's structure only (interning-oblivious).
     The values are in-process only — they differ from [Hashtbl.hash]
     on atoms and are not stable across versions, so never persist
     them or compare them against a polymorphic hash. *)
  match a with
  | Unit -> 0x2e5a
  | Bool false -> 0x3d71
  | Bool true -> 0x58c9
  | Int n -> (n * 0x2545f) land max_int
  | _ -> Hashtbl.hash a

exception Type_error of string

let type_error expected got =
  raise
    (Type_error
       (Format.asprintf "expected %s, got %a" expected
          (fun ppf v ->
            match v with
            | Unit -> Format.fprintf ppf "unit"
            | Bool _ -> Format.fprintf ppf "bool"
            | Int _ -> Format.fprintf ppf "int"
            | Str _ -> Format.fprintf ppf "string"
            | Pair _ -> Format.fprintf ppf "pair"
            | List _ -> Format.fprintf ppf "list")
          got))

let to_int = function Int n -> n | v -> type_error "int" v
let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_str = function Str s -> s | v -> type_error "string" v
let to_pair = function Pair (a, b) -> (a, b) | v -> type_error "pair" v
let to_list = function List xs -> xs | v -> type_error "list" v
let to_unit = function Unit -> () | v -> type_error "unit" v

let rec pp ppf = function
  | Unit -> Format.fprintf ppf "()"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | List xs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      xs

let to_string v = Format.asprintf "%a" pp v
