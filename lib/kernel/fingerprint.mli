(** Seeded 64-bit fingerprints (FNV-1a with a final avalanche).

    Canonical state encodings are absorbed incrementally into an
    allocation-free accumulator; the resulting 8-byte digest keys the
    model checker's visited set.  Collisions are possible in principle
    (64-bit digests), so clients treating equal fingerprints as equal
    states are exact only modulo a < 10^-5 birthday bound at the state
    counts this repository explores. *)

type t = int64

(** The in-flight accumulator: a plain immutable [int64]. *)
type acc

(** [start ?seed ()] — a fresh accumulator.  Distinct seeds yield
    statistically independent fingerprint families. *)
val start : ?seed:int64 -> unit -> acc

val byte : acc -> int -> acc
val int : acc -> int -> acc
val int64 : acc -> int64 -> acc
val bool : acc -> bool -> acc
val string : acc -> string -> acc

(** Length-prefixed sequence absorption: [[x]; [y]] and [[x; y]] cannot
    encode alike. *)
val list : (acc -> 'a -> acc) -> acc -> 'a list -> acc

val array : (acc -> 'a -> acc) -> acc -> 'a array -> acc

(** Flat-array absorbers (length-prefixed) for pre-packed state
    vectors — no closure, no per-element dispatch. *)
val int64_array : acc -> int64 array -> acc

val int_array : acc -> int array -> acc

val finish : acc -> t

(** [mix fp] — an independent full avalanche of a finished
    fingerprint.  Consumers that index structures by disjoint bit
    ranges of one fingerprint (owner shards, bucket indices) must
    carve up [mix fp], not [fp]: remixing guarantees uniform dispersion
    even for fingerprint families with fixed raw bits, and reading
    disjoint ranges of the same mixed word keeps the two indices
    alias-free by construction. *)
val mix : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val to_hex : t -> string
val pp : Format.formatter -> t -> unit
