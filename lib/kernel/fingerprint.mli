(** Seeded 64-bit fingerprints (FNV-1a with a final avalanche).

    Canonical state encodings are absorbed incrementally; the resulting
    8-byte digest keys the model checker's dedup.  Collisions are
    possible in principle (64-bit digests), so clients treating equal
    fingerprints as equal states are exact only modulo a < 10^-5
    birthday bound at the state counts this repository explores.

    Every absorber comes in one or both of two forms over the same
    per-byte step, so both forms digest a given byte stream alike:

    - {b threaded}: an {!acc} passed in and returned.  The [acc] is an
      [int64], and OCaml 5.1 without flambda boxes an [int64] that
      crosses a call.  The small absorbers are inlined, so a release
      build keeps a chain of them in registers ([start] with a
      [~seed] allocates one box); a dev build ([dune runtest],
      compiled [-opaque]) inlines nothing across modules, and there
      each threaded absorb from another module allocates a 3-word
      box.
    - {b buffer-backed} ([*_at]): the running state is word [i] of a
      caller-owned [Bytes.t] (bytes [8i .. 8i+7]) and the absorber
      returns [unit].  These allocate nothing in either build; use them
      on hot paths and for recursive walks over structured values. *)

type t = int64

(** The in-flight threaded accumulator (an [int64]). *)
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

(** {2 Buffer-backed accumulators}

    [f_at b i x] absorbs [x] into the running state held in word [i]
    of [b], exactly as the threaded [f] would.  Words are native-endian
    and never leave the process. *)

(** [start_at ?seed b i] — word [i] becomes [start ?seed ()]. *)
val start_at : ?seed:int64 -> Bytes.t -> int -> unit

val byte_at : Bytes.t -> int -> int -> unit
val bool_at : Bytes.t -> int -> bool -> unit
val int_at : Bytes.t -> int -> int -> unit
val int64_at : Bytes.t -> int -> int64 -> unit
val string_at : Bytes.t -> int -> string -> unit

(** [word_at b i src j] absorbs word [j] of [src] as {!int64} would. *)
val word_at : Bytes.t -> int -> Bytes.t -> int -> unit

(** [words_at b i src ~pos ~len] absorbs words [pos .. pos+len-1] of
    [src] as {!int64_array} would: the length, then each word. *)
val words_at : Bytes.t -> int -> Bytes.t -> pos:int -> len:int -> unit

(** [digest_at b i src j] absorbs [finish] of the running state in word
    [j] of [src] (left unchanged), as {!int64} would. *)
val digest_at : Bytes.t -> int -> Bytes.t -> int -> unit

(** [finish_at b i] — word [i] becomes its {!finish}. *)
val finish_at : Bytes.t -> int -> unit

(** Read and write word [i] directly. *)
val word : Bytes.t -> int -> t

val set_word : Bytes.t -> int -> t -> unit

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
