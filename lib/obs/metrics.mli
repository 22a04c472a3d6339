(** Process-wide metrics registry: counters, gauges, and log2-bucketed
    histograms, named by dotted strings ("mc.states", "svc.queue").

    {2 Concurrency}

    Counters and histograms are {e domain-sharded}: a bump touches one
    [Atomic] cell picked by the calling domain's id, so domains never
    contend on a hot counter; [snapshot] merges the shards.  Gauges
    are a single cell (last write wins — they record level, not
    volume).

    {2 Cost contract}

    Registration ([counter]/[gauge]/[histogram]) takes a mutex and is
    meant for module-initialization time.  Bumps are one atomic RMW
    and never allocate.  Hot paths (per-state, per-access) must still
    guard with [if Metrics.on () then ...] — one atomic load — so the
    disabled mode pays a single branch; cold paths (per-run, per-job)
    may bump unconditionally. *)

(** The hot-path guard flag.  [enable]/[disable] flip it; bumps on
    metrics handles work regardless — the flag only tells
    instrumentation sites whether anyone is going to read the
    registry. *)
val on : unit -> bool

val enable : unit -> unit
val disable : unit -> unit

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit

  (** Merged total across shards.  Not a consistent cut under
      concurrent bumps — fine for progress display and end-of-run
      snapshots. *)
  val value : t -> int

  (** The calling domain's own shard — lets a worker compute "what did
      {e this} domain add since [v0]" without a merge (used for the
      aggregated POR-pruned trace instants). *)
  val shard_value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  (** A standalone (unregistered) histogram, for per-run populations
      that shouldn't live in the process-wide registry (an [elin load]
      run's client-side latencies).  Same sharding and bucket algebra
      as registered ones. *)
  val create : unit -> t

  (** [observe h v] — count [v] into its log2 bucket and add it to the
      running sum.  Negative and zero values land in bucket 0. *)
  val observe : t -> int -> unit

  (** [(count, sum, buckets)] merged across shards; [buckets] is the
      nonzero [(bucket index, count)] list, ascending.  Feed to
      {!quantile}. *)
  val merged : t -> int * int * (int * int) list

  (** Zero the histogram (standalone ones aren't reached by
      {!Metrics.reset}). *)
  val reset : t -> unit

  (** Bucket index of a value: 0 for [v <= 0], otherwise
      [floor(log2 v) + 1] capped at 63 — bucket [i >= 1] holds
      [2^(i-1) .. 2^i - 1]. *)
  val bucket_of : int -> int

  val bucket_lower : int -> int
  val bucket_upper : int -> int
end

(** Find-or-create; [Invalid_argument] if the name is already
    registered as a different kind. *)
val counter : string -> Counter.t

val gauge : string -> Gauge.t
val histogram : string -> Histogram.t

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of {
      count : int;
      sum : int;
      buckets : (int * int) list;  (** (bucket index, count), nonzero only *)
    }

(** All registered metrics, shards merged, sorted by name. *)
val snapshot : unit -> (string * value) list

val find : string -> value option

(** Nearest-rank quantile over merged histogram buckets, reported as
    the bucket's upper edge (a [<=] bound, honest about log2
    resolution).  [q] in [0..1]; 0 when [count = 0]. *)
val quantile : count:int -> buckets:(int * int) list -> float -> int

(** One JSONL object per metric, canonical key order
    ([metric], [type], then kind-specific fields), sorted by name.
    Histograms carry [count]/[sum]/[p50]/[p99]/[buckets]. *)
val to_jsonl : unit -> Jsonl.t list

val write_jsonl : out_channel -> unit

(** Zero every registered metric (registrations survive).  Tests and
    repeated bench modes. *)
val reset : unit -> unit
