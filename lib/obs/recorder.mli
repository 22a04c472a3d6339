(** Flight recorder: bounded per-domain rings of recent cold-path
    events, {e always on}, dumped post-mortem when something goes
    wrong.

    {2 Contract}

    Unlike {!Trace} (opt-in, unbounded growth) the recorder runs by
    default in every process with a hard memory bound: one 256-slot
    ring per {e live} domain, overwritten oldest-first.  A domain that
    exits hands its ring (entries intact) to the next domain that
    notes, so a process that spawns domains over and over keeps at most
    as many rings as it ever had noting domains alive at once.  Entries
    are kept as bytes in buffers the ring owns, so a note retains
    nothing allocated by a domain that later exits.  [note] is for
    {e cold} sites only — per-job, per-frame, per-segment,
    per-checkpoint — never per-state or per-access; each note is one
    clock read, rendering its args, and a copy into the ring.

    {2 Dumps}

    Nothing is ever written unless a sink is configured
    ([set_sink], the [--flight FILE] CLI flag).  [dump] appends a
    JSONL block to the sink: a header line
    [{"flight":"elin.flight","reason":...,"job":...,"t0":...,
    "events":N}] followed by one line per ring entry (ts rebased to
    the oldest entry), merged across domains and sorted by time.
    Dump sites: checker crash ([failed] verdict), job timeout,
    protocol error on the wire, and SIGUSR1. *)

type entry = {
  ts : int64;  (** Clock ns *)
  dom : int;   (** recording domain *)
  kind : string;  (** e.g. ["job.start"], ["net.protocol_error"] *)
  id : string;    (** usually a job id; [""] when not applicable *)
  args : (string * Jsonl.t) list;
}

val on : unit -> bool

(** Bench A/B only — the recorder is meant to stay on in production. *)
val set_enabled : bool -> unit

(** [note kind ~id ~args] — append to the calling domain's ring,
    overwriting the oldest entry when full.  Safe from any domain or
    thread (each systhread on a domain shares that domain's ring; an
    interleaving of threads can cost or garble one entry, never memory
    safety).  [kind] and [id] are cut to 65 535 bytes. *)
val note : ?id:string -> ?args:(string * Jsonl.t) list -> string -> unit

(** Rings allocated so far: the peak number of domains that were
    noting at the same time. *)
val rings : unit -> int

(** Merged snapshot of every domain's ring, oldest first.  Racy reads
    of other domains' rings are memory-safe; entries may be a moment
    stale, and one being rewritten during the read may be skipped or
    garbled. *)
val entries : unit -> entry list

(** Reset all rings (tests). *)
val clear : unit -> unit

(** The JSONL block a dump writes (header line + entries); exposed for
    tests. *)
val to_jsonl : reason:string -> ?job:string -> unit -> Jsonl.t list

(** Configure the dump sink path ([None] disables dumping — the
    default). *)
val set_sink : string option -> unit

(** Append a dump block to the sink; no-op when no sink is set.
    Serialized across domains. *)
val dump : reason:string -> ?job:string -> unit -> unit

(** Dumps performed so far in this process. *)
val dump_count : unit -> int

(** Install a SIGUSR1 handler that dumps with reason ["sigusr1"]. *)
val install_sigusr1 : unit -> unit
