(* Hot tier (one Shard_set shard per shard) + sealed sorted segments.
   Invariant: within a shard, hot and every segment are pairwise
   disjoint sets, so membership = hot hit or any-segment probe hit,
   and a flush is a pure representation change.  Shards are routed by
   the hot tier's own Shard_set.owner. *)

module Shard_set = Elin_kernel.Shard_set
module Metrics = Elin_obs.Metrics
module Trace = Elin_obs.Trace
module Recorder = Elin_obs.Recorder
module Jsonl = Elin_obs.Jsonl

type shard_state = {
  mutable readers : Segment.reader list;
  mutable seq : int;  (* next segment sequence number *)
  mutable spilled : int;
  mutable flushes : int;
  mutable disk_probes : int;
  mutable disk_probe_hits : int;
}

type t = {
  dir : string;
  hot : Shard_set.t;
  shard_states : shard_state array;
  hot_capacity : int;
  m_flushes : Metrics.Counter.t;
  m_spilled : Metrics.Counter.t;
  m_disk_probes : Metrics.Counter.t;
  m_disk_hits : Metrics.Counter.t;
  g_segments : Metrics.Gauge.t;
  g_disk_bytes : Metrics.Gauge.t;
  g_hot : Metrics.Gauge.t;
}

let seg_name ~shard ~seq = Printf.sprintf "visited-s%d-%d.seg" shard seq

let parse_seg_name name =
  try Scanf.sscanf name "visited-s%d-%d.seg%!" (fun s q -> Some (s, q))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let fresh_shard () =
  {
    readers = [];
    seq = 0;
    spilled = 0;
    flushes = 0;
    disk_probes = 0;
    disk_probe_hits = 0;
  }

let make ~dir ~shards ~hot_capacity =
  if shards < 1 then invalid_arg "Tiered_set: shards must be >= 1";
  if hot_capacity < 1 then invalid_arg "Tiered_set: hot_capacity must be >= 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  {
    dir;
    hot = Shard_set.create ~shards ();
    shard_states = Array.init shards (fun _ -> fresh_shard ());
    hot_capacity;
    m_flushes = Metrics.counter "store.flushes";
    m_spilled = Metrics.counter "store.spilled";
    m_disk_probes = Metrics.counter "store.disk_probes";
    m_disk_hits = Metrics.counter "store.disk_probe_hits";
    g_segments = Metrics.gauge "store.segments";
    g_disk_bytes = Metrics.gauge "store.disk_bytes";
    g_hot = Metrics.gauge "store.hot_entries";
  }

let create ~dir ~shards ~hot_capacity () = make ~dir ~shards ~hot_capacity

let open_existing ~dir ~shards ~hot_capacity ~segments () =
  let t = make ~dir ~shards ~hot_capacity in
  List.iter
    (fun name ->
      match parse_seg_name name with
      | None ->
          invalid_arg
            (Printf.sprintf "Tiered_set: unparseable segment name %S" name)
      | Some (shard, seq) ->
          if shard < 0 || shard >= shards then
            invalid_arg
              (Printf.sprintf
                 "Tiered_set: segment %S routes to shard %d of %d" name shard
                 shards);
          let s = t.shard_states.(shard) in
          let r = Segment.open_reader ~dir ~name in
          s.readers <- r :: s.readers;
          s.seq <- max s.seq (seq + 1);
          s.spilled <- s.spilled + Segment.length r;
          if Metrics.on () then begin
            Metrics.Gauge.add t.g_segments 1;
            Metrics.Gauge.add t.g_disk_bytes (Segment.file_bytes r)
          end)
    segments;
  (* Newest first, to mirror the order create-path flushes build. *)
  Array.iter
    (fun s ->
      s.readers <-
        List.sort
          (fun a b -> compare (Segment.name b) (Segment.name a))
          s.readers)
    t.shard_states;
  t

let shards t = Shard_set.shards t.hot

let owner t fp = Shard_set.owner t.hot fp

(* [fp] is in one of [readers]; [hash] is its filter hash. *)
let rec mem_any readers ~hash fp =
  match readers with
  | [] -> false
  | r :: rest -> Segment.mem r ~hash fp || mem_any rest ~hash fp

(* Out of line, so that a probe builds its span's arguments only when
   tracing is on. *)
let[@inline never] probe_span ts hit =
  Trace.complete ~cat:"store" ~ts "store.probe"
    ~args:[ ("hit", Jsonl.Bool hit) ]

(* Probe the sealed segments of [s] for [fp].  Caller owns the shard.
   [disk_probes] counts calls, not the segments a call visits; most
   visits end at the segment's Bloom filter without a read.  The
   filter hash is computed once for all of them. *)
let probe_disk t s fp =
  match s.readers with
  | [] -> false
  | readers ->
      let ts = Trace.begin_ns () in
      s.disk_probes <- s.disk_probes + 1;
      let hit = mem_any readers ~hash:(Segment.filter_hash fp) fp in
      if hit then s.disk_probe_hits <- s.disk_probe_hits + 1;
      if Metrics.on () then begin
        Metrics.Counter.incr t.m_disk_probes;
        if hit then Metrics.Counter.incr t.m_disk_hits
      end;
      if Trace.on () then probe_span ts hit;
      hit

(* Seal [s]'s hot tier as one sorted segment.  Caller owns the shard. *)
let seal t shard_idx s =
  let n = Shard_set.shard_cardinal t.hot shard_idx in
  if n > 0 then begin
    (* Seal span: sort + write + fsync + reopen — the whole stall the
       spilling domain takes.  Per flush (cold), plus a recorder note
       so a crash right after a seal shows it in the flight dump. *)
    let span_ts = Trace.begin_ns () in
    let records = Array.make n (0L, 0L) in
    let i = ref 0 in
    Shard_set.iter t.hot ~shard:shard_idx (fun fp ->
        records.(!i) <- (fp, 0L);
        incr i);
    Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) records;
    let name = seg_name ~shard:shard_idx ~seq:s.seq in
    Segment.write ~dir:t.dir ~name records;
    let r = Segment.open_reader ~dir:t.dir ~name in
    s.readers <- r :: s.readers;
    s.seq <- s.seq + 1;
    s.spilled <- s.spilled + n;
    s.flushes <- s.flushes + 1;
    Shard_set.clear t.hot ~shard:shard_idx;
    Metrics.Counter.incr t.m_flushes;
    Metrics.Counter.add t.m_spilled n;
    if Metrics.on () then begin
      Metrics.Gauge.add t.g_segments 1;
      Metrics.Gauge.add t.g_disk_bytes (Segment.file_bytes r);
      Metrics.Gauge.add t.g_hot (-n)
    end;
    Trace.complete ~cat:"store" ~ts:span_ts "store.seal"
      ~args:
        [
          ("shard", Jsonl.Int shard_idx);
          ("records", Jsonl.Int n);
          ("segment", Jsonl.Str name);
        ];
    Recorder.note "store.seal" ~id:name
      ~args:[ ("shard", Jsonl.Int shard_idx); ("records", Jsonl.Int n) ]
  end

let check_owned t ~shard fp fn =
  if shard <> owner t fp then
    invalid_arg (Printf.sprintf "Tiered_set.%s: wrong shard" fn)

let add_owned t ~shard fp =
  check_owned t ~shard fp "add_owned";
  let s = t.shard_states.(shard) in
  if Shard_set.mem t.hot ~shard fp then false
  else if probe_disk t s fp then false
  else begin
    ignore (Shard_set.add t.hot ~shard fp);
    if Metrics.on () then Metrics.Gauge.add t.g_hot 1;
    if Shard_set.shard_cardinal t.hot shard >= t.hot_capacity then
      seal t shard s;
    true
  end

let mem_owned t ~shard fp =
  check_owned t ~shard fp "mem_owned";
  Shard_set.mem t.hot ~shard fp || probe_disk t t.shard_states.(shard) fp

let flush_shard t shard = seal t shard t.shard_states.(shard)

let segment_names t =
  Array.to_list t.shard_states
  |> List.concat_map (fun s -> List.map Segment.name s.readers)
  |> List.sort compare

let cardinal t =
  Shard_set.cardinal t.hot
  + Array.fold_left (fun acc s -> acc + s.spilled) 0 t.shard_states

type stats = {
  segments : int;
  disk_bytes : int;
  spilled : int;
  hot : int;
  flushes : int;
  disk_probes : int;
  disk_probe_hits : int;
  block_reads : int;
}

let stats (t : t) =
  let sum f readers = List.fold_left (fun acc r -> acc + f r) 0 readers in
  Array.fold_left
    (fun acc s ->
      {
        acc with
        segments = acc.segments + List.length s.readers;
        disk_bytes = acc.disk_bytes + sum Segment.file_bytes s.readers;
        spilled = acc.spilled + s.spilled;
        flushes = acc.flushes + s.flushes;
        disk_probes = acc.disk_probes + s.disk_probes;
        disk_probe_hits = acc.disk_probe_hits + s.disk_probe_hits;
        block_reads = acc.block_reads + sum Segment.block_reads s.readers;
      })
    {
      segments = 0;
      disk_bytes = 0;
      spilled = 0;
      hot = Shard_set.cardinal t.hot;
      flushes = 0;
      disk_probes = 0;
      disk_probe_hits = 0;
      block_reads = 0;
    }
    t.shard_states

let close t =
  Array.iter
    (fun s ->
      List.iter Segment.close s.readers;
      s.readers <- [])
    t.shard_states
