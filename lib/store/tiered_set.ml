(* Hot Hashtbl per shard + sealed sorted segments.  Invariant: within
   a shard, hot and every segment are pairwise disjoint sets, so
   membership = hot hit or any-segment probe hit, and a flush is a
   pure representation change.  Shard routing duplicates
   Shard_set.owner's bit carving (high bits of Fingerprint.mix);
   test_store pins the two functions together. *)

module Fingerprint = Elin_kernel.Fingerprint
module Metrics = Elin_obs.Metrics
module Trace = Elin_obs.Trace
module Recorder = Elin_obs.Recorder
module Jsonl = Elin_obs.Jsonl

type shard_state = {
  hot : (int64, unit) Hashtbl.t;
  mutable readers : Segment.reader list;
  mutable seq : int;  (* next segment sequence number *)
  mutable spilled : int;
  mutable flushes : int;
  mutable disk_probes : int;
  mutable disk_probe_hits : int;
  mutable fence_skips : int;
}

type t = {
  dir : string;
  shard_states : shard_state array;
  n_shards : int;
  hot_capacity : int;
  m_flushes : Metrics.Counter.t;
  m_spilled : Metrics.Counter.t;
  m_disk_probes : Metrics.Counter.t;
  m_disk_hits : Metrics.Counter.t;
  m_fence_skips : Metrics.Counter.t;
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
    hot = Hashtbl.create 1024;
    readers = [];
    seq = 0;
    spilled = 0;
    flushes = 0;
    disk_probes = 0;
    disk_probe_hits = 0;
    fence_skips = 0;
  }

let make ~dir ~shards ~hot_capacity =
  if shards < 1 then invalid_arg "Tiered_set: shards must be >= 1";
  if hot_capacity < 1 then invalid_arg "Tiered_set: hot_capacity must be >= 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  {
    dir;
    shard_states = Array.init shards (fun _ -> fresh_shard ());
    n_shards = shards;
    hot_capacity;
    m_flushes = Metrics.counter "store.flushes";
    m_spilled = Metrics.counter "store.spilled";
    m_disk_probes = Metrics.counter "store.disk_probes";
    m_disk_hits = Metrics.counter "store.disk_probe_hits";
    m_fence_skips = Metrics.counter "store.fence_skips";
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

let shards t = t.n_shards

let owner t fp =
  (* Must stay bit-identical to Shard_set.owner: high 31 bits of the
     mixed word, mod shard count. *)
  Int64.to_int (Int64.shift_right_logical (Fingerprint.mix fp) 33)
  mod t.n_shards

(* Probe the sealed segments of [s] for [fp].  Caller owns the shard. *)
let probe_disk t s fp =
  match s.readers with
  | [] -> false
  | readers ->
      let ts = Trace.begin_ns () in
      s.disk_probes <- s.disk_probes + 1;
      (* Fence pointers: skip whole segments whose [min, max] range
         (unsigned) excludes [fp] without touching their blocks.  The
         [disk_probes] count is per probe_disk call, NOT per segment,
         so it is unaffected (the committed B10 baseline pins it). *)
      let skips = ref 0 in
      let hit =
        List.exists
          (fun r ->
            match Segment.range r with
            | Some (lo, hi)
              when Int64.unsigned_compare fp lo >= 0
                   && Int64.unsigned_compare fp hi <= 0 ->
              Segment.probe r fp <> None
            | Some _ | None ->
              incr skips;
              false)
          readers
      in
      s.fence_skips <- s.fence_skips + !skips;
      if hit then s.disk_probe_hits <- s.disk_probe_hits + 1;
      if Metrics.on () then begin
        Metrics.Counter.incr t.m_disk_probes;
        Metrics.Counter.add t.m_fence_skips !skips;
        if hit then Metrics.Counter.incr t.m_disk_hits
      end;
      Trace.complete ~cat:"store" ~ts "store.probe"
        ~args:[ ("hit", Elin_obs.Jsonl.Bool hit) ];
      hit

(* Seal [s]'s hot tier as one sorted segment.  Caller owns the shard. *)
let seal t shard_idx s =
  let n = Hashtbl.length s.hot in
  if n > 0 then begin
    (* Seal span: sort + write + fsync + reopen — the whole stall the
       spilling domain takes.  Per flush (cold), plus a recorder note
       so a crash right after a seal shows it in the flight dump. *)
    let span_ts = Trace.begin_ns () in
    let records = Array.make n (0L, 0L) in
    let i = ref 0 in
    Hashtbl.iter
      (fun fp () ->
        records.(!i) <- (fp, 0L);
        incr i)
      s.hot;
    Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) records;
    let name = seg_name ~shard:shard_idx ~seq:s.seq in
    Segment.write ~dir:t.dir ~name records;
    let r = Segment.open_reader ~dir:t.dir ~name in
    s.readers <- r :: s.readers;
    s.seq <- s.seq + 1;
    s.spilled <- s.spilled + n;
    s.flushes <- s.flushes + 1;
    Hashtbl.reset s.hot;
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
  if Hashtbl.mem s.hot fp then false
  else if probe_disk t s fp then false
  else begin
    Hashtbl.add s.hot fp ();
    if Metrics.on () then Metrics.Gauge.add t.g_hot 1;
    if Hashtbl.length s.hot >= t.hot_capacity then seal t shard s;
    true
  end

let mem_owned t ~shard fp =
  check_owned t ~shard fp "mem_owned";
  let s = t.shard_states.(shard) in
  Hashtbl.mem s.hot fp || probe_disk t s fp

let flush_shard t shard = seal t shard t.shard_states.(shard)

let segment_names t =
  Array.to_list t.shard_states
  |> List.concat_map (fun s -> List.map Segment.name s.readers)
  |> List.sort compare

let cardinal t =
  Array.fold_left
    (fun acc s -> acc + s.spilled + Hashtbl.length s.hot)
    0 t.shard_states

type stats = {
  segments : int;
  disk_bytes : int;
  spilled : int;
  hot : int;
  flushes : int;
  disk_probes : int;
  disk_probe_hits : int;
  fence_skips : int;
}

let stats t =
  Array.fold_left
    (fun acc s ->
      {
        segments = acc.segments + List.length s.readers;
        disk_bytes =
          acc.disk_bytes
          + List.fold_left (fun b r -> b + Segment.file_bytes r) 0 s.readers;
        spilled = acc.spilled + s.spilled;
        hot = acc.hot + Hashtbl.length s.hot;
        flushes = acc.flushes + s.flushes;
        disk_probes = acc.disk_probes + s.disk_probes;
        disk_probe_hits = acc.disk_probe_hits + s.disk_probe_hits;
        fence_skips = acc.fence_skips + s.fence_skips;
      })
    {
      segments = 0;
      disk_bytes = 0;
      spilled = 0;
      hot = 0;
      flushes = 0;
      disk_probes = 0;
      disk_probe_hits = 0;
      fence_skips = 0;
    }
    t.shard_states

let close t =
  Array.iter
    (fun s ->
      List.iter Segment.close s.readers;
      s.readers <- [])
    t.shard_states
