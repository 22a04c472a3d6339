(* Socket front-end: accept loop + per-connection reader/writer
   threads around the existing Pool.  See server.mli for the
   architecture; the invariants that make the drain airtight are
   spelled out inline. *)

module Obs = Elin_obs
open Elin_kernel
open Elin_svc

type admission = Block | Busy

(* Observability: accepts/frames/verdicts counters, open-connection
   gauge, and a server-side per-job latency histogram (enqueue →
   verdict routed), all under the [net.] prefix. *)
let m_accepts = Obs.Metrics.counter "net.accepts"
let m_frames = Obs.Metrics.counter "net.frames"
let m_replies = Obs.Metrics.counter "net.replies"
let m_busy = Obs.Metrics.counter "net.busy"
let m_dropped = Obs.Metrics.counter "net.dropped"
let g_conns = Obs.Metrics.gauge "net.conns"
let h_latency = Obs.Metrics.histogram "net.latency_us"

type conn = {
  cid : int;
  fd : Unix.file_descr;
  outbox : string Chan.t;  (* verdict lines awaiting the writer *)
  g_outbox : Obs.Metrics.Gauge.t;
      (* per-connection outbox depth, lane-hashed into a bounded set of
         gauge names (net.outbox.c<cid mod 8>) so a long-lived server
         cannot grow the registry without bound *)
  m : Mutex.t;
  mutable in_flight : int;  (* admitted to the pool, not yet routed *)
  mutable reader_done : bool;
  dead : bool Atomic.t;  (* write side failed / slow-consumer evicted *)
}

type t = {
  addr : Addr.t;
  bound : Unix.sockaddr;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  admission : admission;
  stats : bool;
  max_frame : int;
  outbox_capacity : int;
  conns : (int, conn) Hashtbl.t;
  conns_m : Mutex.t;  (* also guards [sessions]; never taken while
                         holding a [conn.m] *)
  sessions : (int, Thread.t * Thread.t) Hashtbl.t;
      (* (reader, writer) of each connection whose writer is still
         running: the writer removes its entry as its last act *)
  next_cid : int Atomic.t;
  (* Enqueue timestamps (and the job's trace-context id) by internal
     id, for the net.job span and latency histogram (queue wait +
     execution + routing). *)
  enq_ts : (string, int64 * string option) Hashtbl.t;
  enq_m : Mutex.t;
  stopping : bool Atomic.t;
  mutable acceptor : Thread.t option;
  mutable dispatcher : Thread.t option;
  mutable stopped : bool;
  stop_m : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* Internal job ids                                                   *)
(*                                                                    *)
(* The pool routes verdicts back by nothing but the verdict itself,   *)
(* so the connection and per-connection sequence ride inside the id:  *)
(* "<cid>.<k>|<original id>".  '|' cannot appear in the prefix, and   *)
(* splitting on the FIRST '|' leaves original ids containing '|'      *)
(* intact.                                                            *)
(* ------------------------------------------------------------------ *)

let internal_id cid k id = Printf.sprintf "%d.%d|%s" cid k id

let split_internal id =
  match String.index_opt id '|' with
  | None -> None
  | Some bar -> (
      let prefix = String.sub id 0 bar in
      let orig = String.sub id (bar + 1) (String.length id - bar - 1) in
      match String.index_opt prefix '.' with
      | None -> None
      | Some dot -> (
          match
            ( int_of_string_opt (String.sub prefix 0 dot),
              int_of_string_opt
                (String.sub prefix (dot + 1) (String.length prefix - dot - 1))
            )
          with
          | Some cid, Some _k -> Some (cid, orig)
          | _ -> None))

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

(* Non-blocking enqueue to the connection's outbox.  A full outbox
   means the client stopped reading while we kept answering; blocking
   here would wedge the dispatcher (shared by every connection), so
   the connection is evicted instead: mark dead, shut the socket down
   (which wakes its reader with EOF), drop the line. *)
let send_line conn line =
  if not (Atomic.get conn.dead) then
    match Chan.try_put conn.outbox line with
    | true ->
        if Obs.Metrics.on () then
          Obs.Metrics.Gauge.set conn.g_outbox (Chan.length conn.outbox)
    | false | (exception Chan.Closed) ->
        Atomic.set conn.dead true;
        Obs.Metrics.Counter.incr m_dropped;
        Obs.Recorder.note "net.evict"
          ~args:[ ("conn", Obs.Jsonl.Int conn.cid) ];
        (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ())

let send_verdict srv conn (v : Verdict.t) =
  Metrics.verdict_done v;
  Obs.Metrics.Counter.incr m_replies;
  send_line conn (Verdict.to_line ~stats:srv.stats v)

let local_verdict ?(status = Verdict.Bad_job "") ?check ~id ~seq () =
  {
    Verdict.job_id = id;
    seq;
    check;
    status;
    min_t = None;
    nodes = 0;
    memo_hits = 0;
    wall_ms = 0.;
  }

(* Best-effort id for an unparseable job payload: its "id" field if
   the JSON is readable at all, else a frame-indexed placeholder. *)
let id_hint payload k =
  match Obs.Jsonl.str_mem "id" (Obs.Jsonl.of_string payload) with
  | Some id -> id
  | None | (exception Obs.Jsonl.Parse_error _) -> Printf.sprintf "frame-%d" k

(* ------------------------------------------------------------------ *)
(* Session reader                                                     *)
(* ------------------------------------------------------------------ *)

let note_enqueue srv internal ~trace =
  let ts = Obs.Clock.now_ns () in
  Mutex.lock srv.enq_m;
  Hashtbl.replace srv.enq_ts internal (ts, trace);
  Mutex.unlock srv.enq_m

let forget_enqueue srv internal =
  Mutex.lock srv.enq_m;
  Hashtbl.remove srv.enq_ts internal;
  Mutex.unlock srv.enq_m

(* One decoded frame: parse, rewrite the id, admit.  [in_flight] is
   bumped BEFORE the pool sees the job — the verdict can be routed the
   instant [submit] returns, and a late increment would let the
   dispatcher see a spurious zero and close the outbox early. *)
let handle_frame srv conn k payload =
  let seq = !k in
  incr k;
  Obs.Metrics.Counter.incr m_frames;
  match Job.of_line ~seq payload with
  | Error e ->
      send_verdict srv conn
        (local_verdict ~status:(Verdict.Bad_job e) ~id:(id_hint payload seq)
           ~seq ())
  | Ok job ->
      let internal = internal_id conn.cid seq job.Job.id in
      let ijob = { job with Job.id = internal } in
      note_enqueue srv internal ~trace:job.Job.trace;
      Mutex.lock conn.m;
      conn.in_flight <- conn.in_flight + 1;
      Mutex.unlock conn.m;
      Obs.Trace.instant ~cat:"net" "net.enqueue"
        ~args:
          [
            ("id", Obs.Jsonl.Str job.Job.id);
            ("conn", Obs.Jsonl.Int conn.cid);
          ];
      let admitted =
        match srv.admission with
        | Block -> (
            try
              Pool.submit srv.pool ijob;
              true
            with Chan.Closed -> false)
        | Busy -> ( try Pool.try_submit srv.pool ijob with Chan.Closed -> false)
      in
      if not admitted then begin
        Mutex.lock conn.m;
        conn.in_flight <- conn.in_flight - 1;
        Mutex.unlock conn.m;
        forget_enqueue srv internal;
        Obs.Metrics.Counter.incr m_busy;
        send_verdict srv conn
          (local_verdict ~status:Verdict.Busy ~check:job.Job.check
             ~id:job.Job.id ~seq ())
      end

let finish_reader conn =
  Mutex.lock conn.m;
  conn.reader_done <- true;
  let close_now = conn.in_flight = 0 in
  Mutex.unlock conn.m;
  if close_now then Chan.close conn.outbox

let reader_loop srv conn =
  let dec = Frame.decoder ~max_frame:srv.max_frame () in
  let scratch = Bytes.create 65536 in
  let k = ref 0 in
  (* Returns [true] to keep the session alive. *)
  let rec drain_frames () =
    match Frame.next dec with
    | `Awaiting -> true
    | `Error e ->
        (* Unrecoverable: the stream cannot be resynchronized.  Answer
           with an error verdict for the broken frame, then let the
           already-admitted jobs finish. *)
        Obs.Recorder.note "net.protocol_error"
          ~id:(Printf.sprintf "frame-%d" !k)
          ~args:
            [ ("conn", Obs.Jsonl.Int conn.cid); ("error", Obs.Jsonl.Str e) ];
        Obs.Recorder.dump ~reason:"protocol_error"
          ~job:(Printf.sprintf "frame-%d" !k) ();
        send_verdict srv conn
          (local_verdict
             ~status:(Verdict.Bad_job ("framing: " ^ e))
             ~id:(Printf.sprintf "frame-%d" !k)
             ~seq:!k ());
        false
    | `Frame payload ->
        handle_frame srv conn k payload;
        drain_frames ()
  in
  (* Stop-aware blocking read: wake every 0.25 s to observe [stopping]
     (and eviction, which shows up as EOF after the shutdown()). *)
  let rec loop () =
    if Atomic.get srv.stopping || Atomic.get conn.dead then ()
    else
      match Unix.select [ conn.fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
          | 0 ->
              if Frame.pending dec > 0 then
                send_verdict srv conn
                  (local_verdict
                     ~status:
                       (Verdict.Bad_job "framing: connection closed mid-frame")
                     ~id:(Printf.sprintf "frame-%d" !k)
                     ~seq:!k ())
          | n ->
              let ts = Obs.Trace.begin_ns () in
              Frame.feed dec scratch 0 n;
              let alive = drain_frames () in
              Obs.Trace.complete ~cat:"net" ~ts "net.decode"
                ~args:
                  [
                    ("conn", Obs.Jsonl.Int conn.cid);
                    ("bytes", Obs.Jsonl.Int n);
                  ];
              if alive then loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error _ -> ())
  in
  loop ();
  finish_reader conn

(* ------------------------------------------------------------------ *)
(* Session writer                                                     *)
(* ------------------------------------------------------------------ *)

(* Sole owner of the connection's write side and of closing the fd:
   the outbox is closed only once the reader is done AND in_flight is
   zero, so closing here can never race a live read or a pending
   verdict.  The connection leaves [conns] before its fd is closed (the
   dispatcher must never shut down a reused fd number) and leaves
   [sessions] last, so a long-lived server holds nothing per closed
   connection. *)
let writer_loop srv conn =
  let rec drain () =
    match Chan.take conn.outbox with
    | None -> ()
    | Some line ->
        if Obs.Metrics.on () then
          Obs.Metrics.Gauge.set conn.g_outbox (Chan.length conn.outbox);
        (if not (Atomic.get conn.dead) then
           let ts = Obs.Trace.begin_ns () in
           try
             Frame.write_frame conn.fd line;
             Obs.Trace.complete ~cat:"net" ~ts "net.encode"
               ~args:
                 [
                   ("conn", Obs.Jsonl.Int conn.cid);
                   ("bytes", Obs.Jsonl.Int (String.length line));
                 ]
           with Unix.Unix_error _ -> Atomic.set conn.dead true);
        drain ()
  in
  drain ();
  Mutex.lock srv.conns_m;
  Hashtbl.remove srv.conns conn.cid;
  Mutex.unlock srv.conns_m;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  if Obs.Metrics.on () then
    Obs.Metrics.Gauge.add g_conns (-1);
  Mutex.lock srv.conns_m;
  Hashtbl.remove srv.sessions conn.cid;
  Mutex.unlock srv.conns_m

(* ------------------------------------------------------------------ *)
(* Dispatcher: pool verdicts → per-connection outboxes                *)
(* ------------------------------------------------------------------ *)

let deliver srv (v : Verdict.t) =
  match split_internal v.Verdict.job_id with
  | None -> () (* foreign verdict; nothing to route *)
  | Some (cid, orig) ->
      Mutex.lock srv.enq_m;
      let t0 = Hashtbl.find_opt srv.enq_ts v.Verdict.job_id in
      Hashtbl.remove srv.enq_ts v.Verdict.job_id;
      Mutex.unlock srv.enq_m;
      Obs.Trace.instant ~cat:"net" "net.dispatch"
        ~args:[ ("id", Obs.Jsonl.Str orig); ("conn", Obs.Jsonl.Int cid) ];
      (match t0 with
      | Some (ts, trace) ->
          if Obs.Trace.on () then
            Obs.Trace.complete ~cat:"net" ~ts "net.job"
              ~args:
                ([ ("id", Obs.Jsonl.Str orig); ("conn", Obs.Jsonl.Int cid) ]
                @
                match trace with
                | Some t -> [ ("trace", Obs.Jsonl.Str t) ]
                | None -> []);
          if Obs.Metrics.on () then
            Obs.Metrics.Histogram.observe h_latency
              (Int64.to_int
                 (Int64.div (Int64.sub (Obs.Clock.now_ns ()) ts) 1000L))
      | None -> ());
      let v = { v with Verdict.job_id = orig } in
      (* Hold conns_m across the reply so the writer cannot close the
         fd under the eviction shutdown() inside send_line. *)
      Mutex.lock srv.conns_m;
      (match Hashtbl.find_opt srv.conns cid with
      | None -> Obs.Metrics.Counter.incr m_dropped
      | Some conn ->
          Obs.Metrics.Counter.incr m_replies;
          Obs.Trace.instant ~cat:"net" "net.reply"
            ~args:
              [ ("id", Obs.Jsonl.Str orig); ("conn", Obs.Jsonl.Int cid) ];
          send_line conn (Verdict.to_line ~stats:srv.stats v);
          Mutex.lock conn.m;
          conn.in_flight <- conn.in_flight - 1;
          let close_now = conn.reader_done && conn.in_flight = 0 in
          Mutex.unlock conn.m;
          if close_now then Chan.close conn.outbox);
      Mutex.unlock srv.conns_m

let dispatch_loop srv =
  let rec loop () =
    match Pool.take_verdict srv.pool with
    | None -> ()
    | Some v ->
        deliver srv v;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept loop                                                        *)
(* ------------------------------------------------------------------ *)

let spawn_session srv fd =
  (match srv.addr with
  | Addr.Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Addr.Unix_sock _ -> ());
  let cid = Atomic.fetch_and_add srv.next_cid 1 in
  let conn =
    {
      cid;
      fd;
      outbox = Chan.create ~capacity:srv.outbox_capacity ();
      g_outbox = Obs.Metrics.gauge (Printf.sprintf "net.outbox.c%d" (cid mod 8));
      m = Mutex.create ();
      in_flight = 0;
      reader_done = false;
      dead = Atomic.make false;
    }
  in
  Obs.Metrics.Counter.incr m_accepts;
  Obs.Recorder.note "net.accept" ~args:[ ("conn", Obs.Jsonl.Int cid) ];
  if Obs.Metrics.on () then Obs.Metrics.Gauge.add g_conns 1;
  Obs.Trace.instant ~cat:"net" "net.accept"
    ~args:[ ("conn", Obs.Jsonl.Int cid) ];
  (* Both threads start under [conns_m], so the writer cannot remove
     its [sessions] entry before it is added. *)
  Mutex.lock srv.conns_m;
  Hashtbl.replace srv.conns cid conn;
  let r = Thread.create (fun () -> reader_loop srv conn) () in
  let w = Thread.create (fun () -> writer_loop srv conn) () in
  Hashtbl.replace srv.sessions cid (r, w);
  Mutex.unlock srv.conns_m

let accept_loop srv =
  let rec loop () =
    if Atomic.get srv.stopping then ()
    else
      match Unix.select [ srv.listen_fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept ~cloexec:true srv.listen_fd with
          | fd, _ ->
              spawn_session srv fd;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error _ -> if Atomic.get srv.stopping then () else loop ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

(* A peer may close while we still hold verdicts for it; the resulting
   write must surface as EPIPE, not kill the process. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let bind_listen addr =
  let domain, sa = Addr.sockaddr addr in
  (match addr with
  | Addr.Unix_sock path when Sys.file_exists path ->
      (* A stale path (no listener behind it) is reclaimable; a live
         server is a configuration error, not something to unlink. *)
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        try
          Unix.connect probe sa;
          true
        with Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        failwith
          (Printf.sprintf "address %s already in use" (Addr.to_string addr))
      else Unix.unlink path
  | _ -> ());
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Addr.Unix_sock _ -> ());
  (try
     Unix.bind fd sa;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let start ?(domains = 1) ?(queue_capacity = 64) ?default_budget
    ?default_timeout_ms ?resolve ?(admission = Block) ?(outbox_capacity = 1024)
    ?(max_frame = Frame.default_max_frame) ?(stats = false) addr =
  Lazy.force ignore_sigpipe;
  let listen_fd = bind_listen addr in
  let pool =
    Pool.create ~queue_capacity ?default_budget ?default_timeout_ms ?resolve
      ~domains ()
  in
  let srv =
    {
      addr;
      bound = Unix.getsockname listen_fd;
      listen_fd;
      pool;
      admission;
      stats;
      max_frame;
      outbox_capacity;
      conns = Hashtbl.create 16;
      conns_m = Mutex.create ();
      sessions = Hashtbl.create 16;
      next_cid = Atomic.make 0;
      enq_ts = Hashtbl.create 256;
      enq_m = Mutex.create ();
      stopping = Atomic.make false;
      acceptor = None;
      dispatcher = None;
      stopped = false;
      stop_m = Mutex.create ();
    }
  in
  srv.acceptor <- Some (Thread.create accept_loop srv);
  srv.dispatcher <- Some (Thread.create dispatch_loop srv);
  srv

let port srv =
  match srv.bound with Unix.ADDR_INET (_, p) -> Some p | _ -> None

let connections srv =
  Mutex.lock srv.conns_m;
  let n = Hashtbl.length srv.conns in
  Mutex.unlock srv.conns_m;
  n

let queue_depth srv = Pool.queue_depth srv.pool
let output_depth srv = Pool.output_depth srv.pool

(* Drain order is what makes "no accepted job unanswered" hold:
   1. stop accepting (join the acceptor);
   2. join the readers — each exits within one select tick, and a
      reader blocked in [Pool.submit] completes first because the
      workers are still running;
   3. [Pool.shutdown] — workers finish every queued job, then exit;
   4. join the dispatcher — it routes every remaining verdict and sees
      end-of-stream; by now each outbox has been closed by whichever
      of {reader, dispatcher} finished that connection last;
   5. join the writers — each flushes its outbox and closes its fd.
   Steps 2 and 5 join the sessions still open at that step; a closed
   session's threads have already finished. *)
let stop srv =
  let fresh =
    Mutex.lock srv.stop_m;
    let f = not srv.stopped in
    srv.stopped <- true;
    Mutex.unlock srv.stop_m;
    f
  in
  if fresh then begin
    Atomic.set srv.stopping true;
    Option.iter Thread.join srv.acceptor;
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (match srv.addr with
    | Addr.Unix_sock path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Addr.Tcp _ -> ());
    let open_sessions pick =
      Mutex.lock srv.conns_m;
      let ts = Hashtbl.fold (fun _ rw acc -> pick rw :: acc) srv.sessions [] in
      Mutex.unlock srv.conns_m;
      ts
    in
    List.iter Thread.join (open_sessions fst);
    Pool.shutdown srv.pool;
    Option.iter Thread.join srv.dispatcher;
    List.iter Thread.join (open_sessions snd)
  end
