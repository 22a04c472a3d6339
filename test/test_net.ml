(** Tests for the socket front-end (lib/net): framing round-trips and
    malformed-input containment, address parsing, loopback end-to-end
    equivalence with the in-process pool on the committed corpus,
    pipelined out-of-order completion, busy admission under a stalled
    worker, graceful drain with no accepted job left unanswered, and a
    soak gate: a long-lived server's heap and open fds stay flat over
    hundreds of connections and thousands of distinct jobs. *)

open Elin_spec
open Elin_svc
open Elin_net
open Elin_test_support

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

(* Drain every complete frame currently decodable. *)
let rec drain dec acc =
  match Frame.next dec with
  | `Frame p -> drain dec (p :: acc)
  | `Awaiting -> (List.rev acc, `Awaiting)
  | `Error e -> (List.rev acc, `Error e)

let test_frame_roundtrip_chunked =
  let gen =
    QCheck2.Gen.(
      pair
        (small_list (string_size ~gen:printable (int_bound 64)))
        (int_range 1 7))
  in
  Support.qtest ~count:300 "chunked frame round-trip" gen
    (fun (payloads, chunk) ->
      let wire = String.concat "" (List.map Frame.encode payloads) in
      let dec = Frame.decoder () in
      let out = ref [] in
      let i = ref 0 in
      let n = String.length wire in
      while !i < n do
        let len = min chunk (n - !i) in
        Frame.feed_string dec (String.sub wire !i len);
        i := !i + len;
        let frames, _ = drain dec [] in
        out := !out @ frames
      done;
      !out = payloads && Frame.pending dec = 0)

let test_frame_truncated () =
  let dec = Frame.decoder () in
  let wire = Frame.encode "hello world" in
  Frame.feed_string dec (String.sub wire 0 (String.length wire - 3));
  (match Frame.next dec with
  | `Awaiting -> ()
  | `Frame _ | `Error _ -> Alcotest.fail "truncated frame must await");
  Alcotest.(check bool) "bytes pending" true (Frame.pending dec > 0);
  (* The rest arrives: the frame completes. *)
  Frame.feed_string dec
    (String.sub wire (String.length wire - 3) 3);
  match Frame.next dec with
  | `Frame p -> Alcotest.(check string) "payload" "hello world" p
  | `Awaiting | `Error _ -> Alcotest.fail "completed frame must decode"

let test_frame_oversized_latches () =
  let dec = Frame.decoder ~max_frame:1024 () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 2048l;
  Frame.feed dec b 0 4;
  (match Frame.next dec with
  | `Error e ->
    Alcotest.(check bool) "mentions the limit" true (contains e "exceeds")
  | `Frame _ | `Awaiting -> Alcotest.fail "oversized length must error");
  (* Latched: more bytes (even a valid frame) never yield frames. *)
  Frame.feed_string dec (Frame.encode "ok");
  match Frame.next dec with
  | `Error _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "framing errors must latch"

let test_frame_garbage_never_crashes =
  let gen =
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 256))
  in
  Support.qtest ~count:300 "garbage bytes never crash the decoder" gen
    (fun s ->
      let dec = Frame.decoder ~max_frame:4096 () in
      Frame.feed_string dec s;
      match drain dec [] with
      | _, (`Awaiting | `Error _) -> true)

let test_frame_huge_declared_length () =
  (* 0xFFFFFFFF as a length prefix: must be an error, not an
     allocation attempt. *)
  let dec = Frame.decoder () in
  Frame.feed_string dec "\xff\xff\xff\xff";
  match Frame.next dec with
  | `Error _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "4 GiB declared length must error"

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)
(* ------------------------------------------------------------------ *)

let test_addr_parse () =
  let ok s expect =
    match Addr.of_string s with
    | Ok a -> Alcotest.(check string) s expect (Addr.to_string a)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:localhost:9000" "tcp:localhost:9000";
  ok "localhost:9000" "tcp:localhost:9000";
  ok "9000" "tcp:127.0.0.1:9000";
  (* Port 0 = "pick an ephemeral port"; the bound port is read back
     via Server.port / Telemetry.port. *)
  ok "tcp:localhost:0" "tcp:localhost:0";
  let err s =
    match Addr.of_string s with
    | Error _ -> ()
    | Ok a -> Alcotest.failf "%s parsed as %s" s (Addr.to_string a)
  in
  err "";
  err "tcp:localhost:notaport";
  err "tcp:localhost:70000";
  err "justaname"

let test_addr_roundtrip () =
  List.iter
    (fun a ->
      match Addr.of_string (Addr.to_string a) with
      | Ok b -> Alcotest.(check string) "round-trip" (Addr.to_string a)
                  (Addr.to_string b)
      | Error e -> Alcotest.fail e)
    [ Addr.Unix_sock "/tmp/y.sock"; Addr.Tcp ("127.0.0.1", 1); Addr.Tcp ("h", 65535) ]

(* ------------------------------------------------------------------ *)
(* Loopback servers                                                   *)
(* ------------------------------------------------------------------ *)

let fresh_sock =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "elin-test-net-%d-%d.sock" (Unix.getpid ()) !k)

let with_server ?domains ?queue_capacity ?resolve ?admission f =
  let path = fresh_sock () in
  let srv =
    Server.start ?domains ?queue_capacity ?resolve ?admission
      (Addr.Unix_sock path)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (Addr.Unix_sock path) srv)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ------------------------------------------------------------------ *)
(* E2E: socket verdicts = in-process verdicts on the corpus           *)
(* ------------------------------------------------------------------ *)

let test_corpus_equivalence () =
  let lines = read_lines "support/corpus_50.jobs" in
  let golden = read_lines "support/corpus_50.verdicts.golden" in
  List.iter
    (fun domains ->
      let local =
        List.map Verdict.to_line
          (Pool.run_lines ~run:(Pool.run_batch ~domains) lines)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "local run matches golden (domains %d)" domains)
        golden local;
      let remote =
        with_server ~domains (fun addr _srv ->
            Pool.run_lines ~run:(Client.run_jobs addr) lines)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "socket run matches golden (domains %d)" domains)
        golden
        (List.map Verdict.to_line remote))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pipelining, admission, drain                                       *)
(* ------------------------------------------------------------------ *)

let fai = Faicounter.spec ()

let sample_history_text =
  "inv 0 0 fetch&inc\nres 0 0 0\ninv 1 0 fetch&inc\nres 1 0 1\n"

(* fai gated on a flag, with an entry counter so tests can wait until a
   worker is provably inside the job. *)
let gate_open = Atomic.make false
let gate_entered = Atomic.make 0

let gate_spec =
  Spec.make ~name:"gate" ~initial:(Spec.initial fai)
    ~apply:(fun q op ->
      Atomic.incr gate_entered;
      while not (Atomic.get gate_open) do
        Domain.cpu_relax ()
      done;
      Spec.apply fai q op)
    ~all_ops:(Spec.all_ops fai)

let resolve name =
  match name with
  | "gate" -> gate_spec
  | other -> Pool.default_resolve other

let job ~id ~spec =
  {
    Job.id;
    seq = 0;
    spec;
    check = Job.Linearizable;
    node_budget = None;
    timeout_ms = None;
    history_text = sample_history_text;
    trace = None;
    parent = None;
  }

let wait_for ?(timeout_s = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.yield ();
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let recv_verdict c =
  match Client.recv c with
  | `Verdict v -> v
  | `Eof -> Alcotest.fail "unexpected EOF"
  | `Error e -> Alcotest.failf "protocol error: %s" e

let test_pipelined_out_of_order () =
  Atomic.set gate_open false;
  Atomic.set gate_entered 0;
  with_server ~domains:2 ~resolve (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* First job wedges a worker; the second, pipelined behind
             it, completes first. *)
          Client.send c (job ~id:"slow" ~spec:"gate");
          Alcotest.(check bool) "worker entered the gate" true
            (wait_for (fun () -> Atomic.get gate_entered > 0));
          Client.send c (job ~id:"fast" ~spec:"fetch&increment");
          let v1 = recv_verdict c in
          Alcotest.(check string) "fast overtakes slow" "fast" v1.Verdict.job_id;
          Atomic.set gate_open true;
          let v2 = recv_verdict c in
          Alcotest.(check string) "slow answers after the gate" "slow"
            v2.Verdict.job_id;
          Alcotest.(check bool) "fast verdict is a real check" true
            (v1.Verdict.status = Verdict.Pass)))

let test_busy_admission () =
  Atomic.set gate_open false;
  Atomic.set gate_entered 0;
  with_server ~domains:1 ~queue_capacity:1 ~resolve ~admission:Server.Busy
    (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate_open true;
          Client.close c)
        (fun () ->
          (* Wedge the only worker, then fill the 1-slot queue; the
             next job must be refused busy, immediately, while the
             worker is still stalled. *)
          Client.send c (job ~id:"wedge" ~spec:"gate");
          Alcotest.(check bool) "worker entered the gate" true
            (wait_for (fun () -> Atomic.get gate_entered > 0));
          Client.send c (job ~id:"queued" ~spec:"fetch&increment");
          (* The queued job may take an instant to move from the
             session reader into the channel; busy refusal is only
             guaranteed once the slot is held.  Keep offering until a
             busy verdict arrives (bounded by the job count). *)
          let rec offer i =
            if i > 50 then Alcotest.fail "no busy verdict after 50 offers";
            Client.send c (job ~id:(Printf.sprintf "b%d" i) ~spec:"fetch&increment");
            let v = recv_verdict c in
            if v.Verdict.status = Verdict.Busy then v else offer (i + 1)
          in
          let busy = offer 0 in
          Alcotest.(check bool) "busy id is one of the offers" true
            (String.length busy.Verdict.job_id > 1
            && busy.Verdict.job_id.[0] = 'b');
          (* Release: everything admitted still answers. *)
          Atomic.set gate_open true;
          let rec drain_until got =
            if List.mem "wedge" got && List.mem "queued" got then ()
            else
              let v = recv_verdict c in
              drain_until (v.Verdict.job_id :: got)
          in
          drain_until []))

let test_drain_answers_in_flight () =
  Atomic.set gate_open false;
  Atomic.set gate_entered 0;
  with_server ~domains:2 ~resolve (fun addr srv ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send c (job ~id:"d0" ~spec:"gate");
          Client.send c (job ~id:"d1" ~spec:"gate");
          Alcotest.(check bool) "both workers inside jobs" true
            (wait_for (fun () -> Atomic.get gate_entered >= 2));
          (* Drain while both jobs are mid-flight: stop must block
             until they are answered and flushed, never dropping
             them. *)
          let stopper = Thread.create (fun () -> Server.stop srv) () in
          Unix.sleepf 0.05;
          Atomic.set gate_open true;
          let v1 = recv_verdict c in
          let v2 = recv_verdict c in
          let ids = List.sort compare [ v1.Verdict.job_id; v2.Verdict.job_id ] in
          Alcotest.(check (list string)) "both answered" [ "d0"; "d1" ] ids;
          (match Client.recv c with
          | `Eof -> ()
          | `Verdict _ -> Alcotest.fail "spurious verdict after drain"
          | `Error e -> Alcotest.failf "drain must end in EOF, got: %s" e);
          Thread.join stopper))

(* ------------------------------------------------------------------ *)
(* Trace-context propagation                                          *)
(* ------------------------------------------------------------------ *)

(* A trace id stamped on a job by the client must survive the server's
   internal "<cid>.<k>|<orig>" id rewriting: verdicts come back under
   the original id, and both the server-side net.job span and the
   worker-side svc.job span carry the id in their "trace" arg — that
   is what lets [elin trace merge] stitch the processes together. *)
let test_trace_id_roundtrip () =
  let module Trace = Elin_obs.Trace in
  let ids = List.init 4 (fun i -> Printf.sprintf "rt%d" i) in
  let trace_of id = "trace-" ^ id in
  Trace.clear ();
  Trace.enable ();
  let verdicts = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    (fun () ->
      with_server ~domains:2 (fun addr _srv ->
          let jobs =
            List.map
              (fun id ->
                { (job ~id ~spec:"fetch&increment") with
                  Job.trace = Some (trace_of id);
                })
              ids
          in
          verdicts := Client.run_jobs addr jobs);
      (* with_server has stopped the server: worker domains are joined,
         so walking the trace buffers is safe. *)
      let got =
        List.sort compare (List.map (fun v -> v.Verdict.job_id) !verdicts)
      in
      Alcotest.(check (list string))
        "verdicts return under the original ids" ids got;
      let evs = Trace.events () in
      let traces_on span_name =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.Trace.name <> span_name then None
            else
              match List.assoc_opt "trace" e.Trace.args with
              | Some (Elin_obs.Jsonl.Str t) -> Some t
              | _ -> None)
          evs
        |> List.sort_uniq compare
      in
      List.iter
        (fun span_name ->
          Alcotest.(check (list string))
            (span_name ^ " spans carry every submitted trace id")
            (List.map trace_of ids) (traces_on span_name))
        [ "net.job"; "svc.job" ];
      (* No span leaks the internal rewritten id into its trace arg. *)
      List.iter
        (fun t ->
          Alcotest.(check bool) "trace arg is never an internal id" false
            (String.contains t '|'))
        (traces_on "net.job" @ traces_on "svc.job"))

let test_malformed_payload_is_bad_job () =
  with_server ~domains:1 (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send_raw c "this is not json";
          let v = recv_verdict c in
          Alcotest.(check bool) "bad_job verdict" true
            (match v.Verdict.status with
            | Verdict.Bad_job _ -> true
            | _ -> false);
          (* Session survives: a real job still answers. *)
          Client.send c (job ~id:"after" ~spec:"fetch&increment");
          let v2 = recv_verdict c in
          Alcotest.(check string) "session continues" "after"
            v2.Verdict.job_id))

(* ------------------------------------------------------------------ *)
(* Soak: a long-lived server keeps its memory and fds flat            *)
(* ------------------------------------------------------------------ *)

let conns_per_round = 200
let jobs_per_conn = 5

(* [n] distinct 8-op fai histories: one Prng stream, duplicates
   skipped, so every job is a different history text. *)
let distinct_fai_texts n =
  let rng = Elin_kernel.Prng.create 2024 in
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      let text =
        Elin_history.Textio.to_string
          (Elin_history.Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 ())
      in
      if Hashtbl.mem seen text then go acc k
      else begin
        Hashtbl.add seen text ();
        go (text :: acc) (k + 1)
      end
  in
  go [] 0

let count_entries dir = Array.length (Sys.readdir dir)

(* Three rounds of fresh connections, each pipelining distinct jobs
   through [Client.run_jobs].  After each round the server has closed
   every connection (its fd count is back to the one it had before
   round 1) and the heap is compacted; from the end of round 1 (all
   one-time allocation done) to the end of round 3, the live heap may
   not grow by a per-job or per-connection amount, and the fd count
   must not move. *)
let test_soak_flat () =
  let texts =
    distinct_fai_texts (3 * conns_per_round * jobs_per_conn)
  in
  with_server ~domains:2 (fun addr srv ->
      let fds0 = count_entries "/proc/self/fd" in
      let settle () =
        Alcotest.(check bool) "every connection closed" true
          (wait_for ~timeout_s:30.0 (fun () ->
               Server.connections srv = 0
               && count_entries "/proc/self/fd" <= fds0));
        Gc.full_major ();
        ((Gc.stat ()).Gc.live_words, count_entries "/proc/self/fd")
      in
      let round r =
        for c = 0 to conns_per_round - 1 do
          let jobs =
            List.init jobs_per_conn (fun k ->
                let i = (((r * conns_per_round) + c) * jobs_per_conn) + k in
                {
                  (job ~id:(Printf.sprintf "soak-%d" i) ~spec:"fetch&increment")
                  with
                  Job.seq = k;
                  history_text = texts.(i);
                })
          in
          List.iter
            (fun v ->
              if v.Verdict.status <> Verdict.Pass then
                Alcotest.failf "%s: %s" v.Verdict.job_id
                  (Verdict.status_to_string v.Verdict.status))
            (Client.run_jobs addr jobs)
        done;
        settle ()
      in
      let words1, fds1 = round 0 in
      ignore (round 1);
      let words3, fds3 = round 2 in
      (* Keep the job texts reachable through the last measurement, so
         both measured heaps hold them. *)
      ignore (Sys.opaque_identity texts);
      if words3 - words1 >= 1_000 then
        Alcotest.failf
          "live heap grew %d words over %d connections and %d jobs"
          (words3 - words1) (2 * conns_per_round)
          (2 * conns_per_round * jobs_per_conn);
      Alcotest.(check int) "open fds unchanged" fds1 fds3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          test_frame_roundtrip_chunked;
          Support.quick "truncated frame awaits, then completes"
            test_frame_truncated;
          Support.quick "oversized length latches an error"
            test_frame_oversized_latches;
          test_frame_garbage_never_crashes;
          Support.quick "4 GiB declared length" test_frame_huge_declared_length;
        ] );
      ( "addr",
        [
          Support.quick "textual forms" test_addr_parse;
          Support.quick "canonical round-trip" test_addr_roundtrip;
        ] );
      ( "e2e",
        [
          Support.quick "corpus verdicts equal local pool (domains 1/2/4)"
            test_corpus_equivalence;
        ] );
      ( "session",
        [
          Support.quick "pipelined jobs complete out of order"
            test_pipelined_out_of_order;
          Support.quick "busy admission under a stalled worker"
            test_busy_admission;
          Support.quick "drain answers every in-flight job"
            test_drain_answers_in_flight;
          Support.quick "malformed payload costs a bad_job, not the session"
            test_malformed_payload_is_bad_job;
        ] );
      ( "trace",
        [
          Support.quick "trace ids survive internal id rewriting"
            test_trace_id_roundtrip;
        ] );
      ( "soak",
        [
          Support.quick "heap and fds flat over 600 connections"
            test_soak_flat;
        ] );
    ]
