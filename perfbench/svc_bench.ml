(* The svc workloads: a fresh `elin serve --listen` per run, driven
   from this process over one Unix-socket connection by one sender
   thread and one receiver thread.

   A pass is: warm-up jobs (closed loop, distinct from the measured
   ones), an open-loop phase at the workload's fixed rate (latency is
   timed from each job's scheduled send), then a closed-loop phase
   keeping [window] jobs outstanding (capacity).  Every verdict is then
   compared, job by job, with in-process [Pool.run_batch] on the same
   job list. *)

open Elin_kernel
open Elin_spec
open Elin_history
open Elin_svc
open Elin_net
open Common

let window = 64 (* the [Client.run_jobs] default *)

(* Two worker domains, as the in-process reference pool: at the fixed
   open-loop rates the server then runs at low utilisation, so latency
   is not dominated by queueing, which would amplify every swing in
   the host's speed. *)
let server_domains = 2
let setup_cycles = 7
let idle_s = 20.

type kind = {
  check : Job.check;
  rate : float;  (** open-loop arrival rate, jobs/s *)
  capacity : float;
      (** nominal closed-loop jobs/s: sizes the closed phase to about
          [closed_share] of the run at this speed *)
  gen : Prng.t -> string;
}

let fai = Faicounter.spec ()

let kind = function
  | "svc_small" ->
    {
      check = Job.Linearizable;
      rate = 5000.;
      capacity = 10000.;
      gen =
        (fun rng ->
          Textio.to_string (Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 ()));
    }
  | "svc_check" ->
    {
      check = Job.Min_t;
      rate = 200.;
      capacity = 600.;
      gen =
        (fun rng ->
          let h, _ =
            Gen.eventually_linearizable rng ~spec:fai ~procs:4 ~prefix_ops:10
              ~suffix_ops:10 ()
          in
          Textio.to_string h);
    }
  | w -> invalid_arg ("not an svc workload: " ^ w)

let warm_share = 0.05
let open_share = 0.6
let closed_share = 0.3

type jobs = { warm : Job.t array; open_ : Job.t array; closed : Job.t array }

(* Distinct histories from one seeded stream: warm-up, open, closed. *)
let make_jobs k ~seed ~seconds ~tiny =
  let rng = Prng.create seed in
  let seen = Hashtbl.create 4096 in
  let seq = ref 0 in
  let rec fresh () =
    let text = k.gen rng in
    if Hashtbl.mem seen text then fresh ()
    else begin
      Hashtbl.add seen text ();
      text
    end
  in
  let batch prefix n =
    Array.init n (fun i ->
        let s = !seq in
        incr seq;
        {
          Job.id = Printf.sprintf "%s%d" prefix i;
          seq = s;
          spec = Spec.name fai;
          check = k.check;
          node_budget = None;
          timeout_ms = None;
          history_text = fresh ();
          trace = None;
          parent = None;
        })
  in
  let count rate share =
    if tiny then 40 else max 1 (int_of_float (rate *. seconds *. share))
  in
  let warm = batch "w" (count k.rate warm_share) in
  let open_ = batch "o" (count k.rate open_share) in
  let closed = batch "c" (count k.capacity closed_share) in
  { warm; open_; closed }

(* ------------------------------------------------------------------ *)
(* The server                                                         *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; out : in_channel; cl : Client.t; setup_s : float }

(* Spawn `elin serve`, wait for its "listening on" line, connect: the
   setup a user of the service pays before the first job. *)
let start_server ~elin ~work ~stats k =
  let sock = Filename.concat work (Printf.sprintf "serve%d.sock" k) in
  let t0 = now_s () in
  let pid, out =
    spawn elin
      ([ "serve"; "--listen"; "unix:" ^ sock; "--domains";
         string_of_int server_domains ]
      @ if stats then [ "--stats" ] else [])
      ~stderr_to:(Filename.concat work "serve.log")
  in
  let rec await () =
    match input_line out with
    | line when String.starts_with ~prefix:"listening on" line -> ()
    | _ -> await ()
    | exception End_of_file -> failwith "elin serve exited before listening"
  in
  await ();
  let cl = Client.connect (Addr.Unix_sock sock) in
  { pid; out; cl; setup_s = now_s () -. t0 }

let stop_server srv =
  Client.close srv.cl;
  Unix.kill srv.pid Sys.sigterm;
  (* A server stopped right after it bound may not have installed its
     drain handler yet and dies of the signal itself; both are clean. *)
  match reap srv.pid srv.out with
  | Unix.WEXITED 0 -> ()
  | Unix.WSIGNALED s when s = Sys.sigterm -> ()
  | _ -> failwith "elin serve failed on SIGTERM"

(* ------------------------------------------------------------------ *)
(* One phase: sender thread + receiver loop on one connection         *)
(* ------------------------------------------------------------------ *)

type phase = {
  verdicts : Verdict.t option array;
  lat_ms : float array;  (** from due time (open loop: the schedule) *)
  late_ms : float array;  (** sender lateness against the due time *)
  send_ms : float array;  (** time inside [Client.send] *)
  arrived_s : float array;  (** when each verdict arrived *)
  wall_s : float;  (** first due time to last verdict *)
  failure : string option;
}

(* [rate = Some r]: open loop, job i due at t0 + i/r, no window.
   [rate = None]: closed loop, at most [window] outstanding, a job is
   due when the window admits it. *)
let drive ?(traced = false) cl jobs ~rate =
  let n = Array.length jobs in
  let index = Hashtbl.create n in
  Array.iteri (fun i j -> Hashtbl.replace index j.Job.id i) jobs;
  let due = Array.make n 0L in
  let late_ms = Array.make n 0. and send_ms = Array.make n 0. in
  let lat_ms = Array.make n nan and verdicts = Array.make n None in
  let arrived_s = Array.make n nan in
  let m = Mutex.create () and cv = Condition.create () in
  let outstanding = ref 0 and dead = ref false in
  let limit = if rate = None then window else max_int in
  let t0 = Int64.add (now_ns ()) 1_000_000L in
  let sender () =
    try
      for i = 0 to n - 1 do
        (match rate with
        | Some r ->
          let target = Int64.add t0 (Int64.of_float (float_of_int i *. 1e9 /. r)) in
          let ahead = Int64.sub target (now_ns ()) in
          if ahead > 0L then Thread.delay (Int64.to_float ahead /. 1e9);
          due.(i) <- target
        | None -> ());
        Mutex.lock m;
        while !outstanding >= limit && not !dead do
          Condition.wait cv m
        done;
        let stop = !dead in
        if not stop then incr outstanding;
        Mutex.unlock m;
        if stop then raise Exit;
        let t = now_ns () in
        if rate = None then due.(i) <- t;
        late_ms.(i) <- ms_of_ns (Int64.sub t due.(i));
        Client.send cl jobs.(i);
        send_ms.(i) <- ms_of_ns (Int64.sub (now_ns ()) t)
      done
    with _ ->
      Mutex.protect m (fun () ->
          dead := true;
          Condition.broadcast cv)
  in
  let th = Thread.create sender () in
  let answered = ref 0 and failure = ref None in
  while !answered < n && !failure = None do
    match Client.recv_idle cl ~idle_s with
    | `Verdict v -> (
      match Hashtbl.find_opt index v.Verdict.job_id with
      | Some i when verdicts.(i) = None ->
        let now = now_ns () in
        lat_ms.(i) <- ms_of_ns (Int64.sub now due.(i));
        arrived_s.(i) <- Int64.to_float now /. 1e9;
        verdicts.(i) <- Some v;
        incr answered;
        if traced then
          span ~cat:"perfbench.svc" ~ts:due.(i) ~dur:(Int64.sub now due.(i))
            ~args:[ ("id", J.Str v.Verdict.job_id);
                    ("wall_ms", J.Float v.Verdict.wall_ms) ]
            "perfbench.job";
        Mutex.protect m (fun () ->
            decr outstanding;
            Condition.signal cv)
      | _ -> failure := Some ("unexpected verdict for " ^ v.Verdict.job_id))
    | `Idle -> failure := Some (Printf.sprintf "no verdict for %gs" idle_s)
    | `Eof -> failure := Some "server closed the connection"
    | `Error e -> failure := Some ("protocol error: " ^ e)
  done;
  let t_end = now_ns () in
  if !failure <> None then begin
    Mutex.protect m (fun () ->
        dead := true;
        Condition.broadcast cv);
    Client.shutdown cl
  end;
  Thread.join th;
  let start = if n = 0 then t_end else due.(0) in
  {
    verdicts;
    lat_ms;
    late_ms;
    send_ms;
    arrived_s;
    wall_s = Int64.to_float (Int64.sub t_end start) /. 1e9;
    failure = !failure;
  }

type pass = {
  srv_setup : float;
  rss_mb : float;
  warm : phase;
  open_ : phase;
  closed : phase;
}

(* One server lifetime: warm-up, open loop, closed loop. *)
let pass ?(traced = false) ~elin ~work ~k ~(jobs : jobs) ~stats cycle =
  let srv = start_server ~elin ~work ~stats cycle in
  Fun.protect ~finally:(fun () -> try stop_server srv with _ -> ()) @@ fun () ->
  let ts = now_ns () in
  let warm = drive srv.cl jobs.warm ~rate:None in
  let open_ = drive ~traced srv.cl jobs.open_ ~rate:(Some k.rate) in
  let closed = drive ~traced srv.cl jobs.closed ~rate:None in
  let rss_mb = peak_rss_mb (string_of_int srv.pid) in
  if traced then
    span ~cat:"perfbench" ~ts ~dur:(Int64.sub (now_ns ()) ts)
      ~args:[ ("jobs", J.Int (Array.length jobs.open_ + Array.length jobs.closed)) ]
      "perfbench.svc_pass";
  { srv_setup = srv.setup_s; rss_mb; warm; open_; closed }

(* ------------------------------------------------------------------ *)
(* Gates                                                              *)
(* ------------------------------------------------------------------ *)

(* Every verdict must be a pass and equal its in-process reference
   (canonical line: status, min_t, nodes, memo hits).  Returns the
   number of jobs that failed. *)
let gate_phase g ~reference ph jobs =
  Option.iter (fun m -> fail g "%s" m) ph.failure;
  let bad = ref 0 in
  Array.iteri
    (fun i (j : Job.t) ->
      let want : Verdict.t = reference.(j.Job.seq) in
      let ok =
        match ph.verdicts.(i) with
        | None -> false
        | Some v ->
          v.Verdict.status = Verdict.Pass
          && Verdict.to_line v = Verdict.to_line want
      in
      if not ok then begin
        incr bad;
        if !bad <= 3 then
          fail g "job %s: got %s, expected %s" j.Job.id
            (match ph.verdicts.(i) with
            | None -> "no verdict"
            | Some v -> Verdict.to_line v)
            (Verdict.to_line want)
      end)
    jobs;
  !bad

(* Verdicts per second as the median over ten equal slices of the
   verdict stream, so that a stall confined to one slice barely moves
   it. *)
let slices = 10

let throughput ph =
  let t = sorted ph.arrived_s in
  let c = (Array.length t - 1) / slices in
  if c < 1 then float_of_int (Array.length t) /. ph.wall_s
  else
    median
      (Array.init slices (fun i ->
           float_of_int c /. (t.((i + 1) * c) -. t.(i * c))))

let nodes ph =
  Array.fold_left
    (fun a v -> match v with Some v -> a + v.Verdict.nodes | None -> a)
    0 ph.verdicts

(* Mean wall per call of [f] over [xs], repeated for at least 0.2 s. *)
let per_call_us f xs =
  let n = Array.length xs in
  let calls = ref 0 and t0 = now_s () in
  while now_s () -. t0 < 0.2 || !calls = 0 do
    Array.iteri (fun i x -> ignore (Sys.opaque_identity (f i x))) xs;
    calls := !calls + n
  done;
  (now_s () -. t0) *. 1e6 /. float_of_int !calls

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

let run ~workload ~tiny ~seed ~seconds ~trace ~work ~elin =
  let k = kind workload in
  let g = gates () in
  let jobs = make_jobs k ~seed ~seconds ~tiny in
  let all = Array.concat [ jobs.warm; jobs.open_; jobs.closed ] in
  (* Setup: throwaway servers, then the measured pass's own. *)
  let setups =
    if trace then []
    else
      List.init (setup_cycles - 1) (fun c ->
          let srv = start_server ~elin ~work ~stats:false c in
          stop_server srv;
          srv.setup_s)
  in
  let plain = pass ~elin ~work ~k ~jobs ~stats:false setup_cycles in
  let traced =
    if trace then
      Some (pass ~traced:true ~elin ~work ~k ~jobs ~stats:true (setup_cycles + 1))
    else None
  in
  let t0 = now_s () in
  let reference =
    Array.of_list (Pool.run_batch ~domains:server_domains (Array.to_list all))
  in
  let pool_wall = now_s () -. t0 in
  let passes = plain :: Option.to_list traced in
  let failed =
    List.fold_left
      (fun acc p ->
        acc
        + gate_phase g ~reference p.warm jobs.warm
        + gate_phase g ~reference p.open_ jobs.open_
        + gate_phase g ~reference p.closed jobs.closed)
      0 passes
  in
  let attempted = List.length passes * Array.length all in
  let setup_samples = Array.of_list (setups @ [ plain.srv_setup ]) in
  let nodes_per_job =
    float_of_int (nodes plain.closed) /. float_of_int (Array.length jobs.closed)
  in
  let detail =
    [
      ("jobs", J.Obj [ ("warm", J.Int (Array.length jobs.warm));
                       ("open", J.Int (Array.length jobs.open_));
                       ("closed", J.Int (Array.length jobs.closed)) ]);
      ("rate_per_s", J.Float k.rate);
      ("lat_ms", summary plain.open_.lat_ms);
      ("closed_lat_ms", summary plain.closed.lat_ms);
      ("gen_late_ms", summary plain.open_.late_ms);
      ("setup_s", summary setup_samples);
      ("open_nodes", J.Int (nodes plain.open_));
    ]
  in
  let metrics =
    match traced with
    | None ->
      [
        ("setup_s", median setup_samples);
        ("mc_states_per_s", nodes_per_job *. throughput plain.closed);
        ("peak_rss_mb", plain.rss_mb);
        ("lat_p50_ms", median plain.open_.lat_ms);
        ("capacity_jobs_per_s", throughput plain.closed);
      ]
    | Some t ->
      let wall_ms =
        Array.map
          (function Some v -> v.Verdict.wall_ms | None -> nan)
          t.open_.verdicts
      in
      let outside = Array.mapi (fun i l -> l -. wall_ms.(i)) t.open_.lat_ms in
      let lines = Array.map Job.to_line all in
      [
        ("lat_p99_ms", p99_or_max plain.open_.lat_ms);
        ("svc.check_ms.p50", median wall_ms);
        ("svc.check_ms.p99", p99_or_max wall_ms);
        ("svc.outside_check_ms.p50", median outside);
        ("svc.outside_check_ms.p99", p99_or_max outside);
        ("svc.client_send_ms.p99", p99_or_max t.open_.send_ms);
        ("svc.gen_late_ms.p99", p99_or_max t.open_.late_ms);
        ("svc.nodes", float_of_int (nodes t.open_));
        ("svc.pool_jobs_per_s", float_of_int (Array.length all) /. pool_wall);
        ( "svc.job_decode_us",
          per_call_us (fun seq line -> Job.of_line ~seq line) lines );
        ( "svc.verdict_encode_us",
          per_call_us (fun _ v -> Verdict.to_line v) reference );
        ("trace.overhead", t.closed.wall_s /. plain.closed.wall_s);
      ]
  in
  { attempted; failed; gate_errors = g.errors; metrics; detail }
