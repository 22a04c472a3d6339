(** The paradox construction (Proposition 18): from an eventually
    linearizable fetch&increment implementation A, derive a fully
    linearizable fetch&increment implementation A′ over the same base
    objects.

    The paper's proof has three steps, each of which this module makes
    executable on concrete implementations:

    1. {b Stable configuration.}  A configuration C is stable when
       every execution extending αC is |αC|-linearizable.  Claim 1
       proves one exists; we *certify* stability by exhaustively
       exploring all extensions of C to a depth bound and checking
       t-linearizability of every leaf history with t = (number of
       history events at C).  For the concrete algorithm A =
       [Elin_runtime.Impls.fai_ev_board ~k], stabilization provably
       occurs once the board holds k announcements and no process is
       mid-operation, so the bounded certificate is exact there.

    2. {b Anchor operation.}  From C, reach C_idle by letting each
       process finish its current operation solo, then run one process
       solo until some fetch&inc op0 returns a value equal to the
       number of fetch&inc operations invoked before it.  The
       configuration C0 at op0's response fixes v0.

    3. {b Derivation.}  A′ = A with every base object initialized to
       its state in C0, every process's local memory initialized as in
       C0, and each response decremented by v0.  The final step
       verifies, again by exhaustive exploration, that A′ is
       linearizable from its new initial configuration. *)

open Elin_spec
open Elin_runtime
open Elin_explore

type stable_certificate = {
  config : Explore.config;
  cut : int;              (* t = history events at the configuration *)
  leaves_checked : int;   (* distinct leaf configurations searched *)
  extension_depth : int;
}

(** [certify impl config ~depth ~check] — bounded stability check:
    [check h ~t] must decide t-linearizability of the implemented
    type's histories.  Every extension of [config] by at most [depth]
    steps is searched by {!Elin_mc.Mc.check_from}, which merges the
    commuting-access diamonds of the extension tree. *)
let certify (impl : Impl.t) (config : Explore.config) ~depth ~check =
  let cut = config.Explore.n_events in
  Elin_obs.Trace.with_span ~cat:"stabilize" "stabilize.certify"
    ~args:
      [ ("cut", Elin_obs.Jsonl.Int cut); ("depth", Elin_obs.Jsonl.Int depth) ]
  @@ fun () ->
  let out =
    Elin_mc.Mc.check_from impl config ~max_extra_steps:depth (fun h ->
        check h ~t:cut)
  in
  if out.Elin_mc.Mc.ok then
    Some
      {
        config;
        cut;
        leaves_checked = out.Elin_mc.Mc.stats.Elin_mc.Search.leaves;
        extension_depth = depth;
      }
  else None

(** [find_stable impl ~workloads ~path_sched ~max_path ~depth ~check]
    walks a single canonical execution path (scheduler [path_sched]
    picks the process, the first adversary branch is taken) and
    returns the first configuration along it that certifies stable.
    Claim 1 of the proof guarantees a stable configuration exists in
    the tree; for our concrete algorithms the canonical path reaches
    one quickly. *)
let find_stable (impl : Impl.t) ~workloads
    ?(path_sched = Sched.round_robin ()) ?(max_path = 200) ~depth ~check () =
  let rec walk c n =
    if n > max_path then None
    else
      match certify impl c ~depth ~check with
      | Some cert -> Some cert
      | None -> (
        match Explore.runnable c with
        | [] -> None
        | rs -> (
          match path_sched.Sched.choose ~runnable:rs ~step:c.Explore.steps with
          | None -> None
          | Some p -> (
            match Explore.step impl c p with
            | [] -> None
            | c' :: _ -> walk c' (n + 1))))
  in
  walk (Explore.initial_config impl ~workloads ()) 0

type anchor = {
  config0 : Explore.config; (* C0: right after op0's response *)
  v0 : int;                 (* ops linearized before the new origin *)
}

(** [find_anchor impl config ~proc ~fuel] — run [proc] solo from
    [config] (first adversary branch) until some fetch&inc returns
    exactly the number of operations invoked before it. *)
let find_anchor (impl : Impl.t) (config : Explore.config) ~proc ~fuel =
  let rec go c fuel pending_n_before =
    if fuel <= 0 then None
    else begin
      let pr = c.Explore.procs.(proc) in
      let pending_n_before =
        match pr.Explore.running with
        | None -> c.Explore.invocations (* next invoke will see this count *)
        | Some _ -> pending_n_before
      in
      match Explore.step impl c proc with
      | [] -> None
      | c' :: _ -> (
        (* Did this step emit op0's response? *)
        match c'.Explore.events_rev with
        | Elin_history.Event.{ proc = p; payload = Respond v; _ } :: _
          when p = proc && c'.Explore.n_events > c.Explore.n_events -> (
          match v with
          | Value.Int n when n = pending_n_before ->
            (* v0 counts the fetch&inc operations invoked on the path
               from the root to C0 — including op0 itself. *)
            Some { config0 = c'; v0 = c'.Explore.invocations }
          | _ -> go c' (fuel - 1) pending_n_before)
        | _ -> go c' (fuel - 1) pending_n_before)
    end
  in
  go config fuel 0

(** [derive impl anchor] — build A′: base objects and process-local
    memories initialized as in C0, responses shifted down by v0.
    Returns the implementation and the per-process initial locals. *)
let derive (impl : Impl.t) (anchor : anchor) : Impl.t * Value.t array =
  let c0 = anchor.config0 in
  let bases =
    Array.mapi
      (fun i (b : Base.t) -> { b with Base.init = c0.Explore.bases.(i) })
      impl.Impl.bases
  in
  let shift v =
    match v with
    | Value.Int n -> Value.int (n - anchor.v0)
    | v -> v
  in
  let rec shift_result (m : (Value.t * Value.t) Program.t) =
    match m with
    | Program.Return (r, l) -> Program.Return (shift r, l)
    | Program.Access (obj, op, k) ->
      Program.Access (obj, op, fun v -> shift_result (k v))
  in
  let impl' =
    {
      Impl.name = impl.Impl.name ^ "/stabilized";
      bases;
      local_init = impl.Impl.local_init;
      program =
        (fun ~proc ~local op -> shift_result (impl.Impl.program ~proc ~local op));
    }
  in
  let locals =
    Array.map (fun pr -> pr.Explore.local) c0.Explore.procs
  in
  (impl', locals)

type outcome = {
  certificate : stable_certificate;
  anchor : anchor;
  derived : Impl.t;
  derived_locals : Value.t array;
}

(** [construct impl ~workloads ~anchor_proc ~depth ~check ~fuel] — the
    whole pipeline: find a stable configuration, idle it, anchor, and
    derive A′. *)
let construct (impl : Impl.t) ~workloads ?(anchor_proc = 0) ~depth
    ~check ?(fuel = 400) () =
  let phase name f =
    Elin_obs.Trace.with_span ~cat:"stabilize" ("stabilize." ^ name) f
  in
  match
    phase "find_stable" (fun () ->
        find_stable impl ~workloads ~depth ~check ())
  with
  | None -> None
  | Some cert -> (
    match
      phase "idle" (fun () ->
          Explore.complete_current_ops impl cert.config ~fuel)
    with
    | None -> None
    | Some c_idle -> (
      match
        phase "anchor" (fun () ->
            find_anchor impl c_idle ~proc:anchor_proc ~fuel)
      with
      | None -> None
      | Some anchor ->
        let derived, derived_locals =
          phase "derive" (fun () -> derive impl anchor)
        in
        Some { certificate = cert; anchor; derived; derived_locals }))
