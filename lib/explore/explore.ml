(** The transition semantics of an implementation's executions.

    A configuration is every process's remaining workload, local memory
    and running programme, the base objects' states and the history so
    far; [step] takes one process's next atomic step, branching over
    every adversary choice of the stepped base object.  [Elin_mc.Mc]
    searches these configurations exhaustively to a depth bound;
    because weak consistency is prefix-closed (Lemma 10) and
    t-linearizability is prefix-closed (Lemma 6), checking the leaf
    histories decides "every history of the implementation up to depth
    d satisfies P" exactly.

    Configurations are first-class (immutable programmes, value-encoded
    object states), which the Prop. 18 stabilization machinery uses to
    search for stable configurations and to restart executions from
    them. *)

open Elin_spec
open Elin_history
open Elin_runtime

type proc_state = {
  todo : Op.t list;
  local : Value.t;
  running : (Value.t * Value.t) Program.t option;
}

type config = {
  procs : proc_state array;
  bases : Value.t array;
  events_rev : Event.t list;
  n_events : int;
  steps : int;
  (* Number of implemented-object operations invoked so far. *)
  invocations : int;
}

let initial_config (impl : Impl.t) ~workloads ?locals () =
  let n = Array.length workloads in
  let locals =
    match locals with
    | Some ls -> ls
    | None -> Array.make n impl.Impl.local_init
  in
  {
    procs =
      Array.init n (fun p ->
          { todo = workloads.(p); local = locals.(p); running = None });
    bases = Array.map (fun (b : Base.t) -> b.Base.init) impl.Impl.bases;
    events_rev = [];
    n_events = 0;
    steps = 0;
    invocations = 0;
  }

(* [events_rev] holds [n_events] events, newest first: fill the array
   from its last slot down. *)
let rec fill_rev a i = function
  | [] -> ()
  | e :: rest ->
    a.(i) <- e;
    fill_rev a (i - 1) rest

let history c =
  match c.events_rev with
  | [] -> History.empty
  | e :: _ ->
    let a = Array.make c.n_events e in
    fill_rev a (c.n_events - 1) c.events_rev;
    History.of_events_array a

let is_runnable pr = Option.is_some pr.running || pr.todo <> []

let rec runnable_upto procs p acc =
  if p < 0 then acc
  else
    runnable_upto procs (p - 1) (if is_runnable procs.(p) then p :: acc else acc)

let runnable c = runnable_upto c.procs (Array.length c.procs - 1) []

let is_quiescent c =
  Array.for_all (fun pr -> Option.is_none pr.running) c.procs

let is_done c = not (Array.exists is_runnable c.procs)

let with_proc c p pr =
  let procs = Array.copy c.procs in
  procs.(p) <- pr;
  procs

(** [access_choices impl c p] — the (response, next-state) choices of
    the base access process [p] is poised on.  Raises when [p]'s next
    step is not an access.  Callers that need the choices {e and} the
    stepped configurations ({!Elin_mc}'s digest labelling, footprint
    computation) evaluate [Base.access] once here and pass the result
    back through [step]'s [?choices]. *)
let access_choices (impl : Impl.t) c p =
  match c.procs.(p).running with
  | Some (Program.Access (obj, op, _)) ->
    impl.Impl.bases.(obj).Base.access ~state:c.bases.(obj) ~proc:p
      ~step:c.steps op
  | Some (Program.Return _) | None ->
    invalid_arg "Explore.access_choices: process not poised on an access"

(** [step c p] — all configurations reachable by letting process [p]
    take one atomic step (several when the stepped base object offers
    an adversary choice).  [?choices] short-circuits the [Base.access]
    enumeration on the access branch; it must be exactly
    [access_choices impl c p]. *)
let step ?choices (impl : Impl.t) c p =
  let pr = c.procs.(p) in
  match pr.running with
  | None -> (
    match pr.todo with
    | [] -> []
    | op :: rest ->
      let pr' =
        {
          todo = rest;
          local = pr.local;
          running = Some (impl.Impl.program ~proc:p ~local:pr.local op);
        }
      in
      [
        {
          procs = with_proc c p pr';
          bases = c.bases;
          events_rev = Event.invoke ~proc:p ~obj:0 op :: c.events_rev;
          n_events = c.n_events + 1;
          steps = c.steps + 1;
          invocations = c.invocations + 1;
        };
      ])
  | Some (Program.Return (resp, local')) ->
    let pr' = { pr with local = local'; running = None } in
    [
      {
        c with
        procs = with_proc c p pr';
        events_rev = Event.respond ~proc:p ~obj:0 resp :: c.events_rev;
        n_events = c.n_events + 1;
        steps = c.steps + 1;
      };
    ]
  | Some (Program.Access (obj, _, k)) ->
    let choices =
      match choices with
      | Some cs -> cs
      | None -> access_choices impl c p
    in
    List.map
      (fun (resp, state') ->
        let bases = Array.copy c.bases in
        bases.(obj) <- state';
        let pr' = { pr with running = Some (k resp) } in
        { c with procs = with_proc c p pr'; bases; steps = c.steps + 1 })
      choices

(** [successors impl c] — every configuration one step away. *)
let successors impl c =
  List.concat_map (fun p -> step impl c p) (runnable c)

(** [run_solo impl c p ~until fuel] — step process [p] alone from [c],
    always taking the {e first} adversary choice, until [until] yields
    a value or [fuel] steps are spent; drives the solo runs of the
    Prop. 18 construction. *)
let run_solo (impl : Impl.t) c p ~until =
  let rec go c fuel =
    if fuel = 0 then None
    else
      match until c with
      | Some r -> Some (c, r)
      | None -> (
        match step impl c p with
        | [] -> None
        | c' :: _ -> go c' (fuel - 1))
  in
  go c

(** [complete_current_ops impl c] — the paper's C_idle: let each
    process run solo until its pending operation (if any) completes.
    Takes the first adversary branch.  Returns [None] if some
    operation fails to complete within [fuel] solo steps (the
    implementation would not be non-blocking). *)
let complete_current_ops (impl : Impl.t) c ~fuel =
  let n = Array.length c.procs in
  let rec idle_proc c p =
    if p >= n then Some c
    else
      let pr = c.procs.(p) in
      match pr.running with
      | None -> idle_proc c (p + 1)
      | Some _ -> (
        match
          run_solo impl c p ~until:(fun c' ->
              if Option.is_none c'.procs.(p).running then Some () else None)
            fuel
        with
        | Some (c', ()) -> idle_proc c' (p + 1)
        | None -> None)
  in
  idle_proc c 0
