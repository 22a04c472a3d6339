(** The protocol model of the valency analysis for two-process
    consensus protocols (Proposition 15's proof machinery, after
    FLP [7]).

    A protocol gives each process a programme over shared base objects
    that terminates with a decision; a configuration is each process's
    running programme or decision plus the base objects' states, and
    [step] takes one process's next atomic step, branching over every
    adversary choice of eventually linearizable base objects.
    [Elin_mc.Mc_valency] searches these configurations exhaustively:
    it checks the consensus specification (agreement, validity,
    termination within the bound) — candidate protocols over registers
    and adversarial eventually-linearizable objects fail, exactly as
    Prop. 15 predicts — computes valences, and locates {e critical
    configurations} (multivalent, all successors univalent), reporting
    which objects the poised steps access: for a correct protocol (e.g.
    from compare&swap) they hit the same universal object. *)

open Elin_spec
open Elin_runtime

type protocol = {
  name : string;
  bases : Base.t array;
  code : proc:int -> input:Value.t -> Value.t Program.t;
}

type pstate = Running of Value.t Program.t | Decided of Value.t

type config = {
  procs : pstate array;
  bases : Value.t array;
  steps : int;
}

let initial (p : protocol) ~inputs =
  {
    procs =
      Array.mapi (fun i input -> Running (p.code ~proc:i ~input)) inputs;
    bases = Array.map (fun (b : Base.t) -> b.Base.init) p.bases;
    steps = 0;
  }

let runnable c =
  List.filter
    (fun i -> match c.procs.(i) with Running _ -> true | Decided _ -> false)
    (List.init (Array.length c.procs) (fun i -> i))

let all_decided c = runnable c = []

(** [poised c i] — the base object process [i] is about to access, if
    its next step is an access. *)
let poised c i =
  match c.procs.(i) with
  | Running (Program.Access (obj, _, _)) -> Some obj
  | Running (Program.Return _) | Decided _ -> None

(** [step p c i] — all configurations after process [i]'s next atomic
    step (adversary branching included).  [?choices] short-circuits
    the [Base.access] enumeration; it must be exactly that
    enumeration (callers that already computed it for footprints or
    digest labels pass it back). *)
let step ?choices (p : protocol) c i =
  match c.procs.(i) with
  | Decided _ -> []
  | Running (Program.Return v) ->
    let procs = Array.copy c.procs in
    procs.(i) <- Decided v;
    [ { c with procs; steps = c.steps + 1 } ]
  | Running (Program.Access (obj, op, k)) ->
    let choices =
      match choices with
      | Some cs -> cs
      | None ->
        p.bases.(obj).Base.access ~state:c.bases.(obj) ~proc:i ~step:c.steps op
    in
    List.map
      (fun (resp, state') ->
        let procs = Array.copy c.procs in
        procs.(i) <- Running (k resp);
        let bases = Array.copy c.bases in
        bases.(obj) <- state';
        { procs; bases; steps = c.steps + 1 })
      choices
