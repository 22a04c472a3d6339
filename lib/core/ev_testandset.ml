(** The trivial eventually linearizable test&set (Section 4).

    "A test&set object has an eventually linearizable implementation
    where each process simply returns 0 for its first invocation of
    test&set and 1 for all subsequent invocations."  No shared base
    objects at all: the implementation misbehaves (several processes
    may win) only during the finite prefix in which first invocations
    happen, and any t beyond the last first-invocation response
    linearizes the history by declaring one early winner first.

    This is one horn of the paradox: test&set requires synchronization
    only at the beginning of an execution, so weakening linearizability
    to eventual linearizability trivializes it — in contrast with
    fetch&increment (see [Stabilize]). *)

open Elin_spec
open Elin_runtime

let impl () : Impl.t =
  {
    Impl.name = "test&set/ev-local";
    bases = [||];
    local_init = Value.bool false; (* have I invoked before? *)
    program =
      (fun ~proc:_ ~local op ->
        match Op.name op with
        | "test&set" ->
          let seen = Value.to_bool local in
          Program.return
            (Value.int (if seen then 1 else 0), Value.bool true)
        | other -> invalid_arg ("test&set/ev-local: unknown operation " ^ other));
  }

(** A run of this implementation is linearizable only when a single
    process performs the very first test&set alone; the canonical
    violation (two concurrent winners) is produced by any schedule
    interleaving two first invocations — tests exhibit it as the
    lex-min counterexample of [Elin_mc.Mc.check]. *)
let spec = Testandset.spec
