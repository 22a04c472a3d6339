(** Implementation composition: flattening towers of implementations.

    The paper's introduction frames shared-memory computing as "raising
    the abstraction level": objects are built from objects that are
    themselves built in software.  [flatten] makes that executable:
    given an outer implementation and, for each of its base objects, an
    inner implementation of that object's type, substitute every outer
    base access by the inner programme, producing one flat
    implementation over the inner base objects.

    Process-local state composes: the flattened local value packs the
    outer local with one inner local per outer base object (each
    process owns its own inner locals, as the model prescribes).

    Caveat the tests probe rather than assume: flattening preserves
    correctness only when the inner implementations are atomic enough —
    an inner implementation whose operations are merely eventually
    linearizable yields an outer object with inherited misbehaviour,
    which is exactly the situation Theorem 12 and Prop. 15 reason
    about. *)

open Elin_spec
open Elin_runtime

let pack outer_local inner_locals =
  Value.pair outer_local (Value.list (Array.to_list inner_locals))

let unpack local =
  let outer_local, inner = Value.to_pair local in
  (outer_local, Array.of_list (Value.to_list inner))

(** [flatten ~outer ~inner] — [inner i] implements the type of
    [outer]'s base object [i].  One shared instance of each inner
    implementation replaces the corresponding outer base object. *)
let flatten ~(outer : Impl.t) ~(inner : int -> Impl.t) : Impl.t =
  let n_outer = Array.length outer.Impl.bases in
  let inners = Array.init n_outer inner in
  (* Base-index offsets for each inner instance. *)
  let offsets = Array.make n_outer 0 in
  let total =
    let acc = ref 0 in
    Array.iteri
      (fun i (im : Impl.t) ->
        offsets.(i) <- !acc;
        acc := !acc + Array.length im.Impl.bases)
      inners;
    !acc
  in
  let bases =
    Array.init total (fun j ->
        (* Find the inner instance owning flat index j. *)
        let rec owner i =
          if
            i + 1 < n_outer && j >= offsets.(i + 1)
          then owner (i + 1)
          else i
        in
        let i = owner 0 in
        inners.(i).Impl.bases.(j - offsets.(i)))
  in
  let program ~proc ~local op =
    let outer_local0, inner_locals0 = unpack local in
    (* Interpret the outer programme, running inner programmes in place
       of base accesses.  [inner_locals] threads through sequentially —
       programmes are sequential per process, so this is sound. *)
    let rec interp_outer inner_locals
        (m : (Value.t * Value.t) Program.t) : (Value.t * Value.t) Program.t =
      match m with
      | Program.Return (resp, outer_local') ->
        Program.Return (resp, pack outer_local' inner_locals)
      | Program.Access (obj, op, k) ->
        let im = inners.(obj) in
        let rec interp_inner (p : (Value.t * Value.t) Program.t) =
          match p with
          | Program.Return (resp, il') ->
            let inner_locals' = Array.copy inner_locals in
            inner_locals'.(obj) <- il';
            interp_outer inner_locals' (k resp)
          | Program.Access (iobj, iop, ik) ->
            Program.Access (offsets.(obj) + iobj, iop, fun v ->
                interp_inner (ik v))
        in
        interp_inner (im.Impl.program ~proc ~local:inner_locals.(obj) op)
    in
    interp_outer inner_locals0 (outer.Impl.program ~proc ~local:outer_local0 op)
  in
  {
    Impl.name = outer.Impl.name ^ "∘flatten";
    bases;
    local_init =
      pack outer.Impl.local_init
        (Array.map (fun (im : Impl.t) -> im.Impl.local_init) inners);
    program;
  }

(** [identity_inner base] — the trivial inner implementation: the base
    object itself, accessed atomically.  [flatten ~outer
    ~inner:(fun i -> identity_inner outer.bases.(i))] is behaviourally
    identical to [outer] (tests verify history equality). *)
let identity_inner (base : Base.t) : Impl.t = Impl.direct base

(** Consensus from compare&swap: the canonical inner implementation for
    stacking the universal construction on hardware primitives.
    [propose v] CASes the cell from [undecided] and reads the winner —
    two atomic accesses, wait-free, linearizable. *)
let consensus_from_cas () : Impl.t =
  let undecided = Consensus_spec.undecided in
  let cas_spec =
    (* A CAS cell over arbitrary values, starting at [undecided]. *)
    Spec.deterministic ~name:"cas-cell" ~initial:undecided
      ~response:Cas_object.response ~next:Cas_object.next ~all_ops:[ Op.read ]
  in
  let ( let* ) = Program.bind in
  {
    Impl.name = "consensus/cas";
    bases = [| Base.linearizable cas_spec |];
    local_init = Value.unit;
    program =
      (fun ~proc:_ ~local op ->
        match Op.name op, Op.args op with
        | "propose", [ v ] ->
          let* _ = Program.access 0 (Op.make "cas" ~args:[ undecided; v ]) in
          let* winner = Program.access 0 Op.read in
          Program.return (winner, local)
        | other, _ -> invalid_arg ("consensus/cas: unknown operation " ^ other));
  }
