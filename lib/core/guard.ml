(** The weak-consistency guard (Proposition 11 / Figure 1).

    Wraps any implementation whose histories are t-linearizable for
    some t into one that is additionally weakly consistent — hence
    eventually linearizable.  Following the paper's algorithm:

    {v
    Execute(op):
      announce op                                   (line 2)
      ⟨qi, r_private⟩ := apply op to private state  (line 4)
      r_shared := run the inner implementation      (line 5)
      read all announced operations                 (lines 6-12)
      if some permutation of a subset of the announced operations
         (including all of one's own) is a legal sequential execution
         in which op returns r_shared
      then return r_shared else return r_private    (lines 13-14)
    v}

    The paper announces on per-process unbounded register arrays
    R_i[0,1,...]; we announce on one linearizable append/read-all board
    (a history object buildable from exactly such register arrays),
    which keeps programmes short enough for exhaustive exploration.
    The line-13 search is [Elin_checker.Weak.justifiable]. *)

open Elin_spec
open Elin_runtime

let ( let* ) = Program.bind

let bot = Value.str "bot"

(* Lines 4-14, shared by both substrates once [op] is announced:
   [announced] reads every announcement as (process, operation) pairs
   in announcement order (lines 6-12).  Yields the response, the inner
   implementation's local state and the private state. *)
let execute ~spec ~(inner : Impl.t) ~announced ~proc ~inner_local ~qi op =
  (* line 4: private state and response *)
  let r_private, qi' =
    match Spec.apply spec qi op with
    | (r, q') :: _ -> (r, q')
    | [] -> invalid_arg "Guard: operation not applicable privately"
  in
  (* line 5: inner implementation *)
  let* r_shared, inner_local' =
    inner.Impl.program ~proc ~local:inner_local op
  in
  (* lines 6-12 *)
  let* entries = announced in
  (* Drop this operation's own announcement — the last one by this
     process — since the final op of the permutation is op itself. *)
  let entries_before =
    let rec remove_first = function
      | [] -> []
      | (p, o) :: tl when p = proc && Op.equal o op -> tl
      | e :: tl -> e :: remove_first tl
    in
    List.rev (remove_first (List.rev entries))
  in
  let pool = List.map snd entries_before in
  let required =
    List.mapi (fun i (p, _) -> (i, p)) entries_before
    |> List.filter_map (fun (i, p) -> if p = proc then Some i else None)
  in
  (* line 13: the permutation test; line 14 *)
  let justified =
    Elin_checker.Weak.justifiable spec ~pool ~required ~op ~resp:r_shared
  in
  Program.return
    ((if justified then r_shared else r_private), inner_local', qi')

(** [wrap_registers ~spec ~procs ~max_ops inner] — the appendix's
    literal substrate: per-process single-writer register arrays
    [R_i[0 .. max_ops-1]], all initialized to ⊥.  Process [i] announces
    its [c_i]-th operation by writing [R_i[c_i]] (line 2, with [c_i]
    kept in the process's local state per line 3), and lines 6–12 scan
    each [R_j] register by register until the first ⊥.  Behaviourally
    equivalent to {!wrap} (tests check the verdicts agree); the board
    variant exists because its shorter programmes explore better. *)
let wrap_registers ~spec ~procs ~max_ops (inner : Impl.t) : Impl.t =
  let n_inner = Array.length inner.Impl.bases in
  let reg_index ~owner ~slot = n_inner + (owner * max_ops) + slot in
  let announce_reg =
    Register.spec_value ~initial:bot ~domain:[ bot ] ()
  in
  (* Scan R_j for j = 0..procs-1, collecting announced entries in
     (j, k)-lexicographic order, stopping each column at the first ⊥
     (lines 6-12). *)
  let read_all () =
    let rec scan_proc j k acc =
      if j >= procs then Program.return (List.rev acc)
      else if k >= max_ops then scan_proc (j + 1) 0 acc
      else
        let* v = Program.access (reg_index ~owner:j ~slot:k) Op.read in
        if Value.equal v bot then scan_proc (j + 1) 0 acc
        else scan_proc j (k + 1) ((j, Codec.decode_op v) :: acc)
    in
    scan_proc 0 0 []
  in
  {
    Impl.name = inner.Impl.name ^ "+guard-regs";
    bases =
      Array.append inner.Impl.bases
        (Array.init (procs * max_ops) (fun _ -> Base.linearizable announce_reg));
    local_init =
      Value.pair inner.Impl.local_init
        (Value.pair (Spec.initial spec) (Value.int 0));
    program =
      (fun ~proc ~local op ->
        let inner_local, rest = Value.to_pair local in
        let qi, ci = Value.to_pair rest in
        let ci = Value.to_int ci in
        if ci >= max_ops then invalid_arg "Guard: register array exhausted";
        (* line 2: announce op in R_i[c_i]; line 3: c_i := c_i + 1 *)
        let* _ =
          Program.access (reg_index ~owner:proc ~slot:ci)
            (Op.write_value (Codec.encode_op op))
        in
        let* resp, inner_local', qi' =
          execute ~spec ~inner ~announced:(read_all ()) ~proc ~inner_local ~qi
            op
        in
        Program.return
          (resp, Value.pair inner_local' (Value.pair qi' (Value.int (ci + 1)))))
  }

(** [wrap ~spec inner] — guard the implementation [inner] of type
    [spec].  The guarded implementation appends one board to [inner]'s
    base objects. *)
let wrap ~spec (inner : Impl.t) : Impl.t =
  let n_inner = Array.length inner.Impl.bases in
  (* Inner programmes address bases 0..n_inner-1 unchanged; the board
     sits just past them. *)
  let board = n_inner in
  {
    Impl.name = inner.Impl.name ^ "+guard";
    bases =
      Array.append inner.Impl.bases
        [| Base.linearizable (Announce_board.spec ()) |];
    local_init = Value.pair inner.Impl.local_init (Spec.initial spec);
    program =
      (fun ~proc ~local op ->
        let inner_local, qi = Value.to_pair local in
        (* line 2: announce *)
        let* _ = Program.access board
            (Announce_board.announce (Codec.encode_entry ~proc op))
        in
        (* lines 6-12: read every announcement *)
        let announced =
          Program.map
            (fun log -> List.map Codec.decode_entry (Value.to_list log))
            (Program.access board Announce_board.read_log)
        in
        let* resp, inner_local', qi' =
          execute ~spec ~inner ~announced ~proc ~inner_local ~qi op
        in
        Program.return (resp, Value.pair inner_local' qi'))
  }
