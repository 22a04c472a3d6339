(** Owner-partitioned set of 64-bit fingerprints: the search's owner
    function and the spill tier's hot set.

    Each domain has {e outright ownership} of one shard: a
    fingerprint's owner is a pure function of its value ({!owner}), all
    [add]/[mem] traffic for it happens on the owning domain, and the
    shard is an unboxed {!Fp_table} with no lock on the hot path.
    Cross-domain synchronization is the {e caller's} routing
    discipline (the search hands fingerprints to their owner over
    {!Spsc} queues and separates phases with {!Barrier}); this module
    itself is just the partition function plus per-shard tables.

    {2 Bit discipline}

    [owner] keys on the {e high} bits of {!Fingerprint.mix}, so a
    fingerprint family confined to one owner shard still disperses
    uniformly over the low bits of the same mixed word — what the
    shard's slot index reads.  (Keying the owner on raw low bits
    was an aliasing bug: all of one shard's fingerprints shared their
    residue.) *)

type t = {
  tables : Fp_table.t array;
  shards : int;
}

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Shard_set.create: shards must be >= 1";
  { tables = Array.init shards (fun _ -> Fp_table.create ()); shards }

let shards t = t.shards

(* High 31 bits of the mixed word (shifting by 33 also clears the sign
   bit of the int64-to-int conversion), disjoint from the low bits a
   slot index reads. *)
let owner t (fp : int64) =
  if t.shards = 1 then 0
  else
    Int64.to_int (Int64.shift_right_logical (Fingerprint.mix fp) 33)
    mod t.shards

(** [add t ~shard fp] — [true] iff [fp] was not yet a member of
    [shard] (it is now).  The caller must be [shard]'s owning domain;
    [shard] must be [owner t fp] for membership to mean anything
    set-wide. *)
let add t ~shard fp = Fp_table.add t.tables.(shard) fp 0

let mem t ~shard fp = Fp_table.mem t.tables.(shard) fp

let shard_cardinal t shard = Fp_table.length t.tables.(shard)

let iter t ~shard f = Fp_table.iter (fun fp _ -> f fp) t.tables.(shard)

let clear t ~shard = Fp_table.clear t.tables.(shard)

(* Quiescent callers only (stats at end of search). *)
let cardinal t =
  Array.fold_left (fun n tbl -> n + Fp_table.length tbl) 0 t.tables
