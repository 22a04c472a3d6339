(* Sealed sorted-segment files.  Format and protocol in segment.mli /
   DESIGN.md §14.  Everything integrity-bearing is CRC'd: the header,
   every 4 KiB record block, and the trailing block index.  The writer
   never exposes a partially written file under the sealed name
   (tmp -> fsync -> rename -> dir fsync). *)

exception Corrupt = Ioutil.Corrupt

let corrupt fmt = Ioutil.corrupt fmt

let magic = "ELINSEG1"
let version = 1

(* 256 records x 16 bytes = 4 KiB of payload per CRC'd block. *)
let block_records = 256
let record_bytes = 16

let ( <=^ ) a b = Int64.unsigned_compare a b <= 0
let ( <^ ) a b = Int64.unsigned_compare a b < 0

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let write ~dir ~name records =
  let n = Array.length records in
  for i = 1 to n - 1 do
    if fst records.(i) <=^ fst records.(i - 1) then
      invalid_arg "Segment.write: records not strictly ascending"
  done;
  let ts = Elin_obs.Trace.begin_ns () in
  let header = Buffer.create 16 in
  add_u32 header version;
  Buffer.add_int64_le header (Int64.of_int n);
  add_u32 header block_records;
  let hs = Buffer.contents header in
  let n_blocks = (n + block_records - 1) / block_records in
  let buf = Buffer.create ((n * record_bytes) + (n_blocks * 12) + 64) in
  Buffer.add_string buf magic;
  add_u32 buf (String.length hs);
  Buffer.add_string buf hs;
  add_u32 buf (Crc32.digest_string hs);
  let index = Buffer.create (n_blocks * 8) in
  let block = Buffer.create (block_records * record_bytes) in
  for b = 0 to n_blocks - 1 do
    let lo = b * block_records in
    let hi = min n (lo + block_records) in
    Buffer.add_int64_le index (fst records.(lo));
    Buffer.clear block;
    for i = lo to hi - 1 do
      let fp, payload = records.(i) in
      Buffer.add_int64_le block fp;
      Buffer.add_int64_le block payload
    done;
    let bs = Buffer.contents block in
    Buffer.add_string buf bs;
    add_u32 buf (Crc32.digest_string bs)
  done;
  let is = Buffer.contents index in
  Buffer.add_string buf is;
  add_u32 buf (Crc32.digest_string is);
  Ioutil.atomic_write ~dir ~name (fun oc -> Buffer.output_buffer oc buf);
  Elin_obs.Trace.complete ~cat:"store" ~ts "store.segment_write"
    ~args:
      [
        ("name", Elin_obs.Jsonl.Str name);
        ("records", Elin_obs.Jsonl.Int n);
        ("bytes", Elin_obs.Jsonl.Int (Buffer.length buf));
      ]

(* The in-RAM Bloom filter over a segment's fingerprints, built at
   open time and never written to disk.  Its size in bits is the
   smallest power of two of at least [bloom_min_bits] per record, so a
   bit position is a mask, not a division: 16 bits per record at
   1 024-record segments, between 10 and 20 in general.  [bloom_probes]
   bit tests per lookup give about 0.07% false positives at 16 bits
   per record (about 1% at 10).  The positions are double-hashed from a
   splitmix64 avalanche of the fingerprint ([filter_hash]), not from
   [Fingerprint.mix]: the high bits of that word pick the owner shard,
   so they are correlated across all of one shard's segments. *)
let bloom_min_bits = 10
let bloom_probes = 7

(* Filter bits for [n] records: a power of two, at least 8. *)
let bloom_size n =
  let rec bits m = if m >= n * bloom_min_bits then m else bits (2 * m) in
  bits 8

(* The avalanche, truncated to an [int]: its low 32 bits are the first
   position, the bits above them the stride. *)
let filter_hash fp =
  let z = Int64.add fp 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

let[@inline] bloom_stride h = (h lsr 32) lor 1
let[@inline] bit_set bits b =
  Char.code (Bytes.get bits (b lsr 3)) land (1 lsl (b land 7)) <> 0

let bloom_add bits mask h =
  let stride = bloom_stride h in
  for i = 0 to bloom_probes - 1 do
    let b = (h + (i * stride)) land mask in
    let byte = Char.code (Bytes.get bits (b lsr 3)) in
    Bytes.set bits (b lsr 3) (Char.unsafe_chr (byte lor (1 lsl (b land 7))))
  done

(* Every one of [h]'s bit positions is set in [bits]. *)
let bloom_mem bits mask h =
  let stride = bloom_stride h in
  let i = ref 0 and b = ref h in
  while !i < bloom_probes && bit_set bits (!b land mask) do
    incr i;
    b := !b + stride
  done;
  !i = bloom_probes

type reader = {
  rname : string;
  fd : Unix.file_descr;
  n : int;
  br : int;  (* block_records as written in this file's header *)
  n_blocks : int;
  data_off : int;
  index : int64 array;  (* first fingerprint of each block *)
  fbytes : int;
  bloom : Bytes.t;  (* holds every member *)
  bloom_mask : int;  (* bit count of [bloom] - 1 *)
  cache : Bytes.t;  (* the one cached, CRC-verified block, CRC included *)
  mutable cached : int;  (* block number in [cache]; -1 = none *)
  mutable block_reads : int;  (* blocks probes loaded from the file *)
  mutable closed : bool;
}

let m_block_reads = Elin_obs.Metrics.counter "store.block_reads"

(* Fill the first [len] bytes of [buf] from file offset [off]. *)
let read_into fd name off buf len what =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let pos = ref 0 in
  while !pos < len do
    let k = Unix.read fd buf !pos (len - !pos) in
    if k = 0 then corrupt "%s: truncated reading %s" name what;
    pos := !pos + k
  done

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

(* The first [len] bytes of [b] against the CRC-32 stored after them. *)
let crc_ok b len =
  Crc32.finish (Crc32.update Crc32.start b 0 len) = get_u32 b len

(* Record count of block [b] (all full except possibly the last). *)
let block_len r b = if b = r.n_blocks - 1 then r.n - (b * r.br) else r.br

(* File offset of block [b]'s first record byte. *)
let block_off r b = r.data_off + (b * ((r.br * record_bytes) + 4))

(* Load block [b] into the cache, CRC-verified. *)
let load_block r b =
  if r.closed then invalid_arg "Segment: reader closed";
  if r.cached <> b then begin
    let len = block_len r b * record_bytes in
    r.cached <- -1;
    read_into r.fd r.rname (block_off r b) r.cache (len + 4) "block";
    if not (crc_ok r.cache len) then
      corrupt "%s: block %d checksum mismatch" r.rname b;
    r.cached <- b
  end

(* Header, size arithmetic and index, then one CRC-verified pass over
   every block that fills the Bloom filter. *)
let validate ~name fd =
  let read off len what =
    let b = Bytes.create len in
    read_into fd name off b len what;
    b
  in
  let fbytes = (Unix.fstat fd).Unix.st_size in
  if fbytes < 12 then corrupt "%s: too short for a segment header" name;
  let head = read 0 12 "magic" in
  if Bytes.sub_string head 0 8 <> magic then corrupt "%s: bad magic" name;
  let hlen = get_u32 head 8 in
  if hlen < 16 || fbytes < 12 + hlen + 4 then
    corrupt "%s: implausible header length %d" name hlen;
  let hblob = read 12 (hlen + 4) "header" in
  if not (crc_ok hblob hlen) then corrupt "%s: header checksum mismatch" name;
  let fver = get_u32 hblob 0 in
  if fver <> version then corrupt "%s: unsupported version %d" name fver;
  let n64 = Bytes.get_int64_le hblob 4 in
  if Int64.unsigned_compare n64 (Int64.of_int max_int) > 0 then
    corrupt "%s: implausible record count" name;
  let n = Int64.to_int n64 in
  let br = get_u32 hblob 12 in
  if br <= 0 then corrupt "%s: bad block size %d" name br;
  let n_blocks = (n + br - 1) / br in
  let data_off = 12 + hlen + 4 in
  let expect =
    data_off + (n * record_bytes) + (n_blocks * 4) + (n_blocks * 8) + 4
  in
  if fbytes <> expect then
    corrupt "%s: size %d bytes, expected %d (truncated or torn)" name fbytes
      expect;
  let ioff = data_off + (n * record_bytes) + (n_blocks * 4) in
  let iblob = read ioff ((n_blocks * 8) + 4) "index" in
  if not (crc_ok iblob (n_blocks * 8)) then
    corrupt "%s: index checksum mismatch" name;
  let index = Array.init n_blocks (fun i -> Bytes.get_int64_le iblob (i * 8)) in
  for i = 1 to n_blocks - 1 do
    if index.(i) <=^ index.(i - 1) then corrupt "%s: index not sorted" name
  done;
  let bloom_bits = bloom_size n in
  let r =
    {
      rname = name;
      fd;
      n;
      br;
      n_blocks;
      data_off;
      index;
      fbytes;
      bloom = Bytes.make (bloom_bits / 8) '\000';
      bloom_mask = bloom_bits - 1;
      cache = Bytes.create ((min n br * record_bytes) + 4);
      cached = -1;
      block_reads = 0;
      closed = false;
    }
  in
  for b = 0 to n_blocks - 1 do
    load_block r b;
    for i = 0 to block_len r b - 1 do
      bloom_add r.bloom r.bloom_mask
        (filter_hash (Bytes.get_int64_le r.cache (i * record_bytes)))
    done
  done;
  r

let open_reader ~dir ~name =
  let fd =
    try Unix.openfile (Filename.concat dir name) [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      corrupt "%s: cannot open (%s)" name (Unix.error_message e)
  in
  try validate ~name fd
  with e ->
    Unix.close fd;
    raise e

let name r = r.rname
let length r = r.n
let file_bytes r = r.fbytes
let block_reads r = r.block_reads

(* Loads the block that would hold [fp] and returns the index of
   [fp]'s record in it, or -1.  [fp] must not precede the first
   record. *)
let find_record r fp =
  (* Last block whose first fingerprint is <= fp. *)
  let lo = ref 0 and hi = ref (r.n_blocks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if r.index.(mid) <=^ fp then lo := mid else hi := mid - 1
  done;
  let b = !lo in
  if r.cached <> b then begin
    r.block_reads <- r.block_reads + 1;
    if Elin_obs.Metrics.on () then Elin_obs.Metrics.Counter.incr m_block_reads
  end;
  load_block r b;
  let lo = ref 0 and hi = ref (block_len r b - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cand = Bytes.get_int64_le r.cache (mid * record_bytes) in
    if Int64.equal cand fp then found := mid
    else if cand <^ fp then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* The filter, and the first record, turn [fp] away without I/O. *)
let[@inline] may_hold r ~hash fp =
  r.n > 0 && (not (fp <^ r.index.(0))) && bloom_mem r.bloom r.bloom_mask hash

let mem r ~hash fp = may_hold r ~hash fp && find_record r fp >= 0

let probe r fp =
  if not (may_hold r ~hash:(filter_hash fp) fp) then None
  else
    let i = find_record r fp in
    if i < 0 then None
    else Some (Bytes.get_int64_le r.cache ((i * record_bytes) + 8))

let iter r f =
  for b = 0 to r.n_blocks - 1 do
    load_block r b;
    for i = 0 to block_len r b - 1 do
      f
        (Bytes.get_int64_le r.cache (i * record_bytes))
        (Bytes.get_int64_le r.cache ((i * record_bytes) + 8))
    done
  done

let to_array r =
  let out = Array.make r.n (0L, 0L) in
  let i = ref 0 in
  iter r (fun fp payload ->
      out.(!i) <- (fp, payload);
      incr i);
  out

let close r =
  if not r.closed then begin
    r.closed <- true;
    Unix.close r.fd
  end
