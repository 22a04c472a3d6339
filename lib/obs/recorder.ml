(* Flight recorder: a bounded per-domain ring of recent cold-path
   events, always on.  See recorder.mli for the contract. *)

type entry = {
  ts : int64;
  dom : int;
  kind : string;
  id : string;
  args : (string * Jsonl.t) list;
}

let cap = 256

(* A slot keeps its entry as bytes in a buffer the ring owns, not as a
   heap value allocated by the noting domain.  An entry value would
   outlive the (often short-lived) domain that allocated it and pin
   that domain's heap pages after it exits — about 2 MB per search
   that spills, since every search spawns fresh domains.  Layout:
   kind length (u16) | kind | id length (u16) | id | args as one JSON
   object (absent when empty).  [len = 0] marks an empty slot. *)
type slot = {
  mutable sts : int;  (* Clock ns *)
  mutable sdom : int;
  mutable text : Bytes.t;  (* grows, never shrinks *)
  mutable len : int;
}

type ring = {
  mutable rdom : int;  (* domain currently writing this ring *)
  slots : slot array;
  mutable next : int;  (* next write position, wraps mod cap *)
}

let fresh_ring dom =
  {
    rdom = dom;
    slots =
      Array.init cap (fun _ ->
          { sts = 0; sdom = 0; text = Bytes.create 64; len = 0 });
    next = 0;
  }

(* Every ring ever made; [spare] holds those whose domain has exited.
   A domain's first [note] adopts a spare ring before making a new one,
   so the ring count is bounded by the peak number of live noting
   domains, not by how many domains a process ever spawned (a search
   spawns fresh domains every call).  An adopted ring keeps its
   previous owner's entries until they are overwritten, so a post-mortem
   still sees what an exited domain did last. *)
let all_rings : ring list ref = ref []
let spare : ring list ref = ref []
let rings_mu = Mutex.create ()

let ring_key =
  Domain.DLS.new_key (fun () ->
      let dom = (Domain.self () :> int) in
      let r =
        Mutex.protect rings_mu (fun () ->
            match !spare with
            | r :: rest ->
                spare := rest;
                r.rdom <- dom;
                r
            | [] ->
                let r = fresh_ring dom in
                all_rings := r :: !all_rings;
                r)
      in
      Domain.at_exit (fun () ->
          Mutex.protect rings_mu (fun () -> spare := r :: !spare));
      r)

let rings () = Mutex.protect rings_mu (fun () -> List.length !all_rings)

let enabled = Atomic.make true
let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

let max_field = 0xFFFF
let clip s = if String.length s > max_field then String.sub s 0 max_field else s

let note ?(id = "") ?(args = []) kind =
  if on () then begin
    let r = Domain.DLS.get ring_key in
    let ts = Int64.to_int (Clock.now_ns ()) in
    let kind = clip kind and id = clip id in
    let args = if args = [] then "" else Jsonl.to_string (Jsonl.Obj args) in
    let nk = String.length kind and ni = String.length id in
    let n = 4 + nk + ni + String.length args in
    (* Claim the slot before writing it, so another systhread of this
       domain noting meanwhile takes the next one. *)
    let s = r.slots.(r.next) in
    r.next <- (r.next + 1) mod cap;
    s.len <- 0;
    if Bytes.length s.text < n then
      s.text <- Bytes.create (max n (2 * Bytes.length s.text));
    let b = s.text in
    Bytes.set_uint16_le b 0 nk;
    Bytes.blit_string kind 0 b 2 nk;
    Bytes.set_uint16_le b (2 + nk) ni;
    Bytes.blit_string id 0 b (4 + nk) ni;
    Bytes.blit_string args 0 b (4 + nk + ni) (String.length args);
    s.sts <- ts;
    s.sdom <- r.rdom;
    s.len <- n
  end

(* [None] for an empty slot, or one whose bytes do not decode. *)
let decode s =
  let b = s.text and len = s.len in
  if len < 4 || len > Bytes.length b then None
  else
    let t = Bytes.sub_string b 0 len in
    try
      let nk = String.get_uint16_le t 0 in
      let ni = String.get_uint16_le t (2 + nk) in
      let off = 4 + nk + ni in
      let args =
        if off = len then []
        else
          match Jsonl.of_string (String.sub t off (len - off)) with
          | Jsonl.Obj fields -> fields
          | _ -> raise Exit
      in
      Some
        {
          ts = Int64.of_int s.sts;
          dom = s.sdom;
          kind = String.sub t 2 nk;
          id = String.sub t (4 + nk) ni;
          args;
        }
    with _ -> None

(* Snapshot every domain's ring, oldest first.  Reads race with
   concurrent writers on other domains.  A slot is copied before it is
   decoded, so a racy read is memory-safe; a slot being rewritten at
   that moment may decode to nothing (skipped) or to a mix of its old
   and new entry.  Good enough for a post-mortem. *)
let entries () =
  Mutex.lock rings_mu;
  let rings =
    Fun.protect ~finally:(fun () -> Mutex.unlock rings_mu) (fun () -> !all_rings)
  in
  rings
  |> List.concat_map (fun r ->
         let out = ref [] in
         for i = 0 to cap - 1 do
           (* Oldest slot is [next] once the ring has wrapped. *)
           match decode r.slots.((r.next + i) mod cap) with
           | Some e -> out := e :: !out
           | None -> ()
         done;
         List.rev !out)
  |> List.stable_sort (fun a b -> Int64.compare a.ts b.ts)

let clear () =
  Mutex.lock rings_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock rings_mu)
    (fun () ->
      List.iter
        (fun r ->
          Array.iter (fun s -> s.len <- 0) r.slots;
          r.next <- 0)
        !all_rings)

let entry_json t0 e =
  let open Jsonl in
  Obj
    ([
       ("ts", Int (Int64.to_int (Int64.sub e.ts t0)));
       ("dom", Int e.dom);
       ("kind", Str e.kind);
     ]
    @ (if e.id = "" then [] else [ ("id", Str e.id) ])
    @ if e.args = [] then [] else [ ("args", Obj e.args) ])

let to_jsonl ~reason ?job () =
  let es = entries () in
  let t0 = match es with [] -> 0L | e :: _ -> e.ts in
  let open Jsonl in
  let header =
    Obj
      ([ ("flight", Str "elin.flight"); ("reason", Str reason) ]
      @ (match job with Some j -> [ ("job", Str j) ] | None -> [])
      @ [
          ("t0", Int (Int64.to_int t0));
          ("events", Int (List.length es));
        ])
  in
  header :: List.map (entry_json t0) es

(* Dump sink: a path configured once at CLI startup (--flight FILE).
   Dumps append, so successive incidents in one process all survive.
   The mutex serializes concurrent dumps from worker domains. *)
let sink : string option ref = ref None
let dump_mu = Mutex.create ()
let dumps = Atomic.make 0

let set_sink p = sink := p
let dump_count () = Atomic.get dumps

let dump ~reason ?job () =
  match !sink with
  | None -> ()
  | Some path ->
      let lines = to_jsonl ~reason ?job () in
      Mutex.lock dump_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock dump_mu)
        (fun () ->
          let oc =
            open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
          in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> List.iter (Jsonl.write_line oc) lines);
          Atomic.incr dumps)

let install_sigusr1 () =
  ignore
    (Sys.signal Sys.sigusr1
       (Sys.Signal_handle (fun _ -> dump ~reason:"sigusr1" ())))
