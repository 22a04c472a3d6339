(** Structured verdicts: what the service returns for each job.

    Wire format (one JSON object per line, same order as the jobs were
    submitted):

    {v
    {"id":"j1","check":"min-t","status":"pass","min_t":2,
     "nodes":131,"memo_hits":4}
    {"id":"j2","check":"linearizable","status":"violation","nodes":57,
     "memo_hits":0}
    {"id":"j3","status":"bad_job","error":"unknown spec \"typo\""}
    v}

    Every field except the wall-clock time is a deterministic function
    of the job (the engine is sequential per job), so serialized
    verdicts are byte-identical across pool sizes; [wall_ms] is only
    emitted when explicitly requested ([~stats:true], [elin batch
    --stats]). *)

type status =
  | Pass                (** the checked property holds *)
  | Violation           (** checked and refuted *)
  | Budget_exhausted    (** node budget ran out before a verdict *)
  | Timed_out           (** wall-clock timeout fired *)
  | Cancelled           (** cooperatively cancelled *)
  | Busy                (** admission refused: the service queue was
                            full (socket server, [--admission busy]) *)
  | Bad_job of string   (** unparseable job / history, unknown spec *)
  | Failed of string    (** the checker raised: the job is failed,
                            the pool lives on *)

type t = {
  job_id : string;
  seq : int;
  check : Job.check option;  (** [None] for unparseable job lines *)
  status : status;
  min_t : int option;        (** for [Min_t]/[Full] checks *)
  nodes : int;               (** DFS expansions (0 where meaningless) *)
  memo_hits : int;
  wall_ms : float;           (** service-side latency; excluded from
                                 canonical output *)
}

val status_to_string : status -> string

(** [to_json ?stats v] — canonical single-line object; [stats]
    (default false) appends the nondeterministic ["wall_ms"] field. *)
val to_json : ?stats:bool -> t -> Jsonl.t

val to_line : ?stats:bool -> t -> string

(** Parses what {!to_json} emits (the socket client and tests). *)
val of_json : seq:int -> Jsonl.t -> (t, string) result

val pp : Format.formatter -> t -> unit
