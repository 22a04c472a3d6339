(** Checking jobs: the unit of work the service accepts.

    A job names a spec (by its {!Elin_spec.Zoo} name), a checker kind,
    optional per-job resource bounds, and carries its history in the
    {!Elin_history.Textio} line format — the service wire format embeds
    the CLI's history format as a JSON string, so any history file
    checkable with [elin check] is submittable as a job.

    Wire format (one JSON object per line):

    {v
    {"id":"j1","spec":"fetch&increment","check":"min-t",
     "budget":100000,"timeout_ms":500,
     "history":"inv 0 0 fetch&inc\nres 0 0 0\n"}
    v}

    [check] is one of ["linearizable"], ["t-lin"] (requires an extra
    integer field ["t"]), ["min-t"], ["weak"], ["full"]; [budget]
    (node budget per DFS run) and [timeout_ms] (wall-clock, per job)
    are optional, and can lower the pool's, never raise them
    ({!Pool.create}). *)

type check =
  | Linearizable      (** 0-linearizability *)
  | T_lin of int      (** t-linearizability at the given cut *)
  | Min_t             (** minimal stabilization bound (galloping search) *)
  | Weak              (** weak consistency (Definition 1) *)
  | Full              (** the whole [Report.analyze] battery *)

type t = {
  id : string;           (** caller-chosen; echoed in the verdict *)
  seq : int;             (** submission index; fixes output order *)
  spec : string;         (** spec name, resolved via the pool *)
  check : check;
  node_budget : int option;   (** per-DFS-run expansion budget *)
  timeout_ms : int option;    (** wall-clock budget for the whole job *)
  history_text : string;      (** [Textio] lines *)
  trace : string option;
      (** trace-context id, carried verbatim through the wire and into
          every span recorded for this job — stitches client, server,
          and worker spans into one cross-process trace.  Optional
          field ["trace"]; absent jobs serialize byte-identically to
          the pre-tracing wire format. *)
  parent : string option;
      (** parent span id (a job id): set on decomposed sub-jobs so
          they render as children of the job they were split from.
          Optional field ["parent"]. *)
}

val check_to_string : check -> string

(** [check_of_string s ~t] — [t] is consulted only for ["t-lin"]. *)
val check_of_string : string -> t:int option -> (check, string) result

val to_json : t -> Jsonl.t

(** [of_json ~seq j] — parse a wire object.  The history text is {e
    not} parsed here; malformed histories surface as [bad_job]
    verdicts when the job runs. *)
val of_json : seq:int -> Jsonl.t -> (t, string) result

(** [of_line ~seq line] — {!Jsonl.of_string} + {!of_json}. *)
val of_line : seq:int -> string -> (t, string) result

val to_line : t -> string
