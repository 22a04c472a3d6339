(** Test&set bit.

    Returns the old value and sets the bit.  The paper's example of a
    long-lived type that is "interesting only in a finite prefix" of
    each execution, hence trivially eventually linearizable
    (Section 4): the first test&set to be linearized returns 0, all
    others return 1 — after the first operation the object never
    changes again. *)

let unknown other = invalid_arg ("test&set: unknown operation " ^ other)

let response q op =
  match Op.name op with
  | "test&set" | "read" -> q
  | other -> unknown other

let next q op =
  match Op.name op with
  | "test&set" -> Value.int 1
  | "read" -> q
  | other -> unknown other

let spec ?(initial = 0) () =
  Spec.deterministic ~name:"test&set" ~initial:(Value.int initial) ~response
    ~next
    ~all_ops:[ Op.test_and_set ]
