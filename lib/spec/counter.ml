(** Plain counter (inc / read).

    Unlike fetch&increment, [inc] returns no information, so the type
    is strictly weaker (consensus number 1); it is the natural object
    for the introduction's reference-counting scenario and lets the
    benchmarks contrast "counting without reading" with fetch&inc. *)

let unknown other = invalid_arg ("counter: unknown operation " ^ other)

let response q op =
  match Op.name op with
  | "inc" -> Value.unit
  | "read" -> q
  | other -> unknown other

let next q op =
  match Op.name op with
  | "inc" -> Value.int (Value.to_int q + 1)
  | "read" -> q
  | other -> unknown other

let spec ?(initial = 0) () =
  Spec.deterministic ~name:"counter" ~initial:(Value.int initial) ~response
    ~next
    ~all_ops:[ Op.inc; Op.read ]
