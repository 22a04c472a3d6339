(* Entry point of the benchmark binary.

     perfbench --workload W --seed N --seconds S --trace 0|1
               --elin PATH --work DIR [--tiny]
               [--nproc N] [--rev REV] [--profile P]

   prints one stamped result row (a JSON object under "row"), then, as
   its last line, the result object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1 (which also writes DIR/trace-W-N.json in the Chrome
   trace format `elin trace report` reads).  perfbench/run.py builds
   the binaries and calls this; see perfbench/README.md.

     perfbench --probe W --work DIR [--tiny]

   is the mc setup probe: it prepares workload W, prints "ready" and
   exits; the parent times it from spawn to that line. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1 --elin \
     PATH --work DIR [--tiny] [--nproc N] [--rev REV] [--profile P]";
  exit 2

let mc_workloads = [ "mc_board"; "mc_spill" ]
let svc_workloads = [ "svc_small"; "svc_check" ]

let parse argv =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | "--tiny" :: rest ->
      Hashtbl.replace tbl "tiny" "1";
      go rest
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
      Hashtbl.replace tbl (String.sub flag 2 (String.length flag - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  tbl

let setup_probes = 7

(* Spawn-to-ready time of a fresh setup probe process. *)
let probe_setup_s ~workload ~work ~tiny =
  let t0 = now_s () in
  let pid, out =
    spawn Sys.executable_name
      ([ "--probe"; workload; "--work"; work ] @ if tiny then [ "--tiny" ] else [])
      ~stderr_to:(Filename.concat work "probe.log")
  in
  let line = try input_line out with End_of_file -> "" in
  let dt = now_s () -. t0 in
  (match reap pid out with
  | Unix.WEXITED 0 when line = "ready" -> ()
  | _ -> failwith "setup probe failed");
  dt

let () =
  let args = parse Sys.argv in
  let get k = Hashtbl.find_opt args k in
  let tiny = get "tiny" <> None in
  match get "probe" with
  | Some w ->
    ignore (Mc_bench.setup (Mc_bench.cell ~tiny w));
    print_endline "ready"
  | None ->
    let req k = match get k with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (req k) with Some v -> v | None -> usage () in
    let workload = req "workload" and seed = int "seed" and work = req "work" in
    let seconds = float_of_int (int "seconds") in
    let trace =
      match req "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let r =
      if List.mem workload mc_workloads then
        let setup_samples =
          if trace then [||]
          else
            Array.init setup_probes (fun _ ->
                probe_setup_s ~workload ~work ~tiny)
        in
        Mc_bench.run ~workload ~tiny ~seconds ~trace ~work ~setup_samples
      else if List.mem workload svc_workloads then
        Svc_bench.run ~workload ~tiny ~seed ~seconds ~trace ~work
          ~elin:(req "elin")
      else begin
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
          (String.concat ", " (mc_workloads @ svc_workloads));
        exit 2
      end
    in
    let catalogue = if trace then per_layer else end_to_end in
    let g = { errors = r.gate_errors } in
    let values =
      ("failed_frac", float_of_int r.failed /. float_of_int (max 1 r.attempted))
      :: r.metrics
    in
    let metrics =
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name values with
            | Some v -> v
            | None when trace -> 0.
            | None -> fail g "metric %s missing" name; 0.
          in
          if Float.is_finite v then (name, v, unit)
          else begin
            fail g "metric %s is not finite" name;
            (name, 0., unit)
          end)
        catalogue
    in
    let correct = g.errors = [] && r.failed = 0 && r.attempted > 0 in
    let jmetrics =
      J.Obj
        (List.map
           (fun (name, v, unit) ->
             (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
           metrics)
    in
    if trace then begin
      let path = Filename.concat work (Printf.sprintf "trace-%s-%d.json" workload seed) in
      write_trace path;
      Printf.eprintf "perfbench: trace written to %s\n" path
    end;
    let opt k = match get k with Some v -> J.Str v | None -> J.Null in
    let row =
      J.Obj
        [
          ( "row",
            J.Obj
              ([
                 ("workload", J.Str workload);
                 ("seed", J.Int seed);
                 ("seconds", J.Float seconds);
                 ("trace", J.Bool trace);
                 ("tiny", J.Bool tiny);
                 ( "host",
                   J.Obj
                     [
                       ("nproc", opt "nproc");
                       ( "recommended_domain_count",
                         J.Int (Domain.recommended_domain_count ()) );
                       ("ocaml", J.Str Sys.ocaml_version);
                       ("profile", opt "profile");
                       ("rev", opt "rev");
                     ] );
                 ("correct", J.Bool correct);
                 ("attempted", J.Int r.attempted);
                 ("failed", J.Int r.failed);
                 ("gate_errors", J.Arr (List.map (fun e -> J.Str e) g.errors));
                 ("metrics", jmetrics);
               ]
              @ r.detail) );
        ]
    in
    print_endline (J.to_string row);
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool correct);
              ("attempted", J.Int r.attempted);
              ("failed", J.Int r.failed);
              ("metrics", jmetrics);
            ]))
