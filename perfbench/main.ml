(* perfbench: the repository's end-to-end and per-layer benchmark.

     main.exe --workload compile|simulate|batch --seed N --seconds S --trace 0|1

   Prints one line per metric, then, as the last line, one JSON object
   with [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics on an untraced run, the per-layer metrics on a traced one.
   Exits 1 when any output was wrong. See README.md. *)

open Masc_perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "compile|simulate|batch");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let s = { Workloads.seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  let report = Report.create () in
  let measured, batch =
    match !workload with
    | "compile" -> (Workloads.compile_wl s report, None)
    | "simulate" -> (Workloads.simulate_wl s report, None)
    | "batch" ->
      let m, b = Workloads.batch_wl s report in
      (m, Some b)
    | w ->
      prerr_endline ("perfbench: unknown workload '" ^ w ^ "'");
      exit 2
  in
  Summary.end_to_end report measured;
  Summary.per_layer report measured batch;
  Report.add report "error_rate"
    (float_of_int report.failed /. float_of_int (max 1 report.attempted))
    "ratio";
  let names = if s.trace then Metric_names.per_layer else Metric_names.end_to_end in
  Report.print report ~keep:(fun n -> List.mem_assoc n names);
  exit (if report.failed = 0 then 0 else 1)
