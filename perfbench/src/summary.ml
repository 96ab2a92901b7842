(* Turns what a workload measured into named metrics. *)

module W = Workloads

(* Timings are reported at the reference host's speed (see [Calib]):
   durations divided by the host factor measured beside them, rates
   multiplied by it. The figures as measured are printed too, with a
   [_raw] suffix, but are not part of the JSON. *)
let end_to_end report (m : W.measured) =
  let add = Report.add report in
  let lat_ms = Array.map (fun ns -> ns /. 1e6) m.W.lat_ns in
  let n = Array.length lat_ms in
  let round = m.round in
  let p50 = Pstats.windowed ~round lat_ms 50.0
  and p99 = Pstats.windowed ~round lat_ms 99.0 in
  let sim = m.sim_instrs_per_s /. 1e6 in
  add "setup_s" (m.setup_s /. m.setup_host) "s";
  add "ops_per_s" (m.ops_per_s *. m.host) "1/s";
  add "op_p50_ms" (p50 /. m.host) "ms";
  add "op_p99_ms" (p99 /. m.host) "ms";
  add "op_samples" (float_of_int n) "count";
  add "op_windows" (float_of_int (n / Pstats.window_size ~round)) "count";
  add "sim_minstr_per_s" (sim *. m.host) "M/s";
  add "speedup_geomean" m.speedup "x";
  add "peak_heap_mb" m.peak_heap_mb "MB";
  add "host_factor" m.host "x";
  add "setup_host_factor" m.setup_host "x";
  add "setup_s_raw" m.setup_s "s";
  add "ops_per_s_raw" m.ops_per_s "1/s";
  add "op_p50_ms_raw" p50 "ms";
  add "op_p99_ms_raw" p99 "ms";
  add "sim_minstr_per_s_raw" sim "M/s"

let ratio num den = if den > 0.0 then num /. den else 0.0

let mean_pair (s, n) = ratio s (float_of_int n)

(* Every per-layer metric, from the traced phase's spans, the spans
   recorded around set-up and checking, the layered-pipeline tallies
   and, for [batch], the service-layer numbers. A layer the workload
   does not exercise reads 0. *)
let per_layer report (m : W.measured) (batch : W.batch_layers option) =
  match m.W.traced with
  | None -> ()
  | Some (traced_lat, phase_spans, wall) ->
    let aggs = Spans.aggregate (phase_spans @ Spans.take ()) in
    let agg name = Hashtbl.find_opt aggs name in
    let per_call f name =
      match agg name with
      | Some a when a.Spans.calls > 0 -> f a /. float_of_int a.calls
      | _ -> 0.0
    in
    let us = per_call (fun a -> a.Spans.total_ns /. 1e3) in
    let words = per_call (fun a -> a.Spans.words) in
    let sum name = match Layered.tally name with Some (s, _) -> s | None -> 0.0 in
    let mean name = match Layered.tally name with Some p -> mean_pair p | None -> 0.0 in
    let values = Hashtbl.create 64 in
    let set name v = Hashtbl.replace values name v in
    List.iter
      (fun layer -> set (layer ^ ".us") (us layer))
      [ "frontend.parse"; "sema.infer"; "mir.lower"; "mir.verify";
        "opt.optimize"; "opt.cleanup"; "vectorize.vectorizer";
        "vectorize.complex_sel"; "codegen.emit"; "vm.plan_compile" ];
    List.iter
      (fun layer -> set (layer ^ ".minor_words") (words layer))
      [ "sema.infer"; "mir.lower"; "opt.optimize"; "codegen.emit" ];
    set "frontend.parse.tokens_per_ms"
      (ratio (sum "frontend.parse.tokens")
         (match agg "frontend.parse" with
         | Some a -> a.Spans.total_ns /. 1e6
         | None -> 0.0));
    List.iter (fun n -> set n (mean n))
      [ "mir.lower.instrs"; "opt.instrs"; "vectorize.loops";
        "vectorize.cplx_ops"; "codegen.c_bytes" ];
    set "opt.skipped_ratio" (ratio (sum "opt.pass_skipped") (sum "opt.pass_visits"));
    List.iter
      (fun p ->
        let name = "opt.pass." ^ p in
        set (name ^ ".us") (us name);
        set (name ^ ".changed_ratio") (mean (name ^ ".changed")))
      Metric_names.passes;
    List.iter
      (fun suffix ->
        set ("vm.plan.ns_per_instr" ^ suffix)
          (ratio (sum ("vm.plan.ns" ^ suffix)) (sum ("vm.plan.instrs" ^ suffix)));
        set ("vm.plan.minor_words_per_run" ^ suffix) (mean ("vm.plan.words" ^ suffix)))
      ("" :: List.map (fun k -> "." ^ k) Metric_names.kernels);
    (match batch with
    | None -> ()
    | Some b ->
      let req = float_of_int b.W.requests in
      set "core.cache.hit_rate" (ratio b.mem_hits b.lookups);
      set "core.cache.hit_us" (mean_pair b.hit_ns /. 1e3);
      set "core.cache.miss_ms" (mean_pair b.miss_ns /. 1e6);
      set "core.disk_cache.hit_rate" (ratio b.disk_hits b.disk_lookups);
      set "core.disk_cache.hit_us" (mean_pair b.disk_hit_ns /. 1e3);
      set "core.disk_cache.writes" b.disk_writes;
      set "core.parallel.busy_frac"
        (ratio b.service_ns (float_of_int W.jobs *. b.run_ns));
      set "svc.request.overhead_us" (mean_pair b.overhead_ns /. 1e3);
      set "svc.batch.parse_us" (ratio b.parse_ns req /. 1e3);
      set "svc.retries" b.retries;
      set "obs.journal.events_per_request" (ratio b.journal_events req);
      set "obs.journal.dropped" b.dropped;
      set "obs.trace.spans_retained"
        (ratio b.spans_retained (float_of_int b.epochs)));
    (* The same operation stream ran untraced first: compare equal
       prefixes of it. *)
    let k = min (Array.length traced_lat) (Array.length m.lat_ns) in
    let prefix a = Pstats.sum (Array.sub a 0 k) in
    set "bench.trace_overhead_frac" (ratio (prefix traced_lat) (prefix m.lat_ns) -. 1.0);
    let phase_aggs = Spans.aggregate phase_spans in
    set "bench.span_coverage" (ratio (Spans.total_self phase_aggs) wall);
    (* The traced phase's spans, written out: where its wall time went. *)
    Printf.eprintf "%-36s %8s %12s %12s %8s\n" "span" "calls" "mean_us"
      "self_ms" "self_%";
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) phase_aggs []
    |> List.sort (fun (_, a) (_, b) -> compare b.Spans.self_ns a.Spans.self_ns)
    |> List.iter (fun (name, (a : Spans.agg)) ->
           Printf.eprintf "%-36s %8d %12.2f %12.2f %8.2f\n" name a.calls
             (a.total_ns /. float_of_int a.calls /. 1e3)
             (a.self_ns /. 1e6) (100.0 *. ratio a.self_ns wall));
    List.iter
      (fun (name, unit) ->
        Report.add report name
          (Option.value ~default:0.0 (Hashtbl.find_opt values name))
          unit)
      Metric_names.per_layer
