(* The metrics a run prints, by name and unit. BENCHMARK.json lists the
   same names: the end-to-end ones on an untraced run, the per-layer
   ones on a traced run. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms");
    ("op_p99_ms", "ms"); ("sim_minstr_per_s", "M/s");
    ("speedup_geomean", "x"); ("peak_heap_mb", "MB") ]

let kernels = [ "fir"; "iir"; "fft"; "matmul"; "xcorr"; "fmdemod" ]

let passes =
  [ "const-fold"; "copy-prop"; "collapse"; "global-const"; "dce"; "cse";
    "licm"; "fusion" ]

let per_layer =
  [ ("frontend.parse.us", "us"); ("frontend.parse.tokens_per_ms", "1/ms");
    ("sema.infer.us", "us"); ("sema.infer.minor_words", "words");
    ("mir.lower.us", "us"); ("mir.lower.minor_words", "words");
    ("mir.lower.instrs", "count"); ("mir.verify.us", "us");
    ("opt.optimize.us", "us"); ("opt.optimize.minor_words", "words");
    ("opt.cleanup.us", "us"); ("opt.skipped_ratio", "ratio");
    ("opt.instrs", "count") ]
  @ List.concat_map
      (fun p ->
        [ ("opt.pass." ^ p ^ ".us", "us");
          ("opt.pass." ^ p ^ ".changed_ratio", "ratio") ])
      passes
  @ [ ("vectorize.vectorizer.us", "us"); ("vectorize.loops", "count");
      ("vectorize.complex_sel.us", "us"); ("vectorize.cplx_ops", "count");
      ("codegen.emit.us", "us"); ("codegen.emit.minor_words", "words");
      ("codegen.c_bytes", "bytes"); ("vm.plan_compile.us", "us");
      ("vm.plan.ns_per_instr", "ns"); ("vm.plan.minor_words_per_run", "words") ]
  @ List.concat_map
      (fun k ->
        [ ("vm.plan.ns_per_instr." ^ k, "ns");
          ("vm.plan.minor_words_per_run." ^ k, "words") ])
      kernels
  @ [ ("core.cache.hit_rate", "ratio"); ("core.cache.hit_us", "us");
      ("core.cache.miss_ms", "ms"); ("core.disk_cache.hit_rate", "ratio");
      ("core.disk_cache.hit_us", "us"); ("core.disk_cache.writes", "count");
      ("core.parallel.busy_frac", "ratio"); ("svc.request.overhead_us", "us");
      ("svc.batch.parse_us", "us"); ("svc.retries", "count");
      ("obs.journal.events_per_request", "count");
      ("obs.journal.dropped", "count"); ("obs.trace.spans_retained", "count");
      ("bench.trace_overhead_frac", "ratio"); ("bench.span_coverage", "ratio") ]
