(* The three workloads. Each one sets up (timed apart, several times),
   runs a closed loop of operations for the requested time with
   tracing off, checks every output, and in traced mode runs the same
   operation stream again with the benchmark's spans on. *)

module C = Masc.Compiler
module I = Masc_vm.Interp
module Plan = Masc_vm.Plan
module R = Masc_svc.Request
module B = Masc_svc.Batch
module Targets = Masc_asip.Targets
module K = Masc_kernels.Kernels
module Journal = Masc_obs.Journal
module Trace = Masc_obs.Trace
module Metrics = Masc_obs.Metrics

type settings = { seed : int; seconds : float; trace : bool }

let now = Spans.now_ns

let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* ---- shared measurement plumbing ---- *)

(* Setting up is repeated and the median reported, so neither the
   first, cold repetitions nor one slow repetition moves [setup_s]. The
   last repetition's state is the one the workload uses. *)
let setup_reps = 21

let median_setup f =
  let times = Array.make setup_reps 0.0 in
  let last = ref None in
  let meter = Calib.meter () in
  for i = 0 to setup_reps - 1 do
    last := None;
    Calib.run meter;
    let t0 = now () in
    last := Some (f ());
    times.(i) <- ns_since t0 /. 1e9
  done;
  (Pstats.median times, Calib.factor meter, Option.get !last)

(* A timed phase: for every operation in issue order, which member of
   the stream's mix it was, its latency (ns inside the program) and the
   simulated instructions it ran; the heap high-water mark (MB) at the
   end of every round of the mix, latest first. *)
type phase = {
  kind : int array;
  lat : float array;
  work : float array;
  heap : float array;
  wall : float;  (** ns *)
}

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* [peak_heap_mb] is the median of the high-water marks at the ends of
   the first [rounds] rounds (of every round, if the phase ran fewer).
   The benchmark's own record of every operation grows with the
   operations run, so the mark keeps rising through a phase; read over
   a fixed amount of work rather than a fixed time, it does not move
   with the host's speed. *)
let peak_heap ~rounds (heap : float array) =
  let n = Array.length heap in
  let k = min n rounds in
  Pstats.median (Array.sub heap (n - k) k)

(* The share of an untraced phase that calibration slices take, run
   between operations (between epochs on [batch]). *)
let calib_share = 0.1

(* Runs [op] back to back until [seconds] elapse: one closed-loop
   worker. [op] returns (kind, latency, instructions). With a [meter],
   calibration slices run between operations. *)
let closed_loop ?meter ~seconds ~round op =
  let t0 = now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let ops = ref [] and heap = ref [] and n = ref 0 in
  while now () < deadline do
    ops := op () :: !ops;
    Option.iter (fun m -> Calib.keep_up m ~share:calib_share ~t0) meter;
    incr n;
    if !n mod round = 0 then heap := heap_mb () :: !heap
  done;
  if !heap = [] then heap := [ heap_mb () ];
  let ops = Array.of_list (List.rev !ops) in
  { kind = Array.map (fun (k, _, _) -> k) ops;
    lat = Array.map (fun (_, l, _) -> l) ops;
    work = Array.map (fun (_, _, w) -> w) ops;
    heap = Array.of_list !heap;
    wall = ns_since t0 }

let rates ph = Pstats.typical_rates ~kind:ph.kind ~lat:ph.lat ~work:ph.work

let execute ?kernel plan inputs =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = Spans.span "vm.plan.execute" (fun () -> Plan.execute plan inputs) in
  let dt = ns_since t0 and words = Gc.minor_words () -. w0 in
  let instrs = float_of_int r.I.dyn_instrs in
  let note suffix =
    Layered.note ("vm.plan.ns" ^ suffix) dt;
    Layered.note ("vm.plan.instrs" ^ suffix) instrs;
    Layered.note ("vm.plan.words" ^ suffix) words
  in
  note "";
  Option.iter (fun k -> note ("." ^ k)) kernel;
  r

let golden_check report what (p : Gen.program) inputs (r : I.result) =
  match Oracle.against_golden ~expected:(p.Gen.golden inputs) r.I.rets with
  | None -> ()
  | Some msg -> Report.fail report "%s: %s" what msg

(* What a workload hands back for the end-to-end metrics, as measured
   (the summary scales them to the reference host). *)
type measured = {
  setup_s : float;
  setup_host : float;  (** [Calib.factor] while setting up *)
  host : float;  (** [Calib.factor] over the untraced timed phase *)
  lat_ns : float array;  (** untraced operation latencies, issue order *)
  round : int;  (** operations per round of the stream's mix *)
  ops_per_s : float;
  sim_instrs_per_s : float;
  speedup : float;
  peak_heap_mb : float;
  traced : (float array * Spans.span list * float) option;
      (** traced latencies, the spans of the traced phase, its wall ns *)
}

(* A traced run takes as long as an untraced one: it splits its time
   between an untraced phase and a traced phase over the same operation
   stream. *)
let phase_seconds s = if s.trace then s.seconds /. 2.0 else s.seconds

(* Calibration runs on untraced runs only: a traced run reports no
   end-to-end metric, and slices inside its traced phase would count
   as time outside every layer. *)
let host_meter s = if s.trace then None else Some (Calib.meter ())

let host_factor = Option.fold ~none:1.0 ~some:Calib.factor

let traced_phase s f =
  if not s.trace then None
  else begin
    let before = Spans.take () in
    Spans.enabled := true;
    let ph = f () in
    Spans.enabled := false;
    let during = Spans.take () in
    List.iter Spans.record before;
    Some (ph.lat, during, ph.wall)
  end

(* Table 2's summary: coder baseline (scalar core) cycles over proposed
   dsp8 cycles, geometric mean over the six kernels. *)
let speedup_of pairs =
  Pstats.geomean
    (List.map (fun (proposed, coder) -> float_of_int coder /. float_of_int proposed)
       pairs)

(* ---- compile ---- *)

let compile_wl s report =
  let configs = Gen.compile_configs in
  let setup () =
    let progs = Gen.compile_programs s.seed in
    let refs =
      List.map
        (fun shape ->
          let p = Gen.of_shape shape in
          let comp cfg =
            C.compile cfg ~source:p.Gen.source ~entry:p.entry
              ~arg_types:p.arg_types
          in
          (p, comp (C.proposed ()), comp (C.coder_baseline ())))
        Gen.paper_shapes
    in
    (progs, refs)
  in
  let setup_s, setup_host, (progs, refs) = median_setup setup in
  let meter = host_meter s in
  (* The simulator rate on this workload: both flows of the paper-size
     suite, each run on fresh inputs and a freshly built plan (built
     untimed). How fast one plan instance runs depends on where its
     closures landed in memory; the median over instances does not.
     These simulations are spread over the whole untraced phase, between
     compiles, taking [sim_share] of its time, so they see the same host
     as the compiles do rather than a few seconds of it. *)
  let sim_share = 0.25 in
  let ref_plans =
    Array.of_list
      (List.concat_map
         (fun (p, proposed, coder) ->
           [ (p, "proposed", proposed); (p, "coder", coder) ])
         refs)
  in
  let cycles = Array.make (Array.length ref_plans) 0 in
  let sims = ref [] and sim_ns = ref 0.0 and issued = ref 0 in
  let ref_sim () =
    let t_start = now () in
    let kind = !issued mod Array.length ref_plans in
    let (p : Gen.program), flow, c = ref_plans.(kind) in
    let inputs = p.inputs (s.seed + !issued) in
    incr issued;
    let plan =
      Plan.compile ~isa:c.C.config.C.isa ~mode:c.C.config.C.mode c.C.mir
    in
    let t0 = now () in
    let r = execute ?kernel:p.kernel plan inputs in
    let dt = ns_since t0 in
    golden_check report (p.pname ^ " " ^ flow) p inputs r;
    cycles.(kind) <- r.I.cycles;
    sims := (kind, dt, float_of_int r.I.dyn_instrs) :: !sims;
    sim_ns := !sim_ns +. ns_since t_start
  in
  (* C digest of each (program, config) compiled: a later compile of the
     same pair must produce the same text. *)
  let digests = Hashtbl.create 256 in
  let in_traced_phase = Hashtbl.create 256 in
  let round = Array.length progs * Array.length configs in
  let phase ~traced () =
    let next =
      Gen.compile_ops s.seed ~programs:(Array.length progs)
        ~configs:(Array.length configs)
    in
    let t_phase = now () in
    let meter = if traced then None else meter in
    closed_loop ?meter ~seconds:(phase_seconds s) ~round (fun () ->
        let pi, ci = next () in
        let kind = (pi * Array.length configs) + ci in
        let p = progs.(pi) and label, cfg = configs.(ci) in
        let source = p.Gen.source and entry = p.entry in
        let arg_types = p.arg_types in
        Report.attempt report;
        let op =
          Spans.span "bench.op" (fun () ->
              let t0 = now () in
              match
                if traced then (Layered.compile cfg ~source ~entry ~arg_types).c
                else begin
                  let c = C.compile cfg ~source ~entry ~arg_types in
                  let text = C.c_source c in
                  ignore (C.plan c);
                  text
                end
              with
              | text ->
                let dt = ns_since t0 in
                let d = Digest.string text in
                (match Hashtbl.find_opt digests (pi, ci) with
                | Some d' when d' <> d ->
                  Report.fail report "%s %s: C text differs between compiles"
                    p.pname label
                | Some _ -> ()
                | None -> Hashtbl.add digests (pi, ci) d);
                if traced then Hashtbl.replace in_traced_phase (pi, ci) ();
                (kind, dt, 0.0)
              | exception e ->
                Report.fail report "%s %s: %s" p.pname label
                  (Printexc.to_string e);
                (kind, ns_since t0, 0.0))
        in
        if (not traced) && !sim_ns < sim_share *. ns_since t_phase then ref_sim ();
        op)
  in
  let untraced = phase ~traced:false () in
  (* Every plan of the suite simulated at least once, even on a very
     short run. *)
  while !issued < Array.length ref_plans do ref_sim () done;
  let traced = traced_phase s (phase ~traced:true) in
  (* Untimed: every distinct pair compiled once more (same C text) and
     simulated against its golden; traced runs also check that the
     layer-by-layer composition has not drifted from [Compiler.compile]. *)
  Spans.enabled := s.trace;
  let pairs = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) digests []) in
  List.iter
    (fun (pi, ci) ->
      let p = progs.(pi) and label, cfg = configs.(ci) in
      let what = p.Gen.pname ^ " " ^ label in
      let source = p.source and entry = p.entry and arg_types = p.arg_types in
      match C.compile cfg ~source ~entry ~arg_types with
      | c ->
        if Digest.string (C.c_source c) <> Hashtbl.find digests (pi, ci) then
          Report.check report (Some (what ^ ": C text differs between compiles"));
        let inputs = p.inputs (s.seed + (131 * pi) + ci) in
        (match execute ?kernel:p.kernel (C.plan c) inputs with
        | r -> golden_check report what p inputs r
        | exception e -> Report.check report (Some (what ^ ": " ^ Printexc.to_string e)));
        if Hashtbl.mem in_traced_phase (pi, ci) then
          Report.check report
            (Option.map (fun m -> what ^ ": layered pipeline drift: " ^ m)
               (Layered.drift cfg ~source ~entry ~arg_types))
      | exception e -> Report.check report (Some (what ^ ": " ^ Printexc.to_string e)))
    pairs;
  Spans.enabled := false;
  let sims = Array.of_list (List.rev !sims) in
  { setup_s; setup_host; host = host_factor meter; lat_ns = untraced.lat;
    round; ops_per_s = fst (rates untraced);
    sim_instrs_per_s =
      snd
        (Pstats.typical_rates
           ~kind:(Array.map (fun (k, _, _) -> k) sims)
           ~lat:(Array.map (fun (_, l, _) -> l) sims)
           ~work:(Array.map (fun (_, _, w) -> w) sims));
    speedup =
      speedup_of
        (List.init (Array.length ref_plans / 2) (fun j ->
             (cycles.(2 * j), cycles.((2 * j) + 1))));
    peak_heap_mb = peak_heap ~rounds:8 untraced.heap; traced }

(* ---- simulate ---- *)

let simulate_wl s report =
  let suite = Gen.simulate_suite () in
  let setup () =
    Array.map
      (fun ((p : Gen.program), label, cfg) ->
        let c =
          C.compile cfg ~source:p.source ~entry:p.entry ~arg_types:p.arg_types
        in
        (p, label, c, C.plan c))
      suite
  in
  let setup_s, setup_host, plans = median_setup setup in
  if s.trace then begin
    (* The suite once more, layer by layer: per-layer compile numbers at
       the simulate sizes, and the drift check. *)
    Spans.enabled := true;
    Array.iter
      (fun ((p : Gen.program), label, cfg) ->
        let source = p.source and entry = p.entry and arg_types = p.arg_types in
        Spans.span "bench.setup" (fun () ->
            ignore (Layered.compile cfg ~source ~entry ~arg_types));
        Report.check report
          (Option.map
             (fun m -> p.pname ^ " " ^ label ^ ": layered pipeline drift: " ^ m)
             (Layered.drift cfg ~source ~entry ~arg_types)))
      suite;
    Spans.enabled := false
  end;
  (* Untimed: the plan and the tree-walker agree bit for bit, and both
     match the golden reference. *)
  let cycles = Hashtbl.create 64 in
  Array.iter
    (fun ((p : Gen.program), label, (c : C.compiled), plan) ->
      let what = p.pname ^ " " ^ label in
      let inputs = p.inputs s.seed in
      match
        ( Plan.execute plan inputs,
          I.run_tree ~isa:c.C.config.C.isa ~mode:c.C.config.C.mode c.C.mir
            inputs )
      with
      | rp, rt ->
        Report.check report
          (Option.map (fun m -> what ^ ": plan vs tree: " ^ m)
             (Oracle.engines_agree ~plan:rp ~tree:rt));
        golden_check report what p inputs rp;
        Hashtbl.replace cycles (p.pname, label) rp.I.cycles
      | exception e -> Report.check report (Some (what ^ ": " ^ Printexc.to_string e)))
    plans;
  let speedup =
    speedup_of
      (List.map
         (fun shape ->
           let name = Gen.shape_name shape in
           ( Hashtbl.find cycles (name, "dsp8/proposed"),
             Hashtbl.find cycles (name, "scalar/coder") ))
         Gen.simulate_shapes)
  in
  let phase ?meter () =
    let next = Gen.simulate_ops s.seed ~plans:(Array.length plans) in
    closed_loop ?meter ~seconds:(phase_seconds s) ~round:(Array.length plans)
      (fun () ->
        let pi, input_seed = next () in
        let (p : Gen.program), label, _, plan = plans.(pi) in
        Report.attempt report;
        Spans.span "bench.op" (fun () ->
            let inputs = Spans.span "bench.inputs" (fun () -> p.inputs input_seed) in
            let t0 = now () in
            match execute ?kernel:p.kernel plan inputs with
            | r ->
              let dt = ns_since t0 in
              Spans.span "bench.check" (fun () ->
                  golden_check report (p.pname ^ " " ^ label) p inputs r);
              (pi, dt, float_of_int r.I.dyn_instrs)
            | exception e ->
              Report.fail report "%s %s: %s" p.pname label (Printexc.to_string e);
              (pi, ns_since t0, 0.0)))
  in
  let meter = host_meter s in
  let untraced = phase ?meter () in
  let traced = traced_phase s phase in
  { setup_s; setup_host; host = host_factor meter; lat_ns = untraced.lat;
    round = Array.length plans;
    ops_per_s = fst (rates untraced); sim_instrs_per_s = snd (rates untraced);
    speedup; peak_heap_mb = peak_heap ~rounds:8 untraced.heap; traced }

(* ---- batch ---- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Scratch space inside the working directory, removed when the run ends. *)
let workdir () =
  let dir =
    Filename.concat "_perfbench_work" (string_of_int (Unix.getpid ()))
  in
  remove_tree dir;
  (try Sys.mkdir "_perfbench_work" 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      remove_tree dir;
      try Sys.rmdir "_perfbench_work" with Sys_error _ -> ());
  dir

let per_epoch = 240

(* One worker. With two domains on a two-vCPU host, any other runnable
   thread on the machine takes a vCPU from a domain for a scheduler
   slice, and the other domain waits for it at the next stop-the-world
   minor collection: p99 latency then measures the scheduler (it rose
   5.5 times beside one busy process, and spread by 0.31 of its median
   over ten seeds), while one domain is unaffected. *)
let jobs = 1

(* What the service must answer for a catalog entry: the same cycles,
   instruction count and return digest for a run, the same C digest for
   a compile, as a direct uncached compile whose outputs matched the
   golden reference. *)
type expected =
  | Run_ref of { cycles : int; dyn : int; digest : string }
  | Compile_ref of string

(* [Request] fingerprints returns this way; the benchmark recomputes it
   for the reference run. *)
let digest_rets (rets : I.xvalue list) =
  Digest.to_hex (Digest.string (Marshal.to_string rets []))

type batch_layers = {
  mutable requests : int;
  mutable lookups : float;
  mutable mem_hits : float;
  mutable disk_hits : float;
  mutable disk_lookups : float;
  mutable disk_writes : float;
  mutable retries : float;
  mutable hit_ns : float * int;
  mutable disk_hit_ns : float * int;
  mutable miss_ns : float * int;
  mutable parse_ns : float;
  mutable run_ns : float;
  mutable service_ns : float;
  mutable journal_events : float;
  mutable dropped : float;
  mutable spans_retained : float;
  mutable epochs : int;
  mutable overhead_ns : float * int;
}

let add_mean (s, n) v = (s +. v, n + 1)

let batch_wl s report =
  let dir = workdir () in
  let catalog = Gen.batch_catalog s.seed in
  let file_of (r : Gen.request) =
    Filename.concat dir ((Gen.kernel_of_shape r.Gen.r_shape).K.entry ^ ".m")
  in
  let setup () =
    Array.iter
      (fun (r : Gen.request) ->
        let k = Gen.kernel_of_shape r.Gen.r_shape in
        Out_channel.with_open_bin (file_of r) (fun oc ->
            output_string oc k.K.source))
      catalog;
    let compiled = Hashtbl.create 64 in
    Array.map
      (fun (r : Gen.request) ->
        let k = Gen.kernel_of_shape r.Gen.r_shape in
        let key = (r.r_shape, r.r_target.Masc_asip.Isa.tname, r.r_coder) in
        let c =
          match Hashtbl.find_opt compiled key with
          | Some c -> c
          | None ->
            let c =
              C.compile (Gen.request_config r) ~source:k.K.source
                ~entry:k.entry ~arg_types:k.arg_types
            in
            Hashtbl.add compiled key c;
            c
        in
        if r.r_run then begin
          let inputs = R.random_inputs ~seed:r.r_seed k.arg_types in
          let res = Plan.execute (C.plan c) inputs in
          ( Run_ref
              { cycles = res.I.cycles; dyn = res.I.dyn_instrs;
                digest = digest_rets res.I.rets },
            Some (inputs, res) )
        end
        else (Compile_ref (Digest.to_hex (Digest.string (C.c_source c))), None))
      catalog
  in
  let setup_s, setup_host, refs = median_setup setup in
  let meter = host_meter s in
  (* Untimed: the references themselves match the golden outputs, and the
     request spelling of each signature means the kernel's types. *)
  Array.iteri
    (fun i (r : Gen.request) ->
      let k = Gen.kernel_of_shape r.Gen.r_shape in
      let what = Gen.request_line ~file:(file_of r) r in
      (match B.parse_arg_types (Gen.shape_argspec r.r_shape) with
      | Ok tys when List.length tys = List.length k.K.arg_types
                    && List.for_all2 Masc_sema.Mtype.equal tys k.arg_types -> ()
      | _ -> Report.check report (Some (what ^ ": argument spelling mismatch")));
      match refs.(i) with
      | _, Some (inputs, res) ->
        golden_check report what (Gen.of_shape r.r_shape) inputs res
      | _, None -> ())
    catalog;
  let speedup =
    let cycles_of shape target coder =
      let found = ref 0 in
      Array.iteri
        (fun i (r : Gen.request) ->
          if r.Gen.r_shape = shape && r.r_run && r.r_coder = coder
             && r.r_target.Masc_asip.Isa.tname = target
          then
            match refs.(i) with
            | Run_ref { cycles; _ }, _ -> found := cycles
            | _ -> ())
        catalog;
      !found
    in
    speedup_of
      (List.map
         (fun shape ->
           (cycles_of shape "dsp8" false, cycles_of shape "scalar" true))
         Gen.batch_shapes)
  in
  let expected = Array.map fst refs in
  Trace.enable ();
  Journal.enable ();
  let main_domain = (Domain.self () :> int) in
  let layers =
    { requests = 0; lookups = 0.0; mem_hits = 0.0; disk_hits = 0.0;
      disk_lookups = 0.0; disk_writes = 0.0; retries = 0.0;
      hit_ns = (0.0, 0); disk_hit_ns = (0.0, 0); miss_ns = (0.0, 0);
      parse_ns = 0.0; run_ns = 0.0; service_ns = 0.0; journal_events = 0.0;
      dropped = 0.0; spans_retained = 0.0; epochs = 0; overhead_ns = (0.0, 0) }
  in
  (* Per-layer numbers from the program's own journal, trace and
     metrics registry, plus the benchmark's request and pool spans. *)
  let harvest ~trace_zero ~t1 ~t2 ~(completions : (int * int64 * int64) list) =
    let m name = Option.value ~default:0.0 (Metrics.get name) in
    let hits = m "compile.cache_hits" and misses = m "compile.cache_misses" in
    let disk_hits = m "cache.disk_hits" in
    layers.lookups <- layers.lookups +. hits +. misses;
    layers.mem_hits <- layers.mem_hits +. hits -. disk_hits;
    layers.disk_hits <- layers.disk_hits +. disk_hits;
    layers.disk_lookups <- layers.disk_lookups +. disk_hits +. m "cache.disk_misses";
    layers.disk_writes <- layers.disk_writes +. m "cache.disk_writes";
    layers.retries <- layers.retries +. m "svc.retries";
    layers.journal_events <- layers.journal_events +. float_of_int (Journal.total ());
    layers.dropped <- layers.dropped +. float_of_int (Journal.dropped ());
    let spans = Trace.dump () in
    layers.spans_retained <- layers.spans_retained +. float_of_int (List.length spans);
    let lane_of tid = if tid = main_domain then 0 else 1 in
    let sim_ns = Hashtbl.create 256 in
    List.iter
      (fun (e : Trace.event) ->
        if e.Trace.cat = "sim" then
          Hashtbl.replace sim_ns e.rid
            (Int64.to_float e.dur_ns
            +. Option.value ~default:0.0 (Hashtbl.find_opt sim_ns e.rid));
        let t0 = Int64.add trace_zero e.ts_ns in
        Spans.record
          { Spans.name = "prog." ^ e.cat ^ "." ^ e.name; lane = lane_of e.tid;
            t0; t1 = Int64.add t0 e.dur_ns; words = 0.0 })
      spans;
    (* Every worker lives from dispatch to join; each request on a
       worker runs from its previous completion there (or the
       dispatch). *)
    List.iter
      (fun lane ->
        Spans.record
          { Spans.name = "core.parallel.map"; lane; t0 = t1; t1 = t2; words = 0.0 })
      (List.init jobs Fun.id);
    List.iter
      (fun (dom, t_start, t_end) ->
        Spans.record
          { Spans.name = "svc.request"; lane = lane_of dom; t0 = t_start;
            t1 = t_end; words = 0.0 })
      completions;
    let starts = Hashtbl.create 256 and missed = Hashtbl.create 64 in
    List.iter
      (fun (e : Journal.event) ->
        let key = (e.Journal.rid, e.attempt) in
        let since_start () = Int64.to_float (Int64.sub e.ts_ns (Hashtbl.find starts key)) in
        match e.kind with
        | "attempt.start" -> Hashtbl.replace starts key e.ts_ns
        | "cache.hit" when Hashtbl.mem starts key ->
          if List.assoc_opt "tier" e.detail = Some "disk" then
            layers.disk_hit_ns <- add_mean layers.disk_hit_ns (since_start ())
          else layers.hit_ns <- add_mean layers.hit_ns (since_start ())
        | "cache.miss" -> Hashtbl.replace missed key e.ts_ns
        | "attempt.end" -> (
          match Hashtbl.find_opt missed key with
          | Some t ->
            let sim = Option.value ~default:0.0 (Hashtbl.find_opt sim_ns e.rid) in
            layers.miss_ns <-
              add_mean layers.miss_ns (Int64.to_float (Int64.sub e.ts_ns t) -. sim)
          | None -> ())
        | _ -> ())
      (Journal.events ())
  in
  (* svc.request.overhead_us: a request's service time beyond the same
     spec's direct cached compile and run, on memory-tier hits. *)
  let probe items =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (it : B.item) ->
        match it.B.bx_parsed with
        | Ok (spec : R.spec) when Hashtbl.length seen < 8 && not (Hashtbl.mem seen it.bx_label) ->
          Hashtbl.add seen it.bx_label ();
          let t0 = now () in
          ignore (R.execute ~policy:R.default_policy spec);
          let service = ns_since t0 in
          let t0 = now () in
          (match
             C.compile_file_cached spec.config ~source:spec.source
               ~entry:spec.entry ~arg_types:spec.arg_types
           with
          | Some c, _ -> (
            match spec.op with
            | R.Run -> ignore (C.run c spec.inputs)
            | R.Compile -> ignore (Digest.string (C.c_source c)))
          | None, _ -> ());
          layers.overhead_ns <- add_mean layers.overhead_ns (service -. ns_since t0)
        | _ -> ())
      items
  in
  let phase ~traced () =
    let cache = Filename.concat dir (if traced then "cache-traced" else "cache") in
    C.set_cache_dir (Some cache);
    C.clear_memory_cache ();
    let draw = Gen.batch_stream s.seed ~catalog ~per_epoch in
    let lat = ref [] in
    let t_phase = now () in
    let deadline = Int64.add t_phase (Int64.of_float (phase_seconds s *. 1e9)) in
    let busy = ref 0.0 and epochs = ref [] in
    while now () < deadline do
      let ids = draw () in
      let text =
        String.concat "\n"
          (List.map (fun i -> Gen.request_line ~file:(file_of catalog.(i)) catalog.(i)) ids)
      in
      (* Every epoch is a restarted service: fresh telemetry, and the
         memory tier cleared below, so later epochs read the disk tier. *)
      Trace.reset ();
      let trace_zero = now () in
      Journal.reset ();
      Metrics.reset ();
      let mu = Mutex.create () in
      let last_done = Hashtbl.create 2 in
      let completions = ref [] in
      let run_start = ref 0L in
      let on_outcome (o : R.outcome) =
        let t = now () in
        let dom = (Domain.self () :> int) in
        Mutex.protect mu (fun () ->
            let prev = Option.value ~default:!run_start (Hashtbl.find_opt last_done dom) in
            Hashtbl.replace last_done dom t;
            completions := (dom, prev, t, o) :: !completions)
      in
      let t0 = now () in
      let items = Spans.span "svc.batch.parse" (fun () -> B.parse ~default_isa:Targets.dsp8 text) in
      let t1 = now () in
      run_start := t1;
      let outcomes = B.run ~jobs ~on_outcome ~policy:R.default_policy items in
      let t2 = now () in
      busy := !busy +. Int64.to_float (Int64.sub t2 t0);
      let instrs = ref 0.0 in
      (* The latency of a request is measured from outside: from the
         previous completion on its worker (or the dispatch) to its own
         completion. Parsing is spread over the epoch's requests. *)
      let parse_share = Int64.to_float (Int64.sub t1 t0) /. float_of_int (List.length ids) in
      let done_ = List.rev !completions in
      lat :=
        List.rev_append
          (List.map
             (fun (_, t0, t1, _) -> Int64.to_float (Int64.sub t1 t0) +. parse_share)
             done_)
          !lat;
      List.iteri
        (fun pos (id, (o : R.outcome)) ->
          Report.attempt report;
          let what = Printf.sprintf "request %d (%s)" pos
              (Gen.request_line ~file:(file_of catalog.(id)) catalog.(id)) in
          match (o.R.o_status, expected.(id)) with
          | R.Ok_run { cycles; dyn_instrs; rets_digest }, Run_ref r ->
            instrs := !instrs +. float_of_int dyn_instrs;
            if cycles <> r.cycles || dyn_instrs <> r.dyn || rets_digest <> r.digest then
              Report.fail report "%s: result differs from the checked reference" what
          | R.Ok_compile { c_digest; _ }, Compile_ref d ->
            if c_digest <> d then Report.fail report "%s: C digest differs" what
          | st, _ ->
            Report.fail report "%s: %s %s" what (R.status_class st) (R.status_detail st))
        (List.combine ids outcomes);
      epochs :=
        (List.length ids, Int64.to_float (Int64.sub t2 t0), !instrs, heap_mb ())
        :: !epochs;
      if traced then begin
        layers.epochs <- layers.epochs + 1;
        layers.requests <- layers.requests + List.length ids;
        layers.parse_ns <- layers.parse_ns +. Int64.to_float (Int64.sub t1 t0);
        layers.run_ns <- layers.run_ns +. Int64.to_float (Int64.sub t2 t1);
        layers.service_ns <-
          List.fold_left (fun a (_, _, _, (o : R.outcome)) -> a +. (o.R.o_latency_ms *. 1e6))
            layers.service_ns done_;
        harvest ~trace_zero ~t1 ~t2
          ~completions:(List.map (fun (d, t0, t1, _) -> (d, t0, t1)) done_);
        (* Probing is not part of the timed phase: no spans. *)
        Spans.enabled := false;
        probe items;
        Spans.enabled := true
      end;
      C.clear_memory_cache ();
      if not traced then
        Option.iter (fun m -> Calib.keep_up m ~share:calib_share ~t0:t_phase) meter
    done;
    (!epochs, { kind = [||]; lat = Array.of_list (List.rev !lat); work = [||];
                heap = Array.of_list (List.map (fun (_, _, _, mb) -> mb) !epochs);
                wall = !busy })
  in
  let epochs, untraced = phase ~traced:false () in
  (* Epochs are the rounds: the same traffic mix drawn afresh, each far
     shorter than a burst of outside contention; rates are medians over
     epochs. *)
  let per_epoch_rate f =
    Pstats.median
      (Array.of_list
         (List.map (fun (n, ns, instrs, _) -> f n instrs /. (ns /. 1e9)) epochs))
  in
  let traced = traced_phase s (fun () -> snd (phase ~traced:true ())) in
  C.set_cache_dir None;
  ( { setup_s; setup_host; host = host_factor meter; lat_ns = untraced.lat;
      round = per_epoch;
      ops_per_s = per_epoch_rate (fun n _ -> float_of_int n);
      sim_instrs_per_s = per_epoch_rate (fun _ instrs -> instrs); speedup;
      peak_heap_mb = peak_heap ~rounds:64 untraced.heap;
      (* Wall time over every lane: the main lane for whole epochs, each
         further worker while the batch runs. *)
      traced =
        Option.map
          (fun (l, sp, busy) ->
            (l, sp, busy +. (float_of_int (jobs - 1) *. layers.run_ns)))
          traced },
    layers )
