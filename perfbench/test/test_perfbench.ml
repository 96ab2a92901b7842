(* The benchmark's own tests: its statistics, its self-time accounting,
   its generator and its measure of the host's speed. *)

open Masc_perfbench

let floats = Alcotest.(array (float 0.0))

(* ---- percentiles and geomean ---- *)

let test_percentile_matches_metrics () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let xs =
        Array.init n (fun _ -> float_of_int (Random.State.int st 50) /. 4.0)
      in
      List.iter
        (fun p ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "n=%d p=%g" n p)
            (Masc_obs.Metrics.quantile xs p)
            (Pstats.percentile xs p))
        [ 0.0; 1.0; 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])
    [ 0; 1; 2; 3; 10; 99; 100; 101; 1000 ]

let test_percentile_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Pstats.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Pstats.percentile xs 99.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Pstats.percentile xs 100.0);
  Alcotest.check floats "input untouched" (Array.init 100 (fun i -> float_of_int (100 - i))) xs

let test_windowed () =
  let window = Array.init 1000 (fun i -> float_of_int (i mod 97)) in
  let p99 = Pstats.percentile window 99.0 in
  Alcotest.(check int) "whole rounds of at least 1000" 1008
    (Pstats.window_size ~round:48);
  Alcotest.(check (float 0.0)) "short input: plain percentile"
    (Pstats.percentile (Array.sub window 0 500) 99.0)
    (Pstats.windowed ~round:10 (Array.sub window 0 500) 99.0);
  (* Two quiet windows outvote one slow window. *)
  let slow = Array.map (fun x -> x +. 1000.0) window in
  Alcotest.(check (float 0.0)) "median over windows" p99
    (Pstats.windowed ~round:10 (Array.concat [ window; slow; window ]) 99.0)

let test_geomean () =
  Alcotest.(check (float 1e-12)) "2 and 8" 4.0 (Pstats.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-12)) "single" 3.5 (Pstats.geomean [ 3.5 ]);
  Alcotest.(check (float 1e-9)) "1, 10, 100" 10.0 (Pstats.geomean [ 1.0; 10.0; 100.0 ]);
  Alcotest.check_raises "zero" (Invalid_argument "geomean: non-positive sample")
    (fun () -> ignore (Pstats.geomean [ 1.0; 0.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "geomean: empty") (fun () ->
      ignore (Pstats.geomean []))

(* ---- self time ---- *)

let sp ?(lane = 0) name t0 t1 =
  { Spans.name; lane; t0 = Int64.of_int t0; t1 = Int64.of_int t1; words = 0.0 }

let self_of spans name =
  let aggs = Spans.aggregate spans in
  (Hashtbl.find aggs name).Spans.self_ns

let test_self_time_tree () =
  let spans =
    [ sp "root" 0 100; sp "a" 10 30; sp "b" 40 70; sp "c" 45 50 ]
  in
  Alcotest.(check (float 0.0)) "root" 50.0 (self_of spans "root");
  Alcotest.(check (float 0.0)) "a" 20.0 (self_of spans "a");
  Alcotest.(check (float 0.0)) "b" 25.0 (self_of spans "b");
  Alcotest.(check (float 0.0)) "c" 5.0 (self_of spans "c");
  Alcotest.(check (float 0.0)) "self times sum to the root" 100.0
    (Spans.total_self (Spans.aggregate spans))

let test_self_time_overlap_and_lanes () =
  (* Overlapping children count once; of two equal intervals the later
     recorded encloses the other; other lanes never nest under this
     one. *)
  let spans =
    [ sp "inner" 0 100; sp "a" 10 50; sp "b" 30 60; sp "outer" 0 100;
      sp ~lane:1 "other" 20 40 ]
  in
  Alcotest.(check (float 0.0)) "outer covered by inner" 0.0 (self_of spans "outer");
  Alcotest.(check (float 0.0)) "inner minus union of a, b" 50.0
    (self_of spans "inner");
  Alcotest.(check (float 0.0)) "a" 40.0 (self_of spans "a");
  Alcotest.(check (float 0.0)) "other lane is a root" 20.0 (self_of spans "other");
  let aggs = Spans.aggregate (spans @ [ sp "a" 200 210 ]) in
  let a = Hashtbl.find aggs "a" in
  Alcotest.(check int) "calls" 2 a.Spans.calls;
  Alcotest.(check (float 0.0)) "total" 50.0 a.Spans.total_ns

let test_span_recording () =
  Spans.enabled := true;
  let r = Spans.span "outer" (fun () -> Spans.span "inner" (fun () -> 42)) in
  (try Spans.span "raises" (fun () -> failwith "x") with Failure _ -> ());
  Spans.enabled := false;
  ignore (Spans.span "off" (fun () -> ()));
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check (list string)) "recorded, innermost first"
    [ "inner"; "outer"; "raises" ]
    (List.map (fun s -> s.Spans.name) (Spans.take ()))

(* ---- generator ---- *)

let program_key (p : Gen.program) =
  (p.Gen.pname, p.source, p.entry,
   List.map Masc_sema.Mtype.to_string p.arg_types)

let digest_inputs xs = Digest.to_hex (Digest.string (Marshal.to_string xs []))

let draws n f = List.init n (fun _ -> f ())

let test_generator_deterministic () =
  let programs seed = Array.map program_key (Gen.compile_programs seed) in
  Alcotest.(check bool) "compile programs" true (programs 5 = programs 5);
  Alcotest.(check bool) "another seed differs" true (programs 5 <> programs 6);
  let ops seed = draws 200 (Gen.compile_ops seed ~programs:30 ~configs:18) in
  Alcotest.(check bool) "compile ops" true (ops 5 = ops 5);
  let sims seed = draws 200 (Gen.simulate_ops seed ~plans:48) in
  Alcotest.(check bool) "simulate ops" true (sims 5 = sims 5);
  Alcotest.(check bool) "simulate ops differ" true (sims 5 <> sims 6);
  let catalog seed =
    Array.map (Gen.request_line ~file:"f.m") (Gen.batch_catalog seed)
  in
  Alcotest.(check bool) "batch catalog" true (catalog 5 = catalog 5);
  let stream seed =
    let catalog = Gen.batch_catalog seed in
    draws 3 (Gen.batch_stream seed ~catalog ~per_epoch:240)
  in
  Alcotest.(check bool) "batch requests" true (stream 5 = stream 5);
  Alcotest.(check bool) "batch requests differ" true (stream 5 <> stream 6);
  Array.iter
    (fun (p : Gen.program) ->
      Alcotest.(check string) (p.pname ^ " inputs")
        (digest_inputs (p.inputs 9)) (digest_inputs (p.inputs 9)))
    (Gen.compile_programs 5)

let test_zipf_skew () =
  let catalog = Gen.batch_catalog 3 in
  let epoch = Gen.batch_stream 3 ~catalog ~per_epoch:2400 () in
  let counts = Array.make (Array.length catalog) 0 in
  List.iter (fun i -> counts.(i) <- counts.(i) + 1) epoch;
  let top = Array.fold_left max 0 counts in
  Alcotest.(check bool) "most popular spec dominates" true (top > 2400 / 10)

(* A chain's reference is the composition of its stages' goldens; the
   compiled chain must reproduce it. *)
let test_chain_reference () =
  let p = Gen.chain 96 [ Gen.Sfir 5; Gen.Siir 2; Gen.Sxcorr 4 ] in
  let c =
    Masc.Compiler.compile (Masc.Compiler.proposed ()) ~source:p.Gen.source
      ~entry:p.entry ~arg_types:p.arg_types
  in
  let inputs = p.inputs 4 in
  let r = Masc.Compiler.run c inputs in
  Alcotest.(check (option string)) "matches golden" None
    (Oracle.against_golden ~expected:(p.golden inputs) r.Masc_vm.Interp.rets)

let test_calib_allocates_nothing () =
  ignore (Calib.slice ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Calib.slice ())
  done;
  (* Only the clock's two boxed readings per slice. *)
  Alcotest.(check bool) "at most 16 words a slice" true
    ((Gc.minor_words () -. w0) /. 10.0 <= 16.0)

let test_calib_factor () =
  let m = Calib.meter () in
  Alcotest.(check (float 0.0)) "no slices: factor 1" 1.0 (Calib.factor m);
  m.Calib.samples <- List.map (fun x -> x *. Calib.reference_ns) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (float 1e-12)) "median over reference" 2.0 (Calib.factor m);
  let m = Calib.meter () in
  let t0 = Int64.sub (Spans.now_ns ()) 5_000_000L in
  Calib.keep_up m ~share:0.2 ~t0;
  Alcotest.(check bool) "keeps up with its share" true
    (m.Calib.spent >= 0.2 *. 5e6 && List.length m.Calib.samples >= 1)

let test_peak_heap () =
  (* Readings latest first: rounds 1, 2, 3 read 1, 3, 5 MB. *)
  Alcotest.(check (float 0.0)) "first two rounds" 1.0
    (Workloads.peak_heap ~rounds:2 [| 5.0; 3.0; 1.0 |]);
  Alcotest.(check (float 0.0)) "fewer rounds than asked" 3.0
    (Workloads.peak_heap ~rounds:8 [| 5.0; 3.0; 1.0 |])

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile = Metrics.quantile" `Quick
            test_percentile_matches_metrics;
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "windowed percentiles" `Quick test_windowed;
          Alcotest.test_case "geomean" `Quick test_geomean ] );
      ( "spans",
        [ Alcotest.test_case "self time on a tree" `Quick test_self_time_tree;
          Alcotest.test_case "overlap and lanes" `Quick
            test_self_time_overlap_and_lanes;
          Alcotest.test_case "recording" `Quick test_span_recording ] );
      ( "generator",
        [ Alcotest.test_case "deterministic per seed" `Quick
            test_generator_deterministic;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "chain reference" `Quick test_chain_reference ] );
      ( "host speed",
        [ Alcotest.test_case "slices allocate nothing" `Quick
            test_calib_allocates_nothing;
          Alcotest.test_case "factor and share" `Quick test_calib_factor;
          Alcotest.test_case "heap over fixed work" `Quick test_peak_heap ] ) ]
