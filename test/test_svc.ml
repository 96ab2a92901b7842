(* Service-core tests: deterministic fault injection, cooperative
   deadlines, retry/quarantine/breaker semantics, and crash recovery of
   the persistent compile cache.

   Fault configuration and the metrics registry are process-global, so
   every test that arms faults disables them on exit (Fun.protect) and
   metric assertions are deltas, never absolutes. *)

module Fault = Masc_fault.Fault
module Cancel = Masc_fault.Cancel
module Req = Masc_svc.Request
module Batch = Masc_svc.Batch
module C = Masc.Compiler
module K = Masc_kernels.Kernels
module Metrics = Masc_obs.Metrics
module J = Masc_obs.Ojson

let with_faults ~seed spec f =
  Fault.configure ~seed spec;
  Fun.protect ~finally:Fault.disable f

let metric name = Option.value ~default:0.0 (Metrics.get name)

let kernel name =
  match K.by_name name with
  | Some k -> k
  | None -> Alcotest.failf "missing kernel %s" name

let spec_of_kernel ?(op = Req.Run) name =
  let k = kernel name in
  {
    Req.op;
    label = "kernel:" ^ name;
    source = k.K.source;
    entry = k.K.entry;
    arg_types = k.K.arg_types;
    inputs = k.K.inputs ();
    config = C.proposed ();
    fuel = None;
  }

(* ---- fault injection ---- *)

let test_fault_determinism () =
  (* The decision sequence for a site is a pure function of
     (seed, occurrence): two identical configurations draw identical
     sequences; a different seed draws a different one. *)
  let draw_seq seed n =
    with_faults ~seed [ ("cache.read", 0.3) ] (fun () ->
        List.init n (fun _ -> Fault.draw "cache.read"))
  in
  let a = draw_seq 7 200 and b = draw_seq 7 200 in
  Alcotest.(check bool) "same seed, same sequence" true (a = b);
  let c = draw_seq 8 200 in
  Alcotest.(check bool) "different seed, different sequence" false (a = c);
  let fired = List.length (List.filter Option.is_some a) in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.3 fires sometimes, not always (fired %d/200)" fired)
    true
    (fired > 20 && fired < 120)

let test_fault_spec_parsing () =
  let bindings = Fault.parse_spec "cache.read:0.5,sim.step:0.1" in
  Alcotest.(check int) "two bindings" 2 (List.length bindings);
  let all = Fault.parse_spec "all:0.05" in
  Alcotest.(check int) "all expands the catalog" (List.length Fault.sites)
    (List.length all);
  let expect_invalid s =
    match Fault.parse_spec s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected Invalid_argument on %S" s
  in
  expect_invalid "bogus.site:0.5";
  expect_invalid "cache.read:1.5";
  expect_invalid "cache.read:x";
  expect_invalid "cache.read"

let test_fault_check_raises () =
  with_faults ~seed:1 [ ("cache.write", 1.0) ] (fun () ->
      match Fault.check "cache.write" with
      | exception Fault.Injected { site; occurrence } ->
        Alcotest.(check string) "site" "cache.write" site;
        Alcotest.(check int) "first occurrence" 0 occurrence
      | () -> Alcotest.fail "p=1.0 must fire");
  (* disabled: checks are free and never fire *)
  Fault.check "cache.write"

(* splitmix64's published first output from state 0, shared by the
   fault decisions and the retry jitter. *)
let test_splitmix64_known_answer () =
  Alcotest.(check int64) "splitmix64 0" 0xE220A8397B1DCDAFL
    (Fault.splitmix64 0L);
  Alcotest.(check (float 0.0)) "to_unit 0" 0.0 (Fault.to_unit 0L);
  Alcotest.(check (float 0.0)) "to_unit max" (1.0 -. epsilon_float /. 2.0)
    (Fault.to_unit (-1L))

(* ---- cooperative deadlines ---- *)

let test_deadline_fires () =
  match
    Cancel.with_deadline ~ms:0.01 (fun () ->
        (* Burn well past 0.01ms, checking as the pipeline would. *)
        let junk = ref 0.0 in
        for i = 1 to 10_000_000 do
          junk := !junk +. float_of_int i;
          if i mod 1024 = 0 then Cancel.check ()
        done;
        !junk)
  with
  | exception Cancel.Deadline_exceeded { budget_ms } ->
    Alcotest.(check (float 0.0001)) "budget recorded" 0.01 budget_ms
  | _ -> Alcotest.fail "deadline must fire"

let test_deadline_restores () =
  Alcotest.(check bool) "unarmed outside" false (Cancel.armed ());
  let inner_armed =
    Cancel.with_deadline ~ms:10_000.0 (fun () -> Cancel.armed ())
  in
  Alcotest.(check bool) "armed inside" true inner_armed;
  Alcotest.(check bool) "restored after" false (Cancel.armed ());
  (* Nesting: the inner (tighter) deadline wins, the outer returns. *)
  let r =
    Cancel.with_deadline ~ms:10_000.0 (fun () ->
        (match
           Cancel.with_deadline ~ms:0.001 (fun () ->
               Unix.sleepf 0.002;
               Cancel.check ())
         with
        | exception Cancel.Deadline_exceeded _ -> ()
        | () -> Alcotest.fail "inner deadline must fire");
        Cancel.check ();
        (* outer budget still live *)
        42)
  in
  Alcotest.(check int) "outer survives inner expiry" 42 r

(* ---- request execution ---- *)

let test_request_ok () =
  let s = spec_of_kernel "fir" in
  let o = Req.execute ~policy:Req.default_policy s in
  (match o.Req.o_status with
  | Req.Ok_run { cycles; _ } ->
    let compiled =
      C.compile_cached s.Req.config ~source:s.Req.source ~entry:s.Req.entry
        ~arg_types:s.Req.arg_types
    in
    let direct = C.run compiled s.Req.inputs in
    Alcotest.(check int) "cycles match direct run"
      direct.Masc_vm.Interp.cycles cycles
  | st -> Alcotest.failf "expected ok, got %s" (Req.status_class st));
  Alcotest.(check int) "no retries" 0 o.Req.o_retries

let test_request_retries_then_succeeds () =
  (* sim.step at a moderate p: some attempts fail, the retry budget
     absorbs them, and the final result matches the fault-free run. *)
  let s = spec_of_kernel "fir" in
  let clean = Req.execute ~policy:Req.default_policy s in
  let digest_of o =
    match o.Req.o_status with
    | Req.Ok_run { rets_digest; _ } -> rets_digest
    | st -> Alcotest.failf "expected ok, got %s" (Req.status_class st)
  in
  let clean_digest = digest_of clean in
  with_faults ~seed:3 [ ("sim.step", 0.5) ] (fun () ->
      let policy = { Req.default_policy with Req.max_retries = 50 } in
      let o = Req.execute ~policy s in
      Alcotest.(check string) "bit-identical to fault-free run" clean_digest
        (digest_of o))

let test_request_quarantines_on_exhaustion () =
  let s = spec_of_kernel "fir" in
  with_faults ~seed:1 [ ("sim.step", 1.0) ] (fun () ->
      let policy = { Req.default_policy with Req.max_retries = 2 } in
      let o = Req.execute ~policy s in
      (match o.Req.o_status with
      | Req.Quarantined { reason } ->
        Alcotest.(check bool) "structured reason names the site" true
          (String.length reason > 0
          && Option.is_some
               (String.index_opt reason ':')) (* "retries exhausted: ..." *)
      | st -> Alcotest.failf "expected quarantined, got %s" (Req.status_class st));
      Alcotest.(check int) "used the whole retry budget" 2 o.Req.o_retries)

let test_request_rejected_not_retried () =
  (* A deterministic diagnostic must never consume retries. *)
  let retries0 = metric "svc.retries" in
  let s =
    {
      Req.op = Req.Compile;
      label = "bad.m";
      source = "function y = f(x)\ny = undefined_fn(x);\n";
      entry = "f";
      arg_types = [ Masc_sema.Mtype.scalar Masc_sema.Mtype.Double ];
      inputs = [];
      config = C.proposed ();
      fuel = None;
    }
  in
  let o = Req.execute ~policy:Req.default_policy s in
  (match o.Req.o_status with
  | Req.Rejected diags ->
    Alcotest.(check bool) "diags present" true (diags <> [])
  | st -> Alcotest.failf "expected rejected, got %s" (Req.status_class st));
  Alcotest.(check int) "no retries" 0 o.Req.o_retries;
  Alcotest.(check (float 0.0)) "retry metric untouched" retries0
    (metric "svc.retries")

let test_request_timeout () =
  let s = spec_of_kernel "matmul" in
  let policy = { Req.default_policy with Req.timeout_ms = Some 0.001 } in
  let o = Req.execute ~policy s in
  match o.Req.o_status with
  | Req.Timed_out { budget_ms } ->
    Alcotest.(check (float 0.0001)) "budget" 0.001 budget_ms
  | st -> Alcotest.failf "expected timeout, got %s" (Req.status_class st)

let test_circuit_breaker () =
  let s = spec_of_kernel "fir" in
  with_faults ~seed:1 [ ("sim.step", 1.0) ] (fun () ->
      let policy =
        { Req.default_policy with Req.max_retries = 0; quarantine_after = 2 }
      in
      let b = Req.create_breaker () in
      let o1 = Req.execute ~breaker:b ~policy s in
      let o2 = Req.execute ~breaker:b ~policy s in
      let o3 = Req.execute ~breaker:b ~policy s in
      let reason o =
        match o.Req.o_status with
        | Req.Quarantined { reason } -> reason
        | st -> Alcotest.failf "expected quarantined, got %s" (Req.status_class st)
      in
      let starts_with prefix s =
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix
      in
      (* Reasons carry per-attempt occurrence numbers; classify by
         prefix, not full equality. *)
      Alcotest.(check bool) "first two exhaust retries" true
        (starts_with "retries exhausted" (reason o1)
        && starts_with "retries exhausted" (reason o2));
      Alcotest.(check bool) "third short-circuits on the open breaker" true
        (starts_with "circuit open" (reason o3));
      Alcotest.(check int) "open breaker burns no attempts" 0 o3.Req.o_retries);
  (* Success closes the breaker again. *)
  let b = Req.create_breaker () in
  let o = Req.execute ~breaker:b ~policy:Req.default_policy s in
  Alcotest.(check string) "healthy input passes the same breaker" "ok"
    (Req.status_class o.Req.o_status)

(* ---- persistent cache ---- *)

let tmpdir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "masc_svc_test_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))
  in
  d

let with_cache_dir f =
  let dir = tmpdir () in
  (* Earlier tests populate the in-memory tier; drop it so this test's
     compiles actually reach the disk tier under [dir]. *)
  C.clear_memory_cache ();
  C.set_cache_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      C.set_cache_dir None;
      C.clear_memory_cache ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let entry_paths dir =
  let acc = ref [] in
  if Sys.file_exists dir then
    Array.iter
      (fun shard ->
        let sdir = Filename.concat dir shard in
        if Sys.is_directory sdir then
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".masc" then
                acc := Filename.concat sdir f :: !acc)
            (Sys.readdir sdir))
      (Sys.readdir dir);
  List.sort compare !acc

let compile_fir () =
  let k = kernel "fir" in
  C.compile_file_cached (C.proposed ()) ~source:k.K.source ~entry:k.K.entry
    ~arg_types:k.K.arg_types

let c_of = function
  | Some compiled, _ -> C.c_source compiled
  | None, _ -> Alcotest.fail "fir must compile"

let test_disk_cache_roundtrip () =
  with_cache_dir (fun dir ->
      let cold = c_of (compile_fir ()) in
      Alcotest.(check int) "one entry on disk" 1
        (List.length (entry_paths dir));
      let hits0 = metric "cache.disk_hits" in
      C.clear_memory_cache ();
      let warm = c_of (compile_fir ()) in
      Alcotest.(check string) "warm hit bit-identical" cold warm;
      Alcotest.(check (float 0.0)) "served from disk" (hits0 +. 1.0)
        (metric "cache.disk_hits"))

(* Corrupt one on-disk entry with [mutate], then recompile: the entry
   must be detected, counted, deleted and recompiled bit-identically —
   never surfaced as an error. *)
let corruption_case name mutate =
  with_cache_dir (fun dir ->
      let cold = c_of (compile_fir ()) in
      let path =
        match entry_paths dir with
        | [ p ] -> p
        | ps -> Alcotest.failf "expected 1 entry, found %d" (List.length ps)
      in
      mutate path;
      let corrupt0 = metric "cache.disk_corrupt" in
      C.clear_memory_cache ();
      let recovered = c_of (compile_fir ()) in
      Alcotest.(check string)
        (name ^ ": recovered output bit-identical to cold compile")
        cold recovered;
      Alcotest.(check bool) (name ^ ": corruption counted") true
        (metric "cache.disk_corrupt" > corrupt0);
      (* The recompile rewrote a fresh, valid entry in place. *)
      C.clear_memory_cache ();
      let hits0 = metric "cache.disk_hits" in
      let again = c_of (compile_fir ()) in
      Alcotest.(check string) (name ^ ": replacement entry serves hits") cold
        again;
      Alcotest.(check (float 0.0))
        (name ^ ": hit from replaced entry")
        (hits0 +. 1.0)
        (metric "cache.disk_hits"))

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_cache_truncation () =
  corruption_case "truncate" (fun path ->
      let raw = read_bytes path in
      write_bytes path (String.sub raw 0 (String.length raw / 2)))

let test_cache_bitflip () =
  corruption_case "bit-flip" (fun path ->
      let raw = Bytes.of_string (read_bytes path) in
      let i = Bytes.length raw - 7 in
      Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x40));
      write_bytes path (Bytes.to_string raw))

let test_cache_version_skew () =
  corruption_case "version-skew" (fun path ->
      let raw = read_bytes path in
      (* Rewrite the v: header line to an old version string. *)
      let nl1 = String.index raw '\n' in
      let nl2 = String.index_from raw (nl1 + 1) '\n' in
      write_bytes path
        (String.sub raw 0 (nl1 + 1)
        ^ "v:masc-cc-0|ancient\n"
        ^ String.sub raw (nl2 + 1) (String.length raw - nl2 - 1)))

let test_cache_fault_injection_is_miss () =
  (* An injected cache.read fault surfaces as Fault.Injected (for the
     retry loop), not as a hard error; cache.write faults likewise. *)
  with_cache_dir (fun _dir ->
      with_faults ~seed:1 [ ("cache.read", 1.0) ] (fun () ->
          match compile_fir () with
          | exception Fault.Injected { site; _ } ->
            Alcotest.(check string) "read fault surfaces" "cache.read" site
          | _ -> Alcotest.fail "armed cache.read must fire"))

(* ---- batch front end ---- *)

let dsp8 = Masc_asip.Targets.dsp8

let test_batch_parse () =
  let items =
    Batch.parse ~default_isa:dsp8
      "# comment\n\
       run kernel:fir\n\
       \n\
       compile kernel:fft target=dsp4 fuel=1000\n\
       run kernel:nope\n\
       frobnicate kernel:fir\n\
       run kernel:fir bogus-flag\n"
  in
  Alcotest.(check int) "comments and blanks skipped" 5 (List.length items);
  let ok_count =
    List.length
      (List.filter (fun i -> Result.is_ok i.Batch.bx_parsed) items)
  in
  Alcotest.(check int) "two parse, three rejected" 2 ok_count;
  match (List.nth items 0).Batch.bx_parsed with
  | Ok spec ->
    Alcotest.(check string) "label" "kernel:fir" spec.Req.label;
    Alcotest.(check bool) "run op" true (spec.Req.op = Req.Run)
  | Error e -> Alcotest.failf "first item must parse: %s" e

let test_batch_run_order_and_isolation () =
  let items =
    Batch.parse ~default_isa:dsp8
      "run kernel:fir\nrun kernel:nope\nrun kernel:iir\n"
  in
  let outcomes = Batch.run ~jobs:2 ~policy:Req.default_policy items in
  Alcotest.(check (list string)) "statuses in input order"
    [ "ok"; "invalid"; "ok" ]
    (List.map (fun o -> Req.status_class o.Req.o_status) outcomes)

let test_batch_summary_json () =
  let items = Batch.parse ~default_isa:dsp8 "run kernel:fir\n" in
  let outcomes = Batch.run ~policy:Req.default_policy items in
  let json = Batch.summary_json outcomes in
  Alcotest.(check (result string string)) "summary reprints identically"
    (Ok json)
    (Result.map (J.to_string ~layout:J.Doc) (J.parse json));
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "summary has %s" key) true
        (contains key))
    [ "\"requests\""; "\"counts\""; "\"latency_ms\""; "\"p99\"";
      "\"faults_injected\""; "\"cache\""; "\"hit_rate\"" ]

(* ---- flight-recorder soak: determinism and reconstruction ----

   The CI fault-soak workload (6 kernels x 4 targets x run+compile x 5
   reps = 240 requests) under all:0.05 fault injection, run in-process
   at jobs=1 so the journal's event order is a pure function of the
   fault seed. Two runs with the same seed must produce byte-identical
   journals modulo time-valued fields, and every outcome must be
   reconstructible from the journal alone. *)

module Journal = Masc_obs.Journal

let soak_reqs =
  let b = Buffer.create 4096 in
  for _rep = 1 to 5 do
    List.iter
      (fun k ->
        List.iter
          (fun t ->
            Buffer.add_string b
              (Printf.sprintf "run kernel:%s target=%s\n" k t);
            Buffer.add_string b
              (Printf.sprintf "compile kernel:%s target=%s\n" k t))
          [ "scalar"; "dsp4"; "dsp8"; "dsp16" ])
      [ "fir"; "iir"; "fft"; "matmul"; "xcorr"; "fmdemod" ]
  done;
  Buffer.contents b

let run_soak ~seed =
  let dir = tmpdir () in
  C.clear_memory_cache ();
  C.set_cache_dir (Some dir);
  Journal.reset ();
  Fault.configure ~seed (Fault.parse_spec "all:0.05");
  let policy =
    { Req.default_policy with
      Req.max_retries = 6;
      backoff_base_ms = 0.01;
      quarantine_after = 3;
      retry_seed = seed }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      C.set_cache_dir None;
      C.clear_memory_cache ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let items = Batch.parse ~default_isa:dsp8 soak_reqs in
      Batch.run ~jobs:1 ~policy items)

let detail key (ev : Journal.event) = List.assoc_opt key ev.Journal.detail

let test_soak_journal () =
  Journal.enable ();
  Fun.protect ~finally:Journal.disable @@ fun () ->
  let o1 = run_soak ~seed:7 in
  let j1 = Journal.normalize (Journal.to_jsonl ()) in
  let o2 = run_soak ~seed:7 in
  let j2 = Journal.normalize (Journal.to_jsonl ()) in
  Alcotest.(check int) "240 outcomes" 240 (List.length o2);
  Alcotest.(check int) "nothing dropped from the ring" 0 (Journal.dropped ());
  let classes os = List.map (fun o -> Req.status_class o.Req.o_status) os in
  Alcotest.(check (list string)) "same seed, same outcome classes"
    (classes o1) (classes o2);
  Alcotest.(check bool) "journals byte-identical modulo timestamps" true
    (j1 = j2);
  let all = Journal.events () in
  let kinds k =
    List.length (List.filter (fun (e : Journal.event) -> e.Journal.kind = k) all)
  in
  Alcotest.(check bool) "faults actually fired" true
    (kinds "fault.injected" > 0);
  Alcotest.(check bool) "cache traffic journaled" true
    (kinds "cache.miss" > 0 || kinds "cache.hit" > 0);
  (* Reconstruction: every outcome's story — acceptance, attempt count,
     retry count, final class — must be recoverable from its rid's
     journal slice alone. *)
  List.iteri
    (fun i (o : Req.outcome) ->
      let evs = Journal.events_for ~rid:i in
      let count k =
        List.length
          (List.filter (fun (e : Journal.event) -> e.Journal.kind = k) evs)
      in
      Alcotest.(check int)
        (Printf.sprintf "req %d accepted exactly once" i)
        1 (count "request.accepted");
      (match
         List.filter
           (fun (e : Journal.event) -> e.Journal.kind = "request.done")
           evs
       with
      | [ d ] ->
        Alcotest.(check (option string))
          (Printf.sprintf "req %d final class from journal" i)
          (Some (Req.status_class o.Req.o_status))
          (detail "class" d)
      | ds ->
        Alcotest.failf "req %d: expected exactly one request.done, got %d" i
          (List.length ds));
      Alcotest.(check int)
        (Printf.sprintf "req %d retries = backoff events" i)
        o.Req.o_retries (count "retry.backoff");
      let short_circuited = count "quarantine.hit" > 0 in
      if (not short_circuited) && Req.status_class o.Req.o_status <> "invalid"
      then
        Alcotest.(check int)
          (Printf.sprintf "req %d attempts = retries + 1" i)
          (o.Req.o_retries + 1)
          (count "attempt.start"))
    o2;
  (* The batch summary cites journal offsets for every non-ok request,
     and the offsets point at that request's own events. *)
  let json = Batch.summary_json o2 in
  let non_ok =
    List.filteri
      (fun _ o -> Req.status_class o.Req.o_status <> "ok")
      o2
  in
  if non_ok <> [] then begin
    let contains sub =
      let n = String.length sub and m = String.length json in
      let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "summary cites journal offsets" true
      (contains "\"journal\":[")
  end

(* A request line carrying a Latin-1 byte (0xE9): the summary and every
   journal line stay strict JSON, and the label reads back with U+FFFD
   in place of each byte that is not UTF-8. *)
let test_batch_non_utf8 () =
  Journal.enable ();
  Fun.protect ~finally:Journal.disable @@ fun () ->
  let items = Batch.parse ~default_isa:dsp8 "run \xe9t\xe9\n" in
  let outcomes = Batch.run ~policy:Req.default_policy items in
  let parse what s =
    match J.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s is not strict JSON (%s): %S" what e s
  in
  let label doc = Option.bind (J.member "label" doc) J.to_str in
  let replaced = Some "\xef\xbf\xbdt\xef\xbf\xbd" in
  (match
     Option.bind
       (J.member "requests" (parse "summary" (Batch.summary_json outcomes)))
       J.to_arr
   with
  | Some [ req ] ->
    Alcotest.(check (option string)) "summary label" replaced (label req)
  | _ -> Alcotest.fail "expected one request in the summary");
  let lines =
    String.split_on_char '\n' (String.trim (Journal.to_jsonl ()))
    |> List.map (parse "journal line")
  in
  Alcotest.(check bool) "journal accepted the request" true (lines <> []);
  Alcotest.(check (option string)) "journal label" replaced
    (label (List.hd lines))

let suites =
  [ ( "svc fault injection",
      [ Alcotest.test_case "deterministic draws" `Quick test_fault_determinism;
        Alcotest.test_case "spec parsing" `Quick test_fault_spec_parsing;
        Alcotest.test_case "armed check raises" `Quick test_fault_check_raises;
        Alcotest.test_case "splitmix64 known answer" `Quick
          test_splitmix64_known_answer
      ] );
    ( "svc deadlines",
      [ Alcotest.test_case "deadline fires" `Quick test_deadline_fires;
        Alcotest.test_case "nesting and restore" `Quick test_deadline_restores
      ] );
    ( "svc requests",
      [ Alcotest.test_case "ok run matches direct" `Quick test_request_ok;
        Alcotest.test_case "retries then succeeds" `Quick
          test_request_retries_then_succeeds;
        Alcotest.test_case "quarantine on exhaustion" `Quick
          test_request_quarantines_on_exhaustion;
        Alcotest.test_case "rejected not retried" `Quick
          test_request_rejected_not_retried;
        Alcotest.test_case "timeout" `Quick test_request_timeout;
        Alcotest.test_case "circuit breaker" `Quick test_circuit_breaker ] );
    ( "svc persistent cache",
      [ Alcotest.test_case "disk round-trip" `Quick test_disk_cache_roundtrip;
        Alcotest.test_case "truncation recovery" `Quick test_cache_truncation;
        Alcotest.test_case "bit-flip recovery" `Quick test_cache_bitflip;
        Alcotest.test_case "version-skew recovery" `Quick
          test_cache_version_skew;
        Alcotest.test_case "read fault is retryable" `Quick
          test_cache_fault_injection_is_miss ] );
    ( "svc batch",
      [ Alcotest.test_case "line grammar" `Quick test_batch_parse;
        Alcotest.test_case "order and isolation" `Quick
          test_batch_run_order_and_isolation;
        Alcotest.test_case "summary json" `Quick test_batch_summary_json;
        Alcotest.test_case "non-UTF-8 request line" `Quick
          test_batch_non_utf8 ] );
    ( "svc flight recorder",
      [ Alcotest.test_case "soak determinism and reconstruction" `Slow
          test_soak_journal ] )
  ]
