(* Simulator unit tests: scalar value semantics, intrinsic execution,
   error behaviour, histogram and verification. *)

module Mir = Masc_mir.Mir
module I = Masc_vm.Interp
module V = Masc_vm.Value
module T = Masc_asip.Targets

let test_value_coercions () =
  Alcotest.(check bool) "int to float" true (V.to_float (V.Si 3) = 3.0);
  Alcotest.(check bool) "bool to int" true (V.to_int (V.Sb true) = 1);
  Alcotest.(check bool) "float rounds to int" true (V.to_int (V.Sf 2.6) = 3);
  Alcotest.(check bool) "coerce to complex" true
    (V.coerce Mir.complex_sty (V.Sf 2.0) = V.Sc { Complex.re = 2.0; im = 0.0 });
  Alcotest.(check bool) "coerce to bool" true
    (V.coerce Mir.bool_sty (V.Sf 0.0) = V.Sb false);
  match V.coerce Mir.int_sty (V.Sc Complex.one) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "complex into int must fail"

let test_int_rounding () =
  (* Both conversion paths into an int use MATLAB round-half-away-from-
     zero semantics; assignment coercion must agree with operand
     conversion on every value, including the .5 ties. *)
  Alcotest.(check bool) "coerce rounds 2.7 up" true
    (V.coerce Mir.int_sty (V.Sf 2.7) = V.Si 3);
  Alcotest.(check bool) "coerce rounds -2.5 away from zero" true
    (V.coerce Mir.int_sty (V.Sf (-2.5)) = V.Si (-3));
  Alcotest.(check bool) "coerce rounds 2.5 away from zero" true
    (V.coerce Mir.int_sty (V.Sf 2.5) = V.Si 3);
  Alcotest.(check bool) "coerce rounds -2.4 toward zero" true
    (V.coerce Mir.int_sty (V.Sf (-2.4)) = V.Si (-2));
  List.iter
    (fun f ->
      Alcotest.(check int)
        (Printf.sprintf "to_int and coerce agree on %g" f)
        (V.to_int (V.Sf f))
        (match V.coerce Mir.int_sty (V.Sf f) with
        | V.Si n -> n
        | _ -> Alcotest.fail "coerce into int must yield Si"))
    [ 2.7; -2.7; 2.5; -2.5; 0.5; -0.5; 1.49999; -1.49999; 0.0; 1e9 ]

let test_value_binops () =
  let f op a b = V.binop op a b in
  Alcotest.(check bool) "int add stays int" true (f Mir.Badd (V.Si 2) (V.Si 3) = V.Si 5);
  Alcotest.(check bool) "div always float" true
    (f Mir.Bdiv (V.Si 3) (V.Si 4) = V.Sf 0.75);
  Alcotest.(check bool) "idiv" true (f Mir.Bidiv (V.Si 7) (V.Si 2) = V.Si 3);
  Alcotest.(check bool) "matlab mod sign" true
    (f Mir.Bmod (V.Si (-7)) (V.Si 5) = V.Si 3);
  Alcotest.(check bool) "complex add" true
    (f Mir.Badd (V.Sc Complex.one) (V.Sf 1.0) = V.Sc { Complex.re = 2.0; im = 0.0 });
  Alcotest.(check bool) "comparison" true (f Mir.Blt (V.Si 1) (V.Sf 1.5) = V.Sb true);
  match f Mir.Blt (V.Sc Complex.one) (V.Si 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ordering on complex must fail"

let test_value_math () =
  Alcotest.(check (float 1e-12)) "sqrt" 3.0 (V.to_float (V.math "sqrt" [ V.Sf 9.0 ]));
  Alcotest.(check (float 1e-12)) "atan2" (Float.pi /. 4.0)
    (V.to_float (V.math "atan2" [ V.Sf 1.0; V.Sf 1.0 ]));
  (match V.math "exp" [ V.Sc { Complex.re = 0.0; im = Float.pi } ] with
  | V.Sc z -> Alcotest.(check (float 1e-12)) "exp(i pi)" (-1.0) z.Complex.re
  | _ -> Alcotest.fail "complex exp");
  match V.math "nonsense" [ V.Sf 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown math must fail"

(* Build a tiny MIR function by hand to exercise the interpreter
   surface directly. *)
let hand_built_vector_function () =
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let out = { Mir.vname = "y"; vid = 1; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let vec_ty = Mir.Tscalar { Mir.base = Masc_sema.Mtype.Double; cplx = Masc_sema.Mtype.Real; lanes = 8 } in
  let v1 = { Mir.vname = "v"; vid = 2; vty = vec_ty } in
  let v2 = { Mir.vname = "w"; vid = 3; vty = vec_ty } in
  let body =
    List.map Mir.instr
      [ Mir.Idef (v1, Mir.Rvload (arr, Mir.Oconst (Mir.Ci 0), 8));
        Mir.Idef (v2, Mir.Rintrin ("vadd_f64x8", [ Mir.Ovar v1; Mir.Ovar v1 ]));
        Mir.Ivstore (out, Mir.Oconst (Mir.Ci 0), Mir.Ovar v2, 8) ]
  in
  { Mir.name = "vecfn"; params = [ arr ]; rets = [ out ];
    vars = [ arr; out; v1; v2 ]; body }

let test_vector_execution () =
  let f = hand_built_vector_function () in
  Masc_mir.Verify.check f;
  let input = I.xarray_of_floats (Array.init 8 float_of_int) in
  let r = I.run ~isa:T.dsp8 ~mode:Masc_asip.Cost_model.Proposed f [ input ] in
  match r.I.rets with
  | [ I.Xarray a ] ->
    Array.iteri
      (fun i s ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "lane %d" i)
          (2.0 *. float_of_int i)
          (V.to_float s))
      a
  | _ -> Alcotest.fail "expected one array"

let test_missing_intrinsic_fails () =
  let f = hand_built_vector_function () in
  let input = I.xarray_of_floats (Array.init 8 float_of_int) in
  match I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [ input ] with
  | exception I.Runtime_error _ -> ()
  | _ -> Alcotest.fail "scalar target must reject vector intrinsics"

let test_bounds_checking () =
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 4) } in
  let y = { Mir.vname = "y"; vid = 1; vty = Mir.Tscalar Mir.double_sty } in
  let f =
    { Mir.name = "oob"; params = [ arr ]; rets = [ y ]; vars = [ arr; y ];
      body = [ Mir.instr (Mir.Idef (y, Mir.Rload (arr, Mir.Oconst (Mir.Ci 9)))) ] }
  in
  let input = I.xarray_of_floats [| 1.; 2.; 3.; 4. |] in
  let mode = Masc_asip.Cost_model.Proposed in
  List.iter
    (fun (engine, run) ->
      match run () with
      | exception I.Runtime_error msg ->
        Alcotest.(check string) (engine ^ " message")
          "a index 9 out of bounds [0, 4)" msg
      | _ -> Alcotest.failf "%s: expected out-of-bounds error" engine)
    [ ("plan", fun () -> I.run ~isa:T.scalar ~mode f [ input ]);
      ("tree-walker", fun () -> I.run_tree ~isa:T.scalar ~mode f [ input ]) ]

let test_cycle_budget () =
  let y = { Mir.vname = "y"; vid = 0; vty = Mir.Tscalar Mir.double_sty } in
  let cond = { Mir.vname = "c"; vid = 1; vty = Mir.Tscalar Mir.bool_sty } in
  (* infinite while loop *)
  let f =
    { Mir.name = "spin"; params = []; rets = [ y ]; vars = [ y; cond ];
      body =
        [ Mir.instr
            (Mir.Iwhile
               { cond_block =
                   [ Mir.instr (Mir.Idef (cond, Mir.Rmove (Mir.Oconst (Mir.Cb true)))) ];
                 cond = Mir.Ovar cond;
                 body =
                   [ Mir.instr
                       (Mir.Idef (y, Mir.Rbin (Mir.Badd, Mir.Ovar y, Mir.Oconst (Mir.Cf 1.0)))) ] }) ] }
  in
  (match I.run ~max_cycles:10_000 ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] with
  | exception Masc_vm.Exec.Trap { kind = Masc_vm.Exec.Cycle_limit { max_cycles }; loc; steps_executed } ->
    Alcotest.(check int) "budget in trap" 10_000 max_cycles;
    Alcotest.(check string) "trap location" "spin" loc;
    Alcotest.(check bool) "made progress" true (steps_executed > 0)
  | _ -> Alcotest.fail "expected a cycle-limit trap");
  (* The fuel budget bounds dynamic instructions even when the cycle
     budget is generous: the unbounded loop terminates with a trap. *)
  (match I.run ~fuel:5_000 ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] with
  | exception Masc_vm.Exec.Trap { kind = Masc_vm.Exec.Fuel_exhausted { fuel }; steps_executed; _ } ->
    Alcotest.(check int) "fuel in trap" 5_000 fuel;
    Alcotest.(check bool) "steps past budget" true (steps_executed > 5_000)
  | _ -> Alcotest.fail "expected a fuel trap");
  (* Both back ends trap at the same step. *)
  (match I.run_tree ~fuel:5_000 ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] with
  | exception Masc_vm.Exec.Trap { kind = Masc_vm.Exec.Fuel_exhausted _; steps_executed; _ } ->
    Alcotest.(check int) "tree-walker traps at the same step" 5_001 steps_executed
  | _ -> Alcotest.fail "expected a fuel trap from the tree-walker")

let test_histogram () =
  let src = "function y = f(a)\ny = 0;\nfor i = 1:32\ny = y + a(i) * a(i);\nend\nend" in
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source src ~entry:"f"
         ~arg_types:[ Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double 32 ])
  in
  let r =
    I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f
      [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:77 32) ]
  in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 r.I.histogram in
  Alcotest.(check int) "histogram sums to total cycles" r.I.cycles total;
  Alcotest.(check bool) "has alu class" true
    (List.mem_assoc "alu" r.I.histogram);
  Alcotest.(check bool) "has mem class" true
    (List.mem_assoc "mem" r.I.histogram);
  Alcotest.(check bool) "has loop class" true
    (List.mem_assoc "loop" r.I.histogram)

let test_verify_catches_breakage () =
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 4) } in
  let y = { Mir.vname = "y"; vid = 1; vty = Mir.Tscalar Mir.double_sty } in
  let bad_cases =
    [ (* array used as scalar operand *)
      { Mir.name = "bad1"; params = [ arr ]; rets = [ y ]; vars = [ arr; y ];
        body = [ Mir.instr (Mir.Idef (y, Mir.Rbin (Mir.Badd, Mir.Ovar arr, Mir.Oconst (Mir.Cf 1.0)))) ] };
      (* undeclared variable *)
      { Mir.name = "bad2"; params = []; rets = [ y ]; vars = [ y ];
        body =
          [ Mir.instr
              (Mir.Idef (y, Mir.Rmove (Mir.Ovar { Mir.vname = "ghost"; vid = 99; vty = Mir.Tscalar Mir.double_sty }))) ] };
      (* break outside loop *)
      { Mir.name = "bad3"; params = []; rets = [ y ]; vars = [ y ];
        body = [ Mir.instr Mir.Ibreak ] } ]
  in
  List.iter
    (fun f ->
      match Masc_mir.Verify.check_result f with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "verifier accepted %s" f.Mir.name)
    bad_cases

let test_print_formats () =
  let src =
    "function y = f()\n\
     y = 1;\n\
     fprintf('int %d, float %.2f, pct %%\\n', 7, 3.14159);\n\
     fprintf('%d %d\\n', 1, 2);\n\
     disp(42);\nend"
  in
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source src ~entry:"f" ~arg_types:[])
  in
  let r = I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] in
  Alcotest.(check string) "output"
    "int 7, float 3.14, pct %\n1 2\n42 \n" r.I.output

let base_suites =
  [ ( "vm",
      [ Alcotest.test_case "value coercions" `Quick test_value_coercions;
        Alcotest.test_case "int rounding semantics" `Quick test_int_rounding;
        Alcotest.test_case "value binops" `Quick test_value_binops;
        Alcotest.test_case "value math" `Quick test_value_math;
        Alcotest.test_case "vector execution" `Quick test_vector_execution;
        Alcotest.test_case "missing intrinsic" `Quick
          test_missing_intrinsic_fails;
        Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
        Alcotest.test_case "cycle budget" `Quick test_cycle_budget;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "verifier catches breakage" `Quick
          test_verify_catches_breakage;
        Alcotest.test_case "print formats" `Quick test_print_formats ] ) ]

(* --- determinism and affine analysis --- *)

let test_determinism () =
  (* Identical compile+run twice: cycles, values and histogram match
     exactly (no wall-clock or randomness anywhere). *)
  let k = Masc_kernels.Kernels.fft ~n:64 () in
  let go () =
    let c =
      Masc.Compiler.compile (Masc.Compiler.proposed ())
        ~source:k.Masc_kernels.Kernels.source
        ~entry:k.Masc_kernels.Kernels.entry
        ~arg_types:k.Masc_kernels.Kernels.arg_types
    in
    Masc.Compiler.run c (k.Masc_kernels.Kernels.inputs ())
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "cycles equal" r1.I.cycles r2.I.cycles;
  Alcotest.(check int) "dyn instrs equal" r1.I.dyn_instrs r2.I.dyn_instrs;
  Alcotest.(check bool) "histograms equal" true (r1.I.histogram = r2.I.histogram);
  Alcotest.(check bool) "values equal" true (r1.I.rets = r2.I.rets)

let test_affine_analysis () =
  let module A = Masc_mir.Affine in
  let iv = { Mir.vname = "i"; vid = 0; vty = Mir.Tscalar Mir.int_sty } in
  let m = { Mir.vname = "m"; vid = 1; vty = Mir.Tscalar Mir.int_sty } in
  let t1 = { Mir.vname = "t"; vid = 2; vty = Mir.Tscalar Mir.int_sty } in
  let t2 = { Mir.vname = "t"; vid = 3; vty = Mir.Tscalar Mir.int_sty } in
  let defs = Hashtbl.create 4 in
  (* t1 = i - 1; t2 = t1 * 4 + m *)
  Hashtbl.replace defs t1.Mir.vid
    (Mir.Rbin (Mir.Bsub, Mir.Ovar iv, Mir.Oconst (Mir.Ci 1)));
  Hashtbl.replace defs t2.Mir.vid
    (Mir.Rbin
       ( Mir.Badd,
         Mir.Ovar
           { Mir.vname = "x"; vid = 4; vty = Mir.Tscalar Mir.int_sty },
         Mir.Ovar m ));
  Hashtbl.replace defs 4
    (Mir.Rbin (Mir.Bmul, Mir.Ovar t1, Mir.Oconst (Mir.Ci 4)));
  (match A.analyze ~ivar:iv ~defs (Mir.Ovar t1) with
  | Some a ->
    Alcotest.(check int) "coeff of i-1" 1 a.A.coeff;
    Alcotest.(check int) "const of i-1" (-1) a.A.const
  | None -> Alcotest.fail "i-1 should be affine");
  (match A.analyze ~ivar:iv ~defs (Mir.Ovar t2) with
  | Some a ->
    Alcotest.(check int) "coeff of 4(i-1)+m" 4 a.A.coeff;
    Alcotest.(check int) "const" (-4) a.A.const;
    Alcotest.(check int) "one invariant term" 1 (List.length a.A.terms)
  | None -> Alcotest.fail "4(i-1)+m should be affine");
  (* non-affine: load-dependent *)
  let arr = { Mir.vname = "a"; vid = 5; vty = Mir.Tarray (Mir.int_sty, 4) } in
  Hashtbl.replace defs 6 (Mir.Rload (arr, Mir.Ovar iv));
  match
    A.analyze ~ivar:iv ~defs
      (Mir.Ovar { Mir.vname = "g"; vid = 6; vty = Mir.Tscalar Mir.int_sty })
  with
  | None -> ()
  | Some _ -> Alcotest.fail "load-dependent index must not be affine"

let extra_suites =
  [ ( "vm extras",
      [ Alcotest.test_case "deterministic execution" `Quick test_determinism;
        Alcotest.test_case "affine analysis" `Quick test_affine_analysis ] ) ]

(* --- plan back end: differential identity against the tree-walker --- *)

let test_hex_and_recycling_formats () =
  (* %x (satellite fix: used to print decimal), %% escapes, widths, and
     MATLAB format-string recycling when more args than conversions. *)
  let src =
    "function y = f()\n\
     y = 1;\n\
     fprintf('hex %x pad %04x pct %%\\n', 255, 10);\n\
     fprintf('%x\\n', 16, 17, 18);\n\
     end"
  in
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source src ~entry:"f" ~arg_types:[])
  in
  let r = I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] in
  Alcotest.(check string) "hex output"
    "hex ff pad 000a pct %\n10\n11\n12\n" r.I.output

(* Every kernel x target x cost mode through both back ends: the
   closure-threaded plan (I.run) must be bit-identical to the legacy
   tree-walking interpreter (I.run_tree) — cycles, dynamic instruction
   count, histogram (content AND order), printed output, return values. *)
let test_plan_tree_differential () =
  let module K = Masc_kernels.Kernels in
  let targets =
    [ ("scalar", T.scalar); ("dsp4", T.dsp4); ("dsp8", T.dsp8);
      ("dsp16", T.dsp16) ]
  in
  let modes =
    [ ("proposed", Masc_asip.Cost_model.Proposed);
      ("coder", Masc_asip.Cost_model.Coder) ]
  in
  List.iter
    (fun (k : K.kernel) ->
      List.iter
        (fun (tname, isa) ->
          List.iter
            (fun (mname, mode) ->
              let tag what =
                Printf.sprintf "%s/%s/%s %s" k.K.kname tname mname what
              in
              let c =
                Masc.Compiler.compile
                  { (Masc.Compiler.proposed ~isa ()) with
                    Masc.Compiler.mode }
                  ~source:k.K.source ~entry:k.K.entry
                  ~arg_types:k.K.arg_types
              in
              let inputs = k.K.inputs () in
              let rt = I.run_tree ~isa ~mode c.Masc.Compiler.mir inputs in
              let rp = I.run ~isa ~mode c.Masc.Compiler.mir inputs in
              Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
              Alcotest.(check int)
                (tag "dyn instrs")
                rt.I.dyn_instrs rp.I.dyn_instrs;
              Alcotest.(check bool)
                (tag "histogram (incl. order)")
                true
                (rt.I.histogram = rp.I.histogram);
              Alcotest.(check string) (tag "output") rt.I.output rp.I.output;
              Alcotest.(check bool)
                (tag "return values")
                true
                (compare rt.I.rets rp.I.rets = 0);
              (* Elementwise check through [Value.close]: redundant with
                 the exact compare above, but localizes a divergence to
                 the offending element instead of a whole-list mismatch,
                 and guards the exact check against ever being weakened
                 to an approximate one silently. *)
              List.iteri
                (fun i (xt, xp) ->
                  match (xt, xp) with
                  | I.Xscalar a, I.Xscalar b ->
                    Alcotest.(check bool)
                      (tag (Printf.sprintf "ret %d close" i))
                      true (V.close a b)
                  | I.Xarray a, I.Xarray b ->
                    Alcotest.(check int)
                      (tag (Printf.sprintf "ret %d length" i))
                      (Array.length a) (Array.length b);
                    Array.iteri
                      (fun j x ->
                        Alcotest.(check bool)
                          (tag (Printf.sprintf "ret %d elem %d close" i j))
                          true
                          (V.close x b.(j)))
                      a
                  | _ -> Alcotest.fail (tag (Printf.sprintf "ret %d shape" i)))
                (List.combine rt.I.rets rp.I.rets))
            modes)
        targets)
    (K.all ())

let test_plan_reuse () =
  (* The plan cached in a compilation is reusable: running the same
     compiled kernel twice gives identical results (state is per-run,
     not per-plan). *)
  let module K = Masc_kernels.Kernels in
  let k = K.fir ~n:128 ~m:16 () in
  let c =
    Masc.Compiler.compile (Masc.Compiler.proposed ()) ~source:k.K.source
      ~entry:k.K.entry ~arg_types:k.K.arg_types
  in
  let inputs = k.K.inputs () in
  let r1 = Masc.Compiler.run c inputs in
  let r2 = Masc.Compiler.run c inputs in
  Alcotest.(check int) "cycles equal" r1.I.cycles r2.I.cycles;
  Alcotest.(check bool) "histograms equal" true (r1.I.histogram = r2.I.histogram);
  Alcotest.(check bool) "values equal" true (compare r1.I.rets r2.I.rets = 0)

(* --- plan back end: exact traps under segment charging --- *)

(* What a run ended with, compared between the engines: every field of
   a finished run, or the trap, injected fault or runtime failure (with
   its message) that stopped it. *)
let outcome run =
  match run () with
  | (r : I.result) ->
    `Done (r.I.cycles, r.I.dyn_instrs, r.I.histogram, r.I.output, r.I.rets)
  | exception Masc_vm.Exec.Trap { kind; loc; steps_executed } ->
    `Trap (kind, loc, steps_executed)
  | exception Masc_fault.Fault.Injected { site; occurrence } ->
    `Fault (site, occurrence)
  | exception I.Runtime_error msg -> `Error msg
  | exception Invalid_argument msg -> `Invalid msg

let same_outcome a b = compare a b = 0

(* Small kernels, so that every step of every run can be a trap point:
   scalar and dsp8, proposed flow and coder baseline. *)
let small_configs () =
  let module K = Masc_kernels.Kernels in
  let module C = Masc.Compiler in
  List.concat_map
    (fun (k : K.kernel) ->
      List.concat_map
        (fun (tname, isa) ->
          List.map
            (fun (fname, (cfg : C.config)) ->
              let c =
                C.compile cfg ~source:k.K.source ~entry:k.K.entry
                  ~arg_types:k.K.arg_types
              in
              ( Printf.sprintf "%s/%s/%s" k.K.kname tname fname,
                c.C.mir, isa, cfg.C.mode, k.K.inputs () ))
            [ ("proposed", C.proposed ~isa ());
              ("coder", C.coder_baseline ~isa ()) ])
        [ ("scalar", T.scalar); ("dsp8", T.dsp8) ])
    [ K.fir ~n:12 ~m:4 (); K.iir ~n:8 ~sections:2 (); K.fft ~n:8 ();
      K.matmul ~n:3 (); K.xcorr ~n:12 ~m:4 () ]

(* The plan charges a straight-line segment at once when no trap can
   fall inside it, and per instruction otherwise. Trap the run at every
   dynamic step, by fuel and by cycle limit: the plan must stop at the
   same step, with the same trap, as the per-instruction tree-walker.
   A run that fails stops at its failing step; the steps before it are
   trapped all the same. *)
let check_every_step (tag, mir, isa, mode, inputs) =
  let tree ?fuel ?max_cycles ?profile () =
    I.run_tree ?fuel ?max_cycles ?profile ~isa ~mode mir inputs
  in
  let plan ?fuel ?max_cycles () =
    I.run ?fuel ?max_cycles ~isa ~mode mir inputs
  in
  let total =
    let col = Masc_obs.Profile.create () in
    match tree ~profile:col () with
    | r -> r.I.dyn_instrs
    | exception (I.Runtime_error _ | Invalid_argument _) ->
      Hashtbl.fold
        (fun _ (e : Masc_obs.Profile.entry) acc -> acc + e.e_instrs)
        col.Masc_obs.Profile.classes 0
  in
  (* cycles.(k): cumulative cycles after step k, read from the
     tree-walker's profile of the run that traps at step k *)
  let cycles = Array.make (total + 1) 0 in
  for fuel = 0 to total do
    let col = Masc_obs.Profile.create () in
    let t = outcome (tree ~fuel ~profile:col) in
    let p = outcome (plan ~fuel) in
    if not (same_outcome t p) then
      Alcotest.failf "%s: fuel %d: plan and tree-walker differ" tag fuel;
    if fuel < total then
      cycles.(fuel + 1) <-
        Hashtbl.fold
          (fun _ (e : Masc_obs.Profile.entry) acc -> acc + e.e_cycles)
          col.Masc_obs.Profile.classes 0
  done;
  let limits = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      Hashtbl.replace limits (c - 1) ();
      Hashtbl.replace limits c ())
    cycles;
  Hashtbl.iter
    (fun max_cycles () ->
      if
        not
          (same_outcome
             (outcome (tree ~max_cycles))
             (outcome (plan ~max_cycles)))
      then
        Alcotest.failf "%s: max_cycles %d: plan and tree-walker differ" tag
          max_cycles)
    limits

let test_trap_every_step () = List.iter check_every_step (small_configs ())

(* An injected sim.step fault fires at a seed-chosen step in [1, 2048]:
   both engines fail at the same occurrence, or both complete alike. *)
let test_fault_every_seed () =
  Fun.protect ~finally:Masc_fault.Fault.disable (fun () ->
      List.iter
        (fun (tag, mir, isa, mode, inputs) ->
          for seed = 0 to 63 do
            let armed run =
              Masc_fault.Fault.configure ~seed [ ("sim.step", 1.0) ];
              outcome run
            in
            let t = armed (fun () -> I.run_tree ~isa ~mode mir inputs) in
            let p = armed (fun () -> I.run ~isa ~mode mir inputs) in
            if not (same_outcome t p) then
              Alcotest.failf "%s: fault seed %d: plan and tree-walker differ"
                tag seed
          done)
        (small_configs ()))

(* An armed deadline makes the plan test for cancellation every
   [guard_mask]+1 steps. Far in the future, it never fires: results
   match the unarmed run bit for bit, and fuel traps either side of the
   first two check steps match the tree-walker's. *)
let test_armed_deadline () =
  let module K = Masc_kernels.Kernels in
  let far f = Masc_fault.Cancel.with_deadline ~ms:1e9 f in
  let g = Masc_vm.Exec.guard_mask + 1 in
  List.iter
    (fun (k : K.kernel) ->
      List.iter
        (fun (tname, isa) ->
          let cfg = Masc.Compiler.proposed ~isa () in
          let c =
            Masc.Compiler.compile cfg ~source:k.K.source ~entry:k.K.entry
              ~arg_types:k.K.arg_types
          in
          let mir = c.Masc.Compiler.mir and mode = cfg.Masc.Compiler.mode in
          let inputs = k.K.inputs () in
          let tag = k.K.kname ^ "/" ^ tname in
          let plan ?fuel () = I.run ?fuel ~isa ~mode mir inputs in
          if not (same_outcome (outcome plan) (outcome (fun () -> far plan)))
          then Alcotest.failf "%s: armed deadline changed the run" tag;
          List.iter
            (fun fuel ->
              let t =
                outcome (fun () ->
                    far (fun () -> I.run_tree ~fuel ~isa ~mode mir inputs))
              in
              let p = outcome (fun () -> far (plan ~fuel)) in
              if not (same_outcome t p) then
                Alcotest.failf "%s: armed, fuel %d: plan and tree-walker differ"
                  tag fuel)
            (List.concat_map
               (fun b -> List.init 9 (fun i -> b - 4 + i))
               [ g; 2 * g ]))
        [ ("scalar", T.scalar); ("dsp8", T.dsp8) ])
    (K.all ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* SIMD lane arithmetic and the reduction epilogue run on unboxed lane
   buffers: a vectorized add/mul/mac/sum loop nest allocates nothing
   per repetition. *)
let test_simd_allocation_free () =
  let src =
    String.concat "\n"
      [ "function [y, s] = lanes(a, b, reps)"; "y = zeros(1, 64);"; "s = 0;";
        "for r = 1:reps";
        "  for i = 1:64"; "    y(i) = a(i) + b(i);"; "  end";
        "  for i = 1:64"; "    y(i) = y(i) * a(i);"; "  end";
        "  acc = 0;";
        "  for i = 1:64"; "    acc = acc + y(i) * b(i);"; "  end";
        "  s = s + acc;"; "end"; "end" ]
  in
  let module MT = Masc_sema.Mtype in
  let c =
    Masc.Compiler.compile
      (Masc.Compiler.proposed ~isa:T.dsp8 ())
      ~source:src ~entry:"lanes"
      ~arg_types:
        [ MT.row_vector MT.Double 64; MT.row_vector MT.Double 64; MT.double ]
  in
  let mir = Masc_mir.Mir_pp.func_to_string c.Masc.Compiler.mir in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " emitted") true (contains mir op))
    [ "vadd_f64x8"; "vmul_f64x8"; "vmac_f64x8"; "vreduce.sum" ];
  let p = Masc.Compiler.plan c in
  let a = I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:5 64) in
  let words reps =
    let args = [ a; a; I.Xscalar (V.Sf (float_of_int reps)) ] in
    ignore (Masc_vm.Plan.execute p args);
    let w0 = Gc.minor_words () in
    ignore (Masc_vm.Plan.execute p args);
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0))
    "minor words at 10 and 1000 repetitions" (words 10) (words 1000)

(* Loop handlers are installed only where a break or continue can reach
   them. A continue in a while's condition block escapes to the
   enclosing for loop, in both engines. *)
let test_loop_handlers () =
  let v name vid sty = { Mir.vname = name; vid; vty = Mir.Tscalar sty } in
  let y = v "y" 0 Mir.double_sty and i = v "i" 1 Mir.int_sty in
  let c = v "c" 2 Mir.bool_sty and nc = v "nc" 3 Mir.bool_sty in
  let ins = Mir.instr in
  let add x k = ins (Mir.Idef (x, Mir.Rbin (Mir.Badd, Mir.Ovar x, k))) in
  let body =
    [ ins
        (Mir.Iwhile
           { cond_block =
               [ ins (Mir.Idef (c, Mir.Rbin (Mir.Blt, Mir.Ovar i, Mir.Oconst (Mir.Ci 3))));
                 ins (Mir.Idef (nc, Mir.Runop (Mir.Unot, Mir.Ovar c)));
                 ins (Mir.Iif (Mir.Ovar nc, [ ins Mir.Icontinue ], [])) ];
             cond = Mir.Ovar c;
             body = [ add y (Mir.Ovar i); ins Mir.Ibreak ] });
      add y (Mir.Oconst (Mir.Cf 10.0)) ]
  in
  let f =
    { Mir.name = "handlers"; params = []; rets = [ y ]; vars = [ y; i; c; nc ];
      body =
        [ ins
            (Mir.Iloop
               { ivar = i; lo = Mir.Oconst (Mir.Ci 1); step = Mir.Oconst (Mir.Ci 1);
                 hi = Mir.Oconst (Mir.Ci 4); body }) ] }
  in
  Masc_mir.Verify.check f;
  let mode = Masc_asip.Cost_model.Proposed in
  let t = outcome (fun () -> I.run_tree ~isa:T.scalar ~mode f []) in
  let p = outcome (fun () -> I.run ~isa:T.scalar ~mode f []) in
  Alcotest.(check bool) "plan matches tree-walker" true (same_outcome t p);
  match p with
  | `Done (_, _, _, _, [ I.Xscalar s ]) ->
    Alcotest.(check (float 0.0)) "y" 23.0 (V.to_float s)
  | _ -> Alcotest.fail "expected one scalar result"

(* --- fused operand shapes: hand-built MIR through both engines --- *)

(* One hand-built function per case, run through the plan and the
   tree-walker: the outcomes must agree, failure messages included, and
   the plan must trap like the tree-walker at every step of the run. *)
let check_case (tag, (f : Mir.func), inputs) =
  let isa = T.dsp8 and mode = Masc_asip.Cost_model.Proposed in
  let t = outcome (fun () -> I.run_tree ~isa ~mode f inputs) in
  let p = outcome (fun () -> I.run ~isa ~mode f inputs) in
  if not (same_outcome t p) then
    Alcotest.failf "%s: plan and tree-walker differ" tag;
  check_every_step (tag, f, isa, mode, inputs);
  p

let mvar name vid sty = { Mir.vname = name; vid; vty = Mir.Tscalar sty }
let func name params rets vars body =
  { Mir.name; params; rets; vars; body = List.map Mir.instr body }

(* Register-indexed scalar and vector loads and stores on f64, int and
   complex banks, at every index from -1 to the length. *)
let test_fused_memory () =
  let n = 4 and lanes = 2 in
  let banks =
    [ ("f64", Mir.double_sty, I.xarray_of_floats [| 1.5; -2.5; 3.25; 4.0 |]);
      ( "int", Mir.int_sty,
        I.Xarray (Array.map (fun i -> V.Si i) [| 7; -8; max_int; 10 |]) );
      ( "complex", Mir.complex_sty,
        I.Xarray
          (Array.map
             (fun (re, im) -> V.Sc { Complex.re; im })
             [| (1.0, 0.0); (2.0, -1.0); (0.5, 0.0); (-3.0, 4.0) |]) ) ]
  in
  let vec = { Mir.double_sty with Mir.lanes } in
  List.iter
    (fun (bname, sty, arr_in) ->
      let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (sty, n) } in
      let ix = mvar "ix" 1 Mir.int_sty in
      let x = mvar "x" 2 sty and xi = mvar "xi" 3 Mir.int_sty in
      let xf = mvar "xf" 4 Mir.double_sty in
      let y = mvar "y" 5 sty and v = mvar "v" 6 vec in
      let out =
        { Mir.vname = "o"; vid = 7; vty = Mir.Tarray (Mir.double_sty, lanes) }
      in
      let params = [ arr; ix; x; xi; xf ] in
      let vars = params @ [ y; v; out ] in
      let x_in =
        match bname with
        | "f64" -> V.Sf (-0.75)
        | "int" -> V.Si min_int
        | _ -> V.Sc { Complex.re = 6.0; im = -7.0 }
      in
      let shapes =
        [ ("load", [ y ], [ Mir.Idef (y, Mir.Rload (arr, Mir.Ovar ix)) ]);
          ("store", [ arr ], [ Mir.Istore (arr, Mir.Ovar ix, Mir.Ovar x) ]);
          ( "store int", [ arr ],
            [ Mir.Istore (arr, Mir.Ovar ix, Mir.Ovar xi) ] );
          ( "vload", [ out ],
            [ Mir.Idef (v, Mir.Rvload (arr, Mir.Ovar ix, lanes));
              Mir.Ivstore (out, Mir.Oconst (Mir.Ci 0), Mir.Ovar v, lanes) ] );
          ( "vstore", [ arr ],
            [ Mir.Idef (v, Mir.Rvbroadcast (Mir.Ovar xf, lanes));
              Mir.Ivstore (arr, Mir.Ovar ix, Mir.Ovar v, lanes) ] ) ]
      in
      List.iter
        (fun (sname, rets, body) ->
          let f = func "mem" params rets vars body in
          for i = -1 to n do
            let tag = Printf.sprintf "%s %s [%d]" bname sname i in
            ignore
              (check_case
                 ( tag, f,
                   [ arr_in; I.Xscalar (V.Si i); I.Xscalar x_in;
                     I.Xscalar (V.Si (-9)); I.Xscalar (V.Sf 2.5) ] ))
          done)
        shapes)
    banks;
  (* the failures are the tree-walker's, word for word *)
  let arr =
    { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, n) }
  in
  let ix = mvar "ix" 1 Mir.int_sty and y = mvar "y" 2 Mir.double_sty in
  let f =
    func "mem" [ arr; ix ] [ y ] [ arr; ix; y ]
      [ Mir.Idef (y, Mir.Rload (arr, Mir.Ovar ix)) ]
  in
  let a = I.xarray_of_floats [| 1.; 2.; 3.; 4. |] in
  match check_case ("f64 load [4]", f, [ a; I.Xscalar (V.Si 4) ]) with
  | `Error msg ->
    Alcotest.(check string) "message" "a index 4 out of bounds [0, 4)" msg
  | _ -> Alcotest.fail "expected an out-of-bounds error"

(* Vector defs at the register's width: broadcasts of int and bool
   registers, SIMD add/mac and a register move on unboxed lanes. Then
   the same ops reading boxed escape values (a never-written register's
   scalar zero, a vector narrower than its register), which send them
   down the generic path. *)
let test_fused_vector () =
  let n = 8 in
  let vec = { Mir.double_sty with Mir.lanes = n } in
  let xi = mvar "xi" 0 Mir.int_sty and b = mvar "b" 1 Mir.bool_sty in
  let out =
    { Mir.vname = "o"; vid = 2; vty = Mir.Tarray (Mir.double_sty, (2 * n) + 4) }
  in
  let v k = mvar "v" (10 + k) vec in
  let ov k = Mir.Ovar (v k) in
  let intrin name args = Mir.Rintrin (name, args) in
  let f =
    func "vec" [ xi; b ] [ out ]
      ([ xi; b; out ] @ List.init 10 v)
      [ Mir.Idef (v 1, Mir.Rvbroadcast (Mir.Ovar xi, n));
        Mir.Idef (v 2, Mir.Rvbroadcast (Mir.Ovar b, n));
        Mir.Idef (v 3, intrin "vadd_f64x8" [ ov 1; ov 2 ]);
        Mir.Idef (v 4, intrin "vmac_f64x8" [ ov 3; ov 1; ov 2 ]);
        Mir.Idef (v 5, Mir.Rmove (ov 4));
        Mir.Idef (v 6, intrin "vmul_f64x8" [ ov 0; ov 5 ]);
        Mir.Idef (v 8, Mir.Rvbroadcast (Mir.Ovar xi, 4));
        Mir.Idef (v 7, Mir.Rmove (ov 8));
        Mir.Idef (v 9, intrin "vmac_f64x8" [ ov 7; ov 7; ov 7 ]);
        Mir.Ivstore (out, Mir.Oconst (Mir.Ci 0), ov 5, n);
        Mir.Ivstore (out, Mir.Oconst (Mir.Ci n), ov 6, n);
        Mir.Ivstore (out, Mir.Oconst (Mir.Ci (2 * n)), ov 9, 4) ]
  in
  List.iter
    (fun (x, bv) ->
      let tag = Printf.sprintf "vector %d %b" x bv in
      let args = [ I.Xscalar (V.Si x); I.Xscalar (V.Sb bv) ] in
      match check_case (tag, f, args) with
      | `Done (_, _, _, _, [ I.Xarray o ]) ->
        let fb = if bv then 1.0 else 0.0 and fx = float_of_int x in
        Alcotest.(check (float 0.0)) (tag ^ " mac lane")
          (fx +. fb +. (fx *. fb)) (V.to_float o.(0));
        Alcotest.(check (float 0.0)) (tag ^ " narrow mac lane")
          (fx +. (fx *. fx)) (V.to_float o.(2 * n))
      | _ -> Alcotest.failf "%s: expected a finished run" tag)
    [ (3, true); (-2, false) ]

(* Int add/sub/mul/min/max wrap at the machine width in both engines,
   with int-register, pooled-constant and bool operands. *)
let test_fused_int_arith () =
  let x = mvar "x" 0 Mir.int_sty and y = mvar "y" 1 Mir.int_sty in
  let b = mvar "b" 2 Mir.bool_sty in
  let ops =
    [ Mir.Badd; Mir.Bsub; Mir.Bmul; Mir.Bmin; Mir.Bmax ]
  in
  let operands =
    [ (Mir.Ovar x, Mir.Ovar y); (Mir.Ovar x, Mir.Oconst (Mir.Ci 1));
      (Mir.Ovar b, Mir.Ovar x); (Mir.Ovar y, Mir.Ovar b);
      (Mir.Ovar b, Mir.Ovar b) ]
  in
  let defs =
    List.concat_map
      (fun op -> List.map (fun (l, r) -> Mir.Rbin (op, l, r)) operands)
      ops
    @ [ Mir.Rmove (Mir.Ovar x) ]
  in
  let rs = List.mapi (fun i _ -> mvar "r" (10 + i) Mir.int_sty) defs in
  let f =
    func "arith" [ x; y; b ] rs ([ x; y; b ] @ rs)
      (List.map2 (fun r rv -> Mir.Idef (r, rv)) rs defs)
  in
  List.iter
    (fun (xv, yv, bv) ->
      let tag = Printf.sprintf "int arith %d %d %b" xv yv bv in
      match
        check_case
          ( tag, f,
            [ I.Xscalar (V.Si xv); I.Xscalar (V.Si yv); I.Xscalar (V.Sb bv) ] )
      with
      | `Done (_, _, _, _, I.Xscalar r0 :: _) ->
        Alcotest.(check int) (tag ^ " add wraps") (xv + yv) (V.to_int r0)
      | _ -> Alcotest.failf "%s: expected a finished run" tag)
    [ (max_int, 1, true); (max_int, max_int, false); (min_int, -1, true);
      (max_int - 1, min_int, true); (3, -5, false) ]

(* Int comparisons promote both operands to float, as [V.binop] does:
   2^53 and 2^53 + 1 compare equal. *)
let test_int_compare_promotes () =
  let x = mvar "x" 0 Mir.int_sty and y = mvar "y" 1 Mir.int_sty in
  let ops =
    [ (Mir.Blt, false); (Mir.Ble, true); (Mir.Beq, true); (Mir.Bne, false);
      (Mir.Bgt, false); (Mir.Bge, true) ]
  in
  let rs = List.mapi (fun i _ -> mvar "c" (10 + i) Mir.bool_sty) ops in
  let f =
    func "cmp" [ x; y ] rs ([ x; y ] @ rs)
      (List.map2
         (fun r (op, _) -> Mir.Idef (r, Mir.Rbin (op, Mir.Ovar x, Mir.Ovar y)))
         rs ops)
  in
  let big = 1 lsl 53 in
  match
    check_case
      ( "int compare above 2^53", f,
        [ I.Xscalar (V.Si big); I.Xscalar (V.Si (big + 1)) ] )
  with
  | `Done (_, _, _, _, rets) ->
    List.iter2
      (fun ret (_, expect) ->
        match ret with
        | I.Xscalar s ->
          Alcotest.(check bool) "float-promoted" expect (V.to_bool s)
        | I.Xarray _ -> Alcotest.fail "expected scalars")
      rets ops
  | _ -> Alcotest.fail "expected a finished run"

(* Histogram ties keep the tree-walker's order. The plan derives its
   histogram from charge-site counts and rebuilds it in first-charge
   order: sites in first-entry order, rows in charge order. Each case
   ties "branch", "loop", "alu" and "complex" at 4 cycles, with the
   first charges coming, in a different order per case, from a while
   test (after its condition block), an if, a loop lead and plain
   segments. "alu" and "complex" share a bucket of the 16-bucket
   histogram table, so their tie order follows first insertion; the
   cases cover both orders, from one site and from nested sites. *)
let test_histogram_tie_order () =
  let x = mvar "x" 0 Mir.double_sty and z = mvar "z" 1 Mir.complex_sty in
  let i = mvar "i" 2 Mir.int_sty in
  let ins = Mir.instr in
  let adds k =
    List.init k (fun _ ->
        ins
          (Mir.Idef
             (x, Mir.Rbin (Mir.Badd, Mir.Ovar x, Mir.Oconst (Mir.Cf 1.0)))))
  and cpx k =
    List.init k (fun _ ->
        ins (Mir.Idef (z, Mir.Rcomplex (Mir.Ovar x, Mir.Oconst (Mir.Cf 1.0)))))
  in
  let no = Mir.Oconst (Mir.Cb false) and yes = Mir.Oconst (Mir.Cb true) in
  let wh cond_block = [ ins (Mir.Iwhile { cond_block; cond = no; body = [] }) ]
  and ifb t = [ ins (Mir.Iif (yes, t, [])) ]
  and for2 body =
    [ ins
        (Mir.Iloop
           { ivar = i; lo = Mir.Oconst (Mir.Ci 1); step = Mir.Oconst (Mir.Ci 1);
             hi = Mir.Oconst (Mir.Ci 2); body }) ]
  in
  let cases =
    [ ("while, segment, lead", wh (cpx 4) @ adds 4 @ for2 []);
      ("segment, if, lead", adds 2 @ ifb (cpx 4) @ for2 (adds 1));
      ("lead then while", for2 (cpx 2 @ adds 2) @ wh []);
      ("lead then if", for2 (adds 2 @ cpx 2) @ ifb []);
      ("while, lead, segment", wh [] @ for2 (cpx 2) @ adds 4) ]
  in
  let orders =
    List.map
      (fun (tag, body) ->
        let f =
          { Mir.name = "ties"; params = []; rets = [ x; z ]; vars = [ x; z; i ];
            body }
        in
        Masc_mir.Verify.check f;
        let t =
          I.run_tree ~isa:T.dsp8 ~mode:Masc_asip.Cost_model.Proposed f []
        in
        Alcotest.(check (list (pair string int)))
          (tag ^ ": four classes tie")
          [ ("alu", 4); ("branch", 4); ("complex", 4); ("loop", 4) ]
          (List.sort compare t.I.histogram);
        (match check_case (tag, f, []) with
        | `Done (_, _, h, _, _) ->
          Alcotest.(check (list (pair string int)))
            (tag ^ ": plan histogram = tree-walker's") t.I.histogram h
        | _ -> Alcotest.failf "%s: expected a finished run" tag);
        List.map fst t.I.histogram)
      cases
  in
  Alcotest.(check bool) "the cases reach more than one tie order" true
    (List.length (List.sort_uniq compare orders) > 1)

(* A coder-style loop nest — int index arithmetic, f64 loads, mul/add,
   store — runs on fused closures that read the banks directly: it
   allocates nothing per repetition. *)
let test_scalar_allocation_free () =
  let src =
    String.concat "\n"
      [ "function c = idx(a, b, reps)"; "c = zeros(8, 8);";
        "for r = 1:reps";
        "  for j = 1:8"; "    for k = 1:8"; "      bkj = b(k, j);";
        "      for i = 1:8"; "        c(i, j) = c(i, j) + a(i, k) * bkj;";
        "      end"; "    end"; "  end"; "end"; "end" ]
  in
  let module MT = Masc_sema.Mtype in
  let c =
    Masc.Compiler.compile
      (Masc.Compiler.coder_baseline ~isa:T.scalar ())
      ~source:src ~entry:"idx"
      ~arg_types:
        [ MT.matrix MT.Double 8 8; MT.matrix MT.Double 8 8; MT.double ]
  in
  let p = Masc.Compiler.plan c in
  let a = I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:9 64) in
  let words reps =
    let args = [ a; a; I.Xscalar (V.Sf (float_of_int reps)) ] in
    ignore (Masc_vm.Plan.execute p args);
    let w0 = Gc.minor_words () in
    ignore (Masc_vm.Plan.execute p args);
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0))
    "minor words at 10 and 1000 repetitions" (words 10) (words 1000)

let plan_suites =
  [ ( "vm plan",
      [ Alcotest.test_case "hex and recycling formats" `Quick
          test_hex_and_recycling_formats;
        Alcotest.test_case "plan vs tree differential" `Slow
          test_plan_tree_differential;
        Alcotest.test_case "plan reuse" `Quick test_plan_reuse;
        Alcotest.test_case "trap at every step" `Slow test_trap_every_step;
        Alcotest.test_case "fault at every seed" `Slow test_fault_every_seed;
        Alcotest.test_case "armed deadline" `Quick test_armed_deadline;
        Alcotest.test_case "loop handlers" `Quick test_loop_handlers;
        Alcotest.test_case "histogram tie order" `Quick
          test_histogram_tie_order;
        Alcotest.test_case "simd allocation-free" `Quick
          test_simd_allocation_free;
        Alcotest.test_case "fused memory shapes" `Quick test_fused_memory;
        Alcotest.test_case "fused vector shapes" `Quick test_fused_vector;
        Alcotest.test_case "fused int arithmetic" `Quick test_fused_int_arith;
        Alcotest.test_case "int compare promotes to float" `Quick
          test_int_compare_promotes;
        Alcotest.test_case "scalar index loop allocation-free" `Quick
          test_scalar_allocation_free ] ) ]

let suites = base_suites @ extra_suites @ plan_suites
