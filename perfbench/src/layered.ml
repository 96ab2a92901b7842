(* The compile pipeline called layer by layer, with a benchmark span
   around each call into a layer's public function. This is how the
   traced runs see per-layer time without any tracing inside the
   program. [drift] compares the result with [Compiler.compile], so the
   per-layer numbers always describe the production pipeline. *)

module C = Masc.Compiler
module P = Masc_opt.Pipeline
module Mir = Masc_mir.Mir

(* Per-call counts recorded beside the spans, as (sum, samples). *)
let tallies : (string, float * int) Hashtbl.t = Hashtbl.create 32

let note name v =
  if !Spans.enabled then
    let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tallies name) in
    Hashtbl.replace tallies name (s +. v, n + 1)

let tally name = Hashtbl.find_opt tallies name

let rec count_instrs (b : Mir.block) =
  List.fold_left
    (fun acc (i : Mir.instr) ->
      acc + 1
      +
      match i.Mir.idesc with
      | Mir.Iif (_, t, e) -> count_instrs t + count_instrs e
      | Mir.Iloop l -> count_instrs l.Mir.body
      | Mir.Iwhile { cond_block; body; _ } ->
        count_instrs cond_block + count_instrs body
      | _ -> 0)
    0 b

(* The post-vectorize cleanup schedule of [Compiler.compile_with]. *)
let cleanup_passes =
  [ ("const-fold", Masc_opt.Const_fold.run);
    ("copy-prop", Masc_opt.Copy_prop.run); ("cse", Masc_opt.Cse.run);
    ("licm", Masc_opt.Licm.run); ("dce", Masc_opt.Dce.run) ]

(* Pass wrappers keep their names, so [Pipeline.run_fixpoint] schedules
   them exactly as it schedules the bare passes; a pass changed the
   function iff it returned a different root. *)
let wrap passes =
  List.map
    (fun (name, pass) ->
      ( name,
        fun f ->
          let f' = Spans.span ("opt.pass." ^ name) (fun () -> pass f) in
          note ("opt.pass." ^ name ^ ".changed") (if f' != f then 1.0 else 0.0);
          f' ))
    passes

let fixpoint passes mir =
  let mir, stats = P.run_fixpoint (wrap passes) mir in
  List.iter
    (fun (s : P.pass_stat) ->
      note "opt.pass_visits" (float_of_int (s.P.runs + s.P.skipped));
      note "opt.pass_skipped" (float_of_int s.P.skipped))
    stats;
  mir

(* Token counts per source, for the parser's throughput. *)
let token_counts : (string, int) Hashtbl.t = Hashtbl.create 64

let tokens source =
  match Hashtbl.find_opt token_counts source with
  | Some n -> n
  | None ->
    let n = List.length (Masc_frontend.Lexer.tokenize source) in
    Hashtbl.add token_counts source n;
    n

type result = { mir : Mir.func; c : string; plan : Masc_vm.Plan.t }

(* parse -> infer -> lower -> wrapped passes -> vectorize -> complex-sel
   -> cleanup -> verify -> emit -> plan. *)
let compile (config : C.config) ~source ~entry ~arg_types =
  let span = Spans.span in
  let isa = config.C.isa and mode = config.C.mode in
  if !Spans.enabled then note "frontend.parse.tokens" (float_of_int (tokens source));
  let ast =
    span "frontend.parse" (fun () -> Masc_frontend.Parser.parse_program source)
  in
  let typed =
    span "sema.infer" (fun () ->
        Masc_sema.Infer.infer_program ast ~entry ~arg_types)
  in
  let mir = span "mir.lower" (fun () -> Masc_mir.Lower.lower_program typed) in
  note "mir.lower.instrs" (float_of_int (count_instrs mir.Mir.body));
  let mir =
    span "opt.optimize" (fun () -> fixpoint (P.passes config.C.opt_level) mir)
  in
  note "opt.instrs" (float_of_int (count_instrs mir.Mir.body));
  let mir =
    if config.C.vectorize then begin
      let mir, s =
        span "vectorize.vectorizer" (fun () ->
            Masc_vectorize.Vectorizer.run isa mir)
      in
      note "vectorize.loops"
        (float_of_int
           (s.Masc_vectorize.Vectorizer.map_loops + s.reduction_loops));
      mir
    end
    else mir
  in
  let mir =
    if config.C.select_complex then begin
      let mir, s =
        span "vectorize.complex_sel" (fun () ->
            Masc_vectorize.Complex_sel.run isa mir)
      in
      note "vectorize.cplx_ops"
        (float_of_int
           (s.Masc_vectorize.Complex_sel.cmul + s.cmac + s.cadd));
      mir
    end
    else mir
  in
  let mir =
    if config.C.opt_level = P.O0 then mir
    else span "opt.cleanup" (fun () -> fixpoint cleanup_passes mir)
  in
  span "mir.verify" (fun () -> Masc_mir.Verify.check mir);
  let c = span "codegen.emit" (fun () -> Masc_codegen.Emit.program ~isa ~mode mir) in
  note "codegen.c_bytes" (float_of_int (String.length c));
  let plan = span "vm.plan_compile" (fun () -> Masc_vm.Plan.compile ~isa ~mode mir) in
  { mir; c; plan }

(* [None] when the layer-by-layer composition reproduces the final MIR
   and C text of [Compiler.compile]; else which one drifted. Runs with
   spans off, so the check never pollutes the per-layer numbers. *)
let drift (config : C.config) ~source ~entry ~arg_types =
  let saved = !Spans.enabled in
  Spans.enabled := false;
  Fun.protect
    ~finally:(fun () -> Spans.enabled := saved)
    (fun () ->
      let prod = C.compile config ~source ~entry ~arg_types in
      let mine = compile config ~source ~entry ~arg_types in
      let text = Masc_mir.Mir_pp.func_to_string in
      if text prod.C.mir <> text mine.mir then Some "final MIR differs"
      else if C.c_source prod <> mine.c then Some "C text differs"
      else None)
