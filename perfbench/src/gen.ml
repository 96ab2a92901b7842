(* Seeded workload generator. Everything a run compiles, simulates or
   submits is drawn here from the workload seed, so the same seed gives
   the same programs, sizes, inputs and request lists; the program under
   test receives only these generated inputs. *)

module K = Masc_kernels.Kernels
module I = Masc_vm.Interp
module MT = Masc_sema.Mtype
module C = Masc.Compiler
module Targets = Masc_asip.Targets

let rng seed stream = Random.State.make [| seed; stream |]

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* ---- programs ---- *)

(* A program with its reference: the outputs of every simulation are
   checked against [golden], never against the compiler's own output. *)
type program = {
  pname : string;
  kernel : string option;  (** which of the six kernels; [None] for chains *)
  source : string;
  entry : string;
  arg_types : MT.t list;
  inputs : int -> I.xvalue list;  (** seed -> simulator inputs *)
  golden : I.xvalue list -> I.xvalue list;
}

type shape =
  | Fir of int * int  (** samples, taps *)
  | Iir of int * int  (** samples, sections *)
  | Fft of int
  | Matmul of int
  | Xcorr of int * int  (** samples, lags *)
  | Fmdemod of int

let kernel_of_shape = function
  | Fir (n, m) -> K.fir ~n ~m ()
  | Iir (n, sections) -> K.iir ~n ~sections ()
  | Fft n -> K.fft ~n ()
  | Matmul n -> K.matmul ~n ()
  | Xcorr (n, m) -> K.xcorr ~n ~m ()
  | Fmdemod n -> K.fmdemod ~n ()

let shape_name = function
  | Fir (n, m) -> Printf.sprintf "fir-%dx%d" n m
  | Iir (n, s) -> Printf.sprintf "iir-%dx%d" n s
  | Fft n -> Printf.sprintf "fft-%d" n
  | Matmul n -> Printf.sprintf "matmul-%d" n
  | Xcorr (n, m) -> Printf.sprintf "xcorr-%dx%d" n m
  | Fmdemod n -> Printf.sprintf "fmdemod-%d" n

let floats a = I.xarray_of_floats a

let scaled k a = Array.map (fun v -> k *. v) a

(* Biquad coefficients with |a1|, |a2| <= 0.3: every section is stable,
   so long inputs stay finite. *)
let iir_coeffs seed s =
  [ floats (scaled 0.5 (K.randoms ~seed:(seed + 1) s));
    floats (scaled 0.5 (K.randoms ~seed:(seed + 2) s));
    floats (scaled 0.5 (K.randoms ~seed:(seed + 3) s));
    floats (scaled 0.3 (K.randoms ~seed:(seed + 4) s));
    floats (scaled 0.3 (K.randoms ~seed:(seed + 5) s)) ]

let shape_inputs shape seed =
  let r k n = K.randoms ~seed:(seed + k) n in
  match shape with
  | Fir (n, m) | Xcorr (n, m) -> [ floats (r 0 n); floats (r 1 m) ]
  | Iir (n, s) -> floats (r 0 n) :: iir_coeffs seed s
  | Fft n -> [ floats (r 0 n); floats (r 1 n) ]
  | Matmul n -> [ floats (r 0 (n * n)); floats (r 1 (n * n)) ]
  | Fmdemod n ->
    (* A unit-magnitude phasor with seeded phase increments. *)
    let acc = ref 0.0 in
    let zs =
      Array.map
        (fun dp ->
          acc := !acc +. (dp *. 0.5);
          (cos !acc, sin !acc))
        (r 0 n)
    in
    [ floats (Array.map fst zs); floats (Array.map snd zs) ]

let of_shape shape =
  let k = kernel_of_shape shape in
  { pname = shape_name shape; kernel = Some k.K.kname; source = k.K.source;
    entry = k.K.entry; arg_types = k.K.arg_types;
    inputs = shape_inputs shape; golden = k.K.golden }

(* The [mascc --args] spelling of a shape's entry signature, for batch
   request lines. *)
let shape_argspec shape =
  let row n = Printf.sprintf "double:%d" n in
  String.concat ","
    (match shape with
    | Fir (n, m) | Xcorr (n, m) -> [ row n; row m ]
    | Iir (n, s) -> row n :: List.init 5 (fun _ -> row s)
    | Fft n | Fmdemod n -> [ row n; row n ]
    | Matmul n ->
      let sq = Printf.sprintf "double:%dx%d" n n in
      [ sq; sq ])

(* ---- chain programs ---- *)

(* A chain feeds its input through 2-6 fir/xcorr/iir stages, each a
   helper function (the kernels' own sources), so IR size grows with
   the stage count. Its reference is the composition of the stages'
   goldens. *)
type stage = Sfir of int | Sxcorr of int | Siir of int

let stage_kernel len = function
  | Sfir m -> K.fir ~n:len ~m ()
  | Sxcorr m -> K.xcorr ~n:len ~m ()
  | Siir s -> K.iir ~n:len ~sections:s ()

let stage_arity = function Sfir _ | Sxcorr _ -> 1 | Siir _ -> 5

let stage_out_len len = function
  | Sfir m | Sxcorr m -> len - m + 1
  | Siir _ -> len

let stage_param_types = function
  | Sfir m | Sxcorr m -> [ MT.row_vector MT.Double m ]
  | Siir s -> List.init 5 (fun _ -> MT.row_vector MT.Double s)

let chain n stages =
  let name_of = function Sfir _ -> "fir" | Sxcorr _ -> "xcorr" | Siir _ -> "iir" in
  let nparams = List.fold_left (fun a s -> a + stage_arity s) 0 stages in
  let params = List.init nparams (fun i -> Printf.sprintf "p%d" (i + 1)) in
  let body = Buffer.create 256 in
  let last = List.length stages - 1 in
  let _ =
    List.fold_left
      (fun (i, input, next_param) st ->
        let k = stage_kernel 64 st in
        let args =
          input :: List.init (stage_arity st) (fun j ->
              Printf.sprintf "p%d" (next_param + j))
        in
        let out = if i = last then "y" else Printf.sprintf "t%d" (i + 1) in
        Buffer.add_string body
          (Printf.sprintf "%s = %s(%s);\n" out k.K.entry
             (String.concat ", " args));
        (i + 1, out, next_param + stage_arity st))
      (0, "x", 1) stages
  in
  (* Each stage kind's helper function, defined once. *)
  let helpers =
    List.map (fun st -> let k = stage_kernel 64 st in (k.K.entry, k.K.source))
      stages
    |> List.sort_uniq compare |> List.map snd
  in
  let source =
    Printf.sprintf "function y = chain(%s)\n%send\n%s"
      (String.concat ", " ("x" :: params))
      (Buffer.contents body) (String.concat "" helpers)
  in
  let arg_types =
    MT.row_vector MT.Double n :: List.concat_map stage_param_types stages
  in
  let inputs seed =
    floats (K.randoms ~seed n)
    :: List.concat
         (List.mapi
            (fun i st ->
              let seed = seed + (10 * (i + 1)) in
              match st with
              | Sfir m | Sxcorr m -> [ floats (K.randoms ~seed m) ]
              | Siir s -> iir_coeffs seed s)
            stages)
  in
  let golden args =
    match args with
    | [] -> invalid_arg "chain golden"
    | x :: rest ->
      let y, _, _ =
        List.fold_left
          (fun (x, len, rest) st ->
            let k = stage_kernel len st in
            let mine = List.filteri (fun i _ -> i < stage_arity st) rest in
            let rest = List.filteri (fun i _ -> i >= stage_arity st) rest in
            (List.hd (k.K.golden (x :: mine)), stage_out_len len st, rest))
          (x, n, rest) stages
      in
      [ y ]
  in
  { pname =
      Printf.sprintf "chain-%d:%s" n
        (String.concat "," (List.map name_of stages));
    kernel = None; source; entry = "chain"; arg_types; inputs; golden }

(* ---- the compile workload ---- *)

(* The paper-scale suite (the sizes of [Kernels.all]): the reference set
   for [speedup_geomean] on the compile workload. *)
let paper_shapes =
  [ Fir (1024, 32); Iir (1024, 4); Fft 256; Matmul 32; Xcorr (512, 64);
    Fmdemod 1024 ]

let random_shape st = function
  | `Fir -> Fir (between st 128 2048, pick st [ 8; 16; 32 ])
  | `Iir -> Iir (between st 128 2048, between st 2 6)
  | `Fft -> Fft (1 lsl between st 5 9)
  | `Matmul -> Matmul (between st 8 32)
  | `Xcorr -> Xcorr (between st 128 2048, pick st [ 16; 32 ])
  | `Fmdemod -> Fmdemod (between st 128 2048)

let random_chain st stages =
  let stages =
    List.init stages (fun _ ->
        match Random.State.int st 3 with
        | 0 -> Sfir (between st 4 16)
        | 1 -> Sxcorr (between st 4 16)
        | _ -> Siir (between st 2 4))
  in
  chain (between st 128 1024) stages

(* The six paper-scale kernels, four seeded-size variants of each and
   six seeded chains of each length from 2 to 6 stages. Every seed gets
   the same strata, so seeds differ in sizes and stage kinds, not in
   how much IR there is to compile. *)
let compile_programs seed =
  let st = rng seed 1 in
  let kinds = [ `Fir; `Iir; `Fft; `Matmul; `Xcorr; `Fmdemod ] in
  let variants =
    List.concat_map (fun k -> List.init 4 (fun _ -> random_shape st k)) kinds
  in
  let chains =
    List.concat_map
      (fun stages -> List.init 6 (fun _ -> random_chain st stages))
      [ 2; 3; 4; 5; 6 ]
  in
  Array.of_list (List.map of_shape (paper_shapes @ variants) @ chains)

(* Every built-in target under the proposed O2 flow, O1 without
   vectorization, and the coder baseline. *)
let compile_configs =
  Array.of_list
    (List.concat_map
       (fun isa ->
         let name flow = isa.Masc_asip.Isa.tname ^ "/" ^ flow in
         [ (name "O2", C.proposed ~isa ());
           ( name "O1-novec",
             { (C.proposed ~isa ()) with
               C.opt_level = Masc_opt.Pipeline.O1;
               vectorize = false } );
           (name "coder", C.coder_baseline ~isa ()) ])
       Targets.all)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* An endless seeded stream over [0, n) that visits every index once
   per round, in a fresh order each round: the operation mix is the
   same for every seed, only the order differs. *)
let rounds st n =
  let order = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos >= n then begin
      shuffle st order;
      pos := 0
    end;
    let i = order.(!pos) in
    incr pos;
    i

(* (program index, config index) draws. *)
let compile_ops seed ~programs ~configs =
  let next = rounds (rng seed 2) (programs * configs) in
  fun () ->
    let i = next () in
    (i / configs, i mod configs)

(* ---- the simulate workload ---- *)

let simulate_shapes =
  [ Fir (4096, 32); Iir (4096, 4); Fft 1024; Matmul 48; Xcorr (2048, 64);
    Fmdemod 4096 ]

let sim_targets = [ Targets.scalar; Targets.dsp4; Targets.dsp8; Targets.dsp16 ]

(* kernel x {scalar, dsp4, dsp8, dsp16} x {proposed, coder}. *)
let simulate_suite () =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun isa ->
          [ (of_shape shape, isa.Masc_asip.Isa.tname ^ "/proposed",
             C.proposed ~isa ());
            (of_shape shape, isa.Masc_asip.Isa.tname ^ "/coder",
             C.coder_baseline ~isa ()) ])
        sim_targets)
    simulate_shapes
  |> Array.of_list

(* (plan index, input seed) draws. *)
let simulate_ops seed ~plans =
  let st = rng seed 3 in
  let next = rounds st plans in
  fun () ->
    let i = next () in
    (i, Random.State.bits st)

(* ---- the batch workload ---- *)

let batch_shapes =
  [ Fir (256, 16); Iir (256, 2); Fft 64; Matmul 12; Xcorr (128, 16);
    Fmdemod 256 ]

type request = {
  r_shape : shape;
  r_run : bool;  (** [run] (compile + simulate) or [compile] *)
  r_target : Masc_asip.Isa.t;
  r_coder : bool;
  r_seed : int;  (** input seed passed as [seed=] *)
}

let request_line ~file r =
  Printf.sprintf "%s %s args=%s entry=%s seed=%d target=%s%s"
    (if r.r_run then "run" else "compile")
    file (shape_argspec r.r_shape)
    (kernel_of_shape r.r_shape).K.entry r.r_seed r.r_target.Masc_asip.Isa.tname
    (if r.r_coder then " coder" else "")

let request_config r =
  if r.r_coder then C.coder_baseline ~isa:r.r_target ()
  else C.proposed ~isa:r.r_target ()

(* The batch front end draws file inputs with [Request.random_inputs],
   which gives every argument an independent uniform stream; an iir
   seed is kept only when every section it draws is stable. *)
let stable_iir_seed st arg_types =
  let rec go () =
    let s = Random.State.bits st land 0xFFFFF in
    match Masc_svc.Request.random_inputs ~seed:s arg_types with
    | [ _; _; _; _; I.Xarray a1; I.Xarray a2 ] ->
      let f = Masc_vm.Value.to_float in
      let stable a1 a2 =
        Float.abs (f a2) < 0.9 && Float.abs (f a1) < 0.9 +. f a2
      in
      if Array.for_all2 stable a1 a2 then s else go ()
    | _ -> s
  in
  go ()

(* kernel x {scalar, dsp4, dsp8, dsp16} x {proposed, coder} x
   {run, compile}, each with its own seeded input. *)
let batch_catalog seed =
  let st = rng seed 4 in
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun r_target ->
          List.concat_map
            (fun r_coder ->
              List.map
                (fun r_run ->
                  let r_seed =
                    match shape with
                    | Iir _ ->
                      stable_iir_seed st (kernel_of_shape shape).K.arg_types
                    | _ -> Random.State.bits st land 0xFFFFF
                  in
                  { r_shape = shape; r_run; r_target; r_coder; r_seed })
                [ true; false ])
            [ false; true ])
        sim_targets)
    batch_shapes
  |> Array.of_list

(* Zipf(1) over the catalog: a few specs dominate, the tail still
   appears. The popularity order is fixed — rank r is catalog entry
   37r mod 96, which interleaves kernels, targets, flows and operations —
   so every seed sends the same traffic mix; the seed draws the arrival
   sequence and the inputs. *)
let batch_stream seed ~catalog ~per_epoch =
  let st = rng seed 5 in
  let n = Array.length catalog in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let draw () =
    let u = Random.State.float st !acc in
    let rec find r = if r >= n - 1 || u < cdf.(r) then r else find (r + 1) in
    37 * find 0 mod n
  in
  fun () -> List.init per_epoch (fun _ -> draw ())
