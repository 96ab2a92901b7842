(* Closure-threaded execution plans over typed unboxed storage.

   [compile] walks a MIR function ONCE and produces a program of OCaml
   closures ([state -> unit]). PR 1 paid the control-flow
   interpretation tax at plan time (slot-resolved variables, memoized
   static costs, pre-resolved intrinsics); this revision removes the
   data-representation tax as well: every variable's static
   [Mir.scalar_ty] selects a monomorphic unboxed bank at plan time —

   - real-double scalars live in a flat [float array] register bank,
     ints in [int array], bools in [bool array], complex scalars as
     re/im pairs in a [float array];
   - real-double vector registers get a per-register [float array]
     lane buffer (with a boxed escape slot for the rare value whose
     runtime shape defies the declared type);
   - arrays are typed banks chosen by element type, complex ones
     interleaved re/im;
   - operands are resolved at plan time to a bank and an index
     ([oper]), and the common definition shapes are operand-resolved:
     int index arithmetic, real and complex arithmetic, loads, stores,
     and the dsp SIMD loads, broadcasts and lane ops each compile to ONE
     closure that reads its operands straight from the banks through
     inlined readers ([rd_f], [rd_i], [index]), computes, charges and
     writes — no reader closure, no boxed float, no allocation.
     Everything else goes through type-specialized producers ([prod]),
     built only for those fallback shapes.

   A conservative demotion pass keeps this sound against adversarial
   MIR: any scalar variable that could dynamically receive a vector
   value (the verifier does not constrain def-target lanes), and any
   loop induction variable whose runtime representation is not
   statically forced (the tree-walker writes induction values RAW,
   without coercion to the declared type), falls back to a boxed
   [Value.t] register. Boxed values appear only there and at the
   argument/return boundary (see Store).

   Charges are static too, so they are applied per straight-line
   segment rather than per instruction: one test at segment entry
   decides whether any trap, injected fault or deadline check can fall
   inside the segment, and only then does it run charging instruction
   by instruction ([enter], DESIGN.md "Simulator architecture"). What a
   charge is booked to (class, source line, intrinsic) is static as
   well, so a run keeps one ledger — how often each charge site was
   entered — and the class histogram and the source profile are derived
   from it when the run returns.

   Execution is bit-identical to the legacy tree-walker
   ({!Interp.run_tree}): same results, cycles, dynamic instruction
   counts, output, error messages, and even the same histogram ordering
   (the class histogram is rebuilt through a [Hashtbl] populated in the
   tree-walker's first-charge order, so fold order matches). The
   differential test in [test/test_vm.ml] enforces this over every
   kernel, target and mode. *)

module Mir = Masc_mir.Mir
module Isa = Masc_asip.Isa
module Cost = Masc_asip.Cost_model
module MT = Masc_sema.Mtype
module V = Value
open Exec

(* ---------------- runtime state ---------------- *)

type state = {
  fregs : float array;  (* real-double scalar registers *)
  iregs : int array;  (* int scalar registers *)
  bregs : bool array;  (* bool scalar registers *)
  cregs : float array;  (* complex scalar registers, re/im interleaved *)
  vbufs : float array array;  (* vector registers: unboxed lane buffers *)
  vboxs : Value.t option array;  (* Some v: boxed escape overrides vbufs *)
  gregs : Value.t array;  (* demoted registers: boxed, fully general *)
  farrs : float array array;  (* real-double arrays *)
  iarrs : int array array;  (* int arrays *)
  barrs : bool array array;  (* bool arrays *)
  carrs : float array array;  (* complex arrays, re/im interleaved *)
  mutable cycles : int;
  mutable dyn : int;
  max_cycles : int;
  fuel : int;
  floc : string;  (* simulated function name, for trap reports *)
  counts : int array;  (* entries per charge site: the one charge ledger *)
  firsts : int array;  (* entered sites, in first-entry order *)
  mutable nfirst : int;
  out : Buffer.t;
  guard_on : bool;  (* deadline armed at entry, pre-decided *)
  fault_step : int;  (* dyn index where an injected sim.step fault fires; -1 = never *)
  fault_occ : int;  (* the draw's occurrence index, for the report *)
  base_event : int;  (* last dyn index no fuel trap or fault can reach *)
  mutable next_event : int;
      (* [base_event], lowered to the step before the next deadline
         check while a deadline is armed: a segment whose charges stay
         at or below it cannot reach any per-step event *)
  mutable exact : bool;  (* straight-line closures charge per instruction *)
}

(* One charge: the step's cycles and the per-step events. Which class,
   line and intrinsic it belongs to is static — its row in a charge
   site's table — so the class histogram and the profile are derived
   from the site counts when the run ends, not booked here. *)
let charge st cycles =
  st.cycles <- st.cycles + cycles;
  st.dyn <- st.dyn + 1;
  (* Cooperative cancellation rides the fuel accounting: when a request
     deadline is armed, test it every guard_mask+1 steps. Off (the
     default) this costs one bool load per instruction. *)
  if st.guard_on && st.dyn land Exec.guard_mask = 0 then begin
    Masc_fault.Cancel.check ();
    st.next_event <- min st.base_event (st.dyn + Exec.guard_mask)
  end;
  if st.dyn = st.fault_step then
    raise
      (Masc_fault.Fault.injected ~site:"sim.step" ~occurrence:st.fault_occ ());
  if st.dyn > st.fuel then
    Exec.raise_trap
      ~kind:(Exec.Fuel_exhausted { fuel = st.fuel })
      ~loc:st.floc ~steps_executed:st.dyn;
  if st.cycles > st.max_cycles then
    Exec.raise_trap
      ~kind:(Exec.Cycle_limit { max_cycles = st.max_cycles })
      ~loc:st.floc ~steps_executed:st.dyn

(* The charge of a straight-line instruction. Its segment normally
   charges for it in bulk on entry ([enter]); only a segment run in
   exact mode charges here, at the instruction's own step. *)
let[@inline] echarge st cycles = if st.exact then charge st cycles

(* ---------------- charge sites ----------------

   A charge site is a straight-line segment or a control charge point
   (an if's branch, a while's test, a for loop's exit branch). Each has
   a static row per charge, in charge order; a run only counts how
   often each site is entered. Sites run to completion once entered
   (nothing inside one transfers control), so a finished run's class
   histogram, first-charge class order and profile all follow from the
   counts, the first-entry order and the rows. *)
type row = {
  line : int;  (* source line; 0 = synthetic *)
  cls : int;  (* interned class id *)
  intrin : string option;  (* intrinsic the charge executes *)
  cyc : int;
}

let[@inline] count st site =
  let k = Array.unsafe_get st.counts site in
  if k = 0 then begin
    Array.unsafe_set st.firsts st.nfirst site;
    st.nfirst <- st.nfirst + 1
  end;
  Array.unsafe_set st.counts site (k + 1)

(* A control charge point: one charge, counted at its site. *)
let[@inline] charge_at st site cycles =
  count st site;
  charge st cycles

(* A straight-line segment: a maximal run of charge-once instructions
   (defs, stores, prints, comments), optionally led by a for loop's
   per-iteration charge. Its [n] charges and [c] cycles are fixed at
   plan time. Costs are non-negative (the ISA parser rejects negative
   ones), so a segment's running cycle total peaks at its end. *)
type seg = {
  site : int;
  n : int;
  c : int;
  lead : int;  (* cost of the loop charge leading the segment; -1 = none *)
}

(* Segment entry. The fast path applies the whole segment's charges at
   once when no trap, injected fault or deadline check can fall inside
   it; otherwise the segment runs in exact mode, every instruction
   charging at its own step, so traps report the same step, location
   and kind as per-instruction charging would. The caller clears
   [st.exact] once the segment's closures have run. *)
let enter st sg =
  count st sg.site;
  if st.dyn + sg.n <= st.next_event && st.cycles + sg.c <= st.max_cycles
  then begin
    st.cycles <- st.cycles + sg.c;
    st.dyn <- st.dyn + sg.n
  end
  else begin
    st.exact <- true;
    if sg.lead >= 0 then charge st sg.lead
  end

(* ---------------- slots and plan-time environment ---------------- *)

type rslot =
  | Rf of int  (* fregs *)
  | Ri of int  (* iregs *)
  | Rb of int  (* bregs *)
  | Rc of int  (* cregs pair at 2s / 2s+1 *)
  | Rv of int * int  (* vbufs/vboxs slot, declared lanes *)
  | Rg of int  (* gregs: boxed *)

type abank = AKf | AKi | AKb | AKc

type aslot = { bank : abank; aidx : int; alen : int }
type slot = Sreg of rslot | Sarr of aslot

type env = {
  isa : Isa.t;
  mode : Cost.mode;
  slots : (int, slot) Hashtbl.t;  (* vid -> slot *)
  cls_ids : (string, int) Hashtbl.t;
  mutable cls_rev : string list;  (* reversed interned class names *)
  mutable ncls : int;
  mutable sites_rev : row array list;  (* row tables, newest site first *)
  mutable nsites : int;
  (* Register banks are extended past the variable slots with pooled
     constants (so every typed operand is a bank index and reads
     compile to raw array loads) and with shadow slots (private loop
     counters). [nfx]/[nix]/[nbx]/[ncx] are the next free indices;
     [*init] records the constant initializers for [execute]. *)
  mutable nfx : int;
  mutable nix : int;
  mutable nbx : int;
  mutable ncx : int;  (* in re/im pairs *)
  fdedup : (int64, int) Hashtbl.t;  (* keyed by bits: keep -0.0, NaN *)
  idedup : (int, int) Hashtbl.t;
  bdedup : (bool, int) Hashtbl.t;
  cdedup : (int64 * int64, int) Hashtbl.t;
  mutable finit : (int * float) list;
  mutable iinit : (int * int) list;
  mutable binit : (int * bool) list;
  mutable cinit : (int * Complex.t) list;
}

let fconst env f =
  let key = Int64.bits_of_float f in
  match Hashtbl.find_opt env.fdedup key with
  | Some i -> i
  | None ->
    let i = env.nfx in
    env.nfx <- i + 1;
    Hashtbl.add env.fdedup key i;
    env.finit <- (i, f) :: env.finit;
    i

let iconst env n =
  match Hashtbl.find_opt env.idedup n with
  | Some i -> i
  | None ->
    let i = env.nix in
    env.nix <- i + 1;
    Hashtbl.add env.idedup n i;
    env.iinit <- (i, n) :: env.iinit;
    i

let bconst env b =
  match Hashtbl.find_opt env.bdedup b with
  | Some i -> i
  | None ->
    let i = env.nbx in
    env.nbx <- i + 1;
    Hashtbl.add env.bdedup b i;
    env.binit <- (i, b) :: env.binit;
    i

let cconst env (z : Complex.t) =
  let key = (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im)
  in
  match Hashtbl.find_opt env.cdedup key with
  | Some i -> i
  | None ->
    let i = env.ncx in
    env.ncx <- i + 1;
    Hashtbl.add env.cdedup key i;
    env.cinit <- (i, z) :: env.cinit;
    i

(* A private fregs slot, used as an unboxed float loop counter. *)
let fshadow env =
  let i = env.nfx in
  env.nfx <- i + 1;
  i

let slot_of env (v : Mir.var) =
  match Hashtbl.find_opt env.slots v.Mir.vid with
  | Some s -> s
  | None -> assert false (* the numbering pre-pass visited every var *)

let class_id env name =
  match Hashtbl.find_opt env.cls_ids name with
  | Some i -> i
  | None ->
    let i = env.ncls in
    Hashtbl.add env.cls_ids name i;
    env.cls_rev <- name :: env.cls_rev;
    env.ncls <- i + 1;
    i

let new_site env rows =
  let i = env.nsites in
  env.nsites <- i + 1;
  env.sites_rev <- rows :: env.sites_rev;
  i

(* ---------------- operand readers ---------------- *)

(* A compiled operand: its static runtime representation plus the bank
   index to read it from. The constructor IS the type — [Of] operands
   always read [Sf]-represented values from [st.fregs], so conversions
   compile to raw float-array loads (constants included, via the pool).
   Keeping indices rather than reader closures matters: a closure of
   type [state -> float] boxes its result on every call (no flambda),
   while an [Array.unsafe_get] on a float array inlined into the
   consuming closure stays unboxed. *)
type oper =
  | Of of int  (* st.fregs index *)
  | Oi of int  (* st.iregs index *)
  | Ob of int  (* st.bregs index *)
  | Oc of int  (* st.cregs pair index: re at 2i, im at 2i+1 *)
  | Ov of int * int  (* vector register slot, declared lanes *)
  | Og of (state -> Value.t)  (* boxed: demoted regs, array-as-reg errors *)

(* Boxed views of a vector register. *)
let vreg_value st s =
  match Array.unsafe_get st.vboxs s with
  | Some v -> v
  | None ->
    Value.Vector (Array.map (fun f -> V.Sf f) (Array.unsafe_get st.vbufs s))

let vreg_scalar st s =
  match Array.unsafe_get st.vboxs s with
  | Some (Value.Scalar x) -> x
  | Some (Value.Vector _) | None ->
    fail "vector value used where a scalar was expected"

let oper_of env (op : Mir.operand) : oper =
  match op with
  | Mir.Oconst (Mir.Cf f) -> Of (fconst env f)
  | Mir.Oconst (Mir.Ci i) -> Oi (iconst env i)
  | Mir.Oconst (Mir.Cb b) -> Ob (bconst env b)
  | Mir.Oconst (Mir.Cc z) -> Oc (cconst env z)
  | Mir.Ovar v -> (
    match slot_of env v with
    | Sreg (Rf s) -> Of s
    | Sreg (Ri s) -> Oi s
    | Sreg (Rb s) -> Ob s
    | Sreg (Rc s) -> Oc s
    | Sreg (Rv (s, l)) -> Ov (s, l)
    | Sreg (Rg s) -> Og (fun st -> Array.unsafe_get st.gregs s)
    | Sarr _ ->
      let msg =
        Printf.sprintf "variable %s.%d used as a register" v.Mir.vname
          v.Mir.vid
      in
      Og (fun _ -> raise (Runtime_error msg)))

let typed_scalar = function
  | Of _ | Oi _ | Ob _ | Oc _ -> true
  | Ov _ | Og _ -> false

let int_like = function Oi _ | Ob _ -> true | Of _ | Oc _ | Ov _ | Og _ -> false
let is_oc = function Oc _ -> true | _ -> false

(* Operand-resolved reads. A fused closure keeps a real scalar operand
   as a (tag, bank index) pair and reads it through [rd_f]/[rd_i].
   ocamlopt inlines these even without flambda, so each read is a tag
   test and a raw array load: no call, and no boxed float, where a
   [state -> float] reader closure would cost both. *)
let reg_tag = function
  | Of i -> Some (0, i)
  | Oi i -> Some (1, i)
  | Ob i -> Some (2, i)
  | Oc _ | Ov _ | Og _ -> None

let[@inline] rd_f st tag i =
  match tag with
  | 0 -> Array.unsafe_get st.fregs i
  | 1 -> float_of_int (Array.unsafe_get st.iregs i)
  | _ -> if Array.unsafe_get st.bregs i then 1.0 else 0.0

(* Int-like tags only (1 and 2). *)
let[@inline] rd_i st tag i =
  if tag = 1 then Array.unsafe_get st.iregs i
  else if Array.unsafe_get st.bregs i then 1
  else 0

(* The tail of every fused definition: charge, then write. The value is
   computed by the caller, before the charge, so an evaluation failure
   raises first, as in the tree-walker. *)
let[@inline] set_f st cost d x =
  echarge st cost;
  Array.unsafe_set st.fregs d x

let[@inline] set_i st cost d x =
  echarge st cost;
  Array.unsafe_set st.iregs d x

let[@inline] set_b st cost d x =
  echarge st cost;
  Array.unsafe_set st.bregs d x

let[@inline] set_c st cost d re im =
  echarge st cost;
  Array.unsafe_set st.cregs (2 * d) re;
  Array.unsafe_set st.cregs ((2 * d) + 1) im

(* Typed conversions mirroring [V.to_float]/[to_int]/[to_bool]/
   [to_complex] exactly, including exception messages. *)
let f_read (o : oper) : state -> float =
  match o with
  | Of i -> fun st -> Array.unsafe_get st.fregs i
  | Oi i -> fun st -> float_of_int (Array.unsafe_get st.iregs i)
  | Ob i -> fun st -> if Array.unsafe_get st.bregs i then 1.0 else 0.0
  | Oc s ->
    fun st ->
      if Array.unsafe_get st.cregs ((2 * s) + 1) = 0.0 then
        Array.unsafe_get st.cregs (2 * s)
      else invalid_arg "Value.to_float: complex with non-zero imaginary part"
  | Ov (s, _) -> fun st -> V.to_float (vreg_scalar st s)
  | Og f -> fun st -> V.to_float (scalar_of_value (f st))

let i_read (o : oper) : state -> int =
  match o with
  | Oi i -> fun st -> Array.unsafe_get st.iregs i
  | Of i ->
    fun st -> int_of_float (Float.round (Array.unsafe_get st.fregs i))
  | Ob i -> fun st -> if Array.unsafe_get st.bregs i then 1 else 0
  | Oc _ -> fun _ -> invalid_arg "Value.to_int: complex"
  | Ov (s, _) -> fun st -> V.to_int (vreg_scalar st s)
  | Og f -> fun st -> V.to_int (scalar_of_value (f st))

(* [V.coerce] into an Int slot: same as [i_read] except for the
   complex error message (see Store.coerce_int_exn). *)
let ci_read (o : oper) : state -> int =
  match o with
  | Oc _ -> fun _ -> invalid_arg "Value.coerce: complex into int"
  | Ov (s, _) -> fun st -> Store.coerce_int_exn (vreg_scalar st s)
  | Og f -> fun st -> Store.coerce_int_exn (scalar_of_value (f st))
  | o -> i_read o

let b_read (o : oper) : state -> bool =
  match o with
  | Ob i -> fun st -> Array.unsafe_get st.bregs i
  | Oi i -> fun st -> Array.unsafe_get st.iregs i <> 0
  | Of i -> fun st -> Array.unsafe_get st.fregs i <> 0.0
  | Oc s ->
    fun st ->
      Complex.norm
        { Complex.re = Array.unsafe_get st.cregs (2 * s);
          im = Array.unsafe_get st.cregs ((2 * s) + 1) }
      <> 0.0
  | Ov (s, _) -> fun st -> V.to_bool (vreg_scalar st s)
  | Og f -> fun st -> V.to_bool (scalar_of_value (f st))

let c_read (o : oper) : state -> Complex.t =
  match o with
  | Oc s ->
    fun st ->
      { Complex.re = Array.unsafe_get st.cregs (2 * s);
        im = Array.unsafe_get st.cregs ((2 * s) + 1) }
  | Of i -> fun st -> { Complex.re = Array.unsafe_get st.fregs i; im = 0.0 }
  | Oi i ->
    fun st ->
      { Complex.re = float_of_int (Array.unsafe_get st.iregs i); im = 0.0 }
  | Ob i ->
    fun st ->
      { Complex.re = (if Array.unsafe_get st.bregs i then 1.0 else 0.0);
        im = 0.0 }
  | Ov (s, _) -> fun st -> V.to_complex (vreg_scalar st s)
  | Og f -> fun st -> V.to_complex (scalar_of_value (f st))

(* Boxed scalar view; raises "vector value used..." like the
   tree-walker's [eval_scalar] when the operand holds a vector. *)
let s_read (o : oper) : state -> Value.scalar =
  match o with
  | Of i -> fun st -> V.Sf (Array.unsafe_get st.fregs i)
  | Oi i -> fun st -> V.Si (Array.unsafe_get st.iregs i)
  | Ob i -> fun st -> V.Sb (Array.unsafe_get st.bregs i)
  | Oc s ->
    fun st ->
      V.Sc
        { Complex.re = Array.unsafe_get st.cregs (2 * s);
          im = Array.unsafe_get st.cregs ((2 * s) + 1) }
  | Ov (s, _) -> fun st -> vreg_scalar st s
  | Og f -> fun st -> scalar_of_value (f st)

(* Boxed value view; never raises except for array-as-register. *)
let v_read (o : oper) : state -> Value.t =
  match o with
  | Of i -> fun st -> Value.Scalar (V.Sf (Array.unsafe_get st.fregs i))
  | Oi i -> fun st -> Value.Scalar (V.Si (Array.unsafe_get st.iregs i))
  | Ob i -> fun st -> Value.Scalar (V.Sb (Array.unsafe_get st.bregs i))
  | Oc s ->
    fun st ->
      Value.Scalar
        (V.Sc
           { Complex.re = Array.unsafe_get st.cregs (2 * s);
             im = Array.unsafe_get st.cregs ((2 * s) + 1) })
  | Ov (s, _) -> fun st -> vreg_value st s
  | Og f -> f

(* Array operand: typed slot, or the runtime failure the tree-walker
   would produce. *)
let arr_ref env (v : Mir.var) : (aslot, string) Stdlib.result =
  match slot_of env v with
  | Sarr a -> Ok a
  | Sreg _ ->
    Error
      (Printf.sprintf "variable %s.%d used as an array" v.Mir.vname v.Mir.vid)

(* Boxed element view of a typed array bank (printing, returns, and
   generic vector-load fallbacks). *)
let boxed_elem (a : aslot) : state -> int -> Value.scalar =
  let k = a.aidx in
  match a.bank with
  | AKf ->
    fun st i -> V.Sf (Array.unsafe_get (Array.unsafe_get st.farrs k) i)
  | AKi ->
    fun st i -> V.Si (Array.unsafe_get (Array.unsafe_get st.iarrs k) i)
  | AKb ->
    fun st i -> V.Sb (Array.unsafe_get (Array.unsafe_get st.barrs k) i)
  | AKc ->
    fun st i ->
      let ca = Array.unsafe_get st.carrs k in
      V.Sc
        { Complex.re = Array.unsafe_get ca (2 * i);
          im = Array.unsafe_get ca ((2 * i) + 1) }

let boxed_array (a : aslot) : state -> Value.scalar array =
  let k = a.aidx in
  match a.bank with
  | AKf -> fun st -> Store.scalars_of_floats st.farrs.(k)
  | AKi -> fun st -> Store.scalars_of_ints st.iarrs.(k)
  | AKb -> fun st -> Store.scalars_of_bools st.barrs.(k)
  | AKc -> fun st -> Store.scalars_of_complex st.carrs.(k)

(* A compiled array index. A real register operand (int constants
   are pooled into one) is read through its (tag, bank index) pair and
   converted as [V.to_int] would, inline in [index]; any other operand
   goes through the [gen] closure. Either way the bounds check is the
   tree-walker's, message included. *)
type ix = { tag : int; (* [reg_tag]'s; -1 = use [gen] *)
            slot : int; len : int; what : string; gen : state -> int }

let oob what i len = fail "%s index %d out of bounds [0, %d)" what i len

let index_of env op ~len ~what : ix =
  let o = oper_of env op in
  match reg_tag o with
  | Some (tag, slot) -> { tag; slot; len; what; gen = (fun _ -> 0) }
  | None -> { tag = -1; slot = 0; len; what; gen = i_read o }

let[@inline] index st ix =
  let i =
    match ix.tag with
    | 1 -> Array.unsafe_get st.iregs ix.slot
    | 0 -> int_of_float (Float.round (Array.unsafe_get st.fregs ix.slot))
    | 2 -> if Array.unsafe_get st.bregs ix.slot then 1 else 0
    | _ -> ix.gen st
  in
  if i < 0 || i >= ix.len then oob ix.what i ix.len;
  i

(* ---------------- rvalue producers ---------------- *)

type prod =
  | Pf of (state -> float)
  | Pi of (state -> int)
  | Pb of (state -> bool)
  | Pc of (state -> Complex.t)
  | Pg of (state -> Value.t)  (* boxed: vectors, demoted and failing shapes *)

let gen_of_prod = function
  | Pf f -> fun st -> Value.Scalar (V.Sf (f st))
  | Pi f -> fun st -> Value.Scalar (V.Si (f st))
  | Pb f -> fun st -> Value.Scalar (V.Sb (f st))
  | Pc f -> fun st -> Value.Scalar (V.Sc (f st))
  | Pg f -> f

let[@inline] unboxed st s =
  match Array.unsafe_get st.vboxs s with None -> true | Some _ -> false

let float_fast = function
  | Mir.Badd -> Some ( +. )
  | Mir.Bsub -> Some ( -. )
  | Mir.Bmul -> Some ( *. )
  | Mir.Bdiv -> Some ( /. )
  | _ -> None

(* Per-lane fast path: [V.binop] on two real-double lanes reduces by
   definition to [Sf (f x y)] with the raw float operator ([fop] in
   Value), so matching the [Sf] constructors first is bit-identical and
   skips the complex/int-like dispatch chain. *)
let lane2_fast op =
  let g = V.binop op in
  match float_fast op with
  | Some f -> (
    fun a b ->
      match (a, b) with V.Sf x, V.Sf y -> V.Sf (f x y) | _ -> g a b)
  | None -> g

(* Lane loop of a SIMD binary op on two unboxed vector registers. The
   arithmetic operators are written out inline: a call through the
   first-class [fop] boxes both operands and the result on every lane
   (no flambda). [Stdlib.min]/[max] are polymorphic calls either way. *)
let simd_fill op (fop : float -> float -> float) sa sb n :
    state -> float array -> unit =
  match op with
  | Mir.Badd ->
    fun st dst ->
      let a = Array.unsafe_get st.vbufs sa and b = Array.unsafe_get st.vbufs sb in
      for k = 0 to n - 1 do
        Array.unsafe_set dst k (Array.unsafe_get a k +. Array.unsafe_get b k)
      done
  | Mir.Bsub ->
    fun st dst ->
      let a = Array.unsafe_get st.vbufs sa and b = Array.unsafe_get st.vbufs sb in
      for k = 0 to n - 1 do
        Array.unsafe_set dst k (Array.unsafe_get a k -. Array.unsafe_get b k)
      done
  | Mir.Bmul ->
    fun st dst ->
      let a = Array.unsafe_get st.vbufs sa and b = Array.unsafe_get st.vbufs sb in
      for k = 0 to n - 1 do
        Array.unsafe_set dst k (Array.unsafe_get a k *. Array.unsafe_get b k)
      done
  | Mir.Bdiv ->
    fun st dst ->
      let a = Array.unsafe_get st.vbufs sa and b = Array.unsafe_get st.vbufs sb in
      for k = 0 to n - 1 do
        Array.unsafe_set dst k (Array.unsafe_get a k /. Array.unsafe_get b k)
      done
  | _ ->
    fun st dst ->
      let a = Array.unsafe_get st.vbufs sa and b = Array.unsafe_get st.vbufs sb in
      for k = 0 to n - 1 do
        Array.unsafe_set dst k (fop (Array.unsafe_get a k) (Array.unsafe_get b k))
      done

(* Reduction over an unboxed lane buffer, the sum and product loops
   inlined for the same reason as [simd_fill]; min/max keep their
   polymorphic-compare calls. *)
let lane_fold (r : Mir.vreduce) : float array -> float =
  match r with
  | Mir.Vsum ->
    fun x ->
      let acc = ref (Array.unsafe_get x 0) in
      for i = 1 to Array.length x - 1 do
        acc := !acc +. Array.unsafe_get x i
      done;
      !acc
  | Mir.Vprod ->
    fun x ->
      let acc = ref (Array.unsafe_get x 0) in
      for i = 1 to Array.length x - 1 do
        acc := !acc *. Array.unsafe_get x i
      done;
      !acc
  | Mir.Vmin | Mir.Vmax ->
    let combine : float -> float -> float =
      if r = Mir.Vmin then min else max
    in
    fun x ->
      let acc = ref (Array.unsafe_get x 0) in
      for i = 1 to Array.length x - 1 do
        acc := combine !acc (Array.unsafe_get x i)
      done;
      !acc

(* Scalar binary ops, statically dispatched on the operands' runtime
   representations. Mirrors [V.binop]'s promotion rules exactly:
   complex when either side is complex; int ops when both sides are
   int-like (Si/Sb); float otherwise; Bdiv/Bpow always float;
   comparisons through [compare] on floats. *)
let compile_rbin env op a b : prod =
  let oa = oper_of env a and ob = oper_of env b in
  if typed_scalar oa && typed_scalar ob then begin
    if is_oc oa || is_oc ob then begin
      let za = c_read oa and zb = c_read ob in
      let c2 f = Pc (fun st -> let x = za st in let y = zb st in f x y) in
      match op with
      | Mir.Badd -> c2 Complex.add
      | Mir.Bsub -> c2 Complex.sub
      | Mir.Bmul -> c2 Complex.mul
      | Mir.Bdiv -> c2 Complex.div
      | Mir.Bpow -> c2 Complex.pow
      | Mir.Beq -> Pb (fun st -> let x = za st in let y = zb st in x = y)
      | Mir.Bne -> Pb (fun st -> let x = za st in let y = zb st in x <> y)
      | Mir.Bmin | Mir.Bmax | Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge
      | Mir.Band | Mir.Bor | Mir.Bmod | Mir.Bidiv ->
        Pg
          (fun st ->
            let _ = za st in
            let _ = zb st in
            invalid_arg "Value.binop: operation undefined on complex values")
    end
    else begin
      let fa = f_read oa and fb = f_read ob in
      let pf f = Pf (fun st -> let x = fa st in let y = fb st in f x y) in
      let cmp f =
        Pb (fun st -> let x = fa st in let y = fb st in f (compare x y) 0)
      in
      let pbool f =
        let ba = b_read oa and bb = b_read ob in
        Pb (fun st -> let x = ba st in let y = bb st in f x y)
      in
      let idiv () =
        let xa = i_read oa and xb = i_read ob in
        Pi
          (fun st ->
            let x = xa st in
            let y = xb st in
            if y = 0 then invalid_arg "Value.binop: integer division by zero"
            else x / y)
      in
      if int_like oa && int_like ob then begin
        let xa = i_read oa and xb = i_read ob in
        let pi f = Pi (fun st -> let x = xa st in let y = xb st in f x y) in
        match op with
        | Mir.Badd -> pi ( + )
        | Mir.Bsub -> pi ( - )
        | Mir.Bmul -> pi ( * )
        | Mir.Bdiv -> pf ( /. )
        | Mir.Bpow -> pf ( ** )
        | Mir.Bidiv -> idiv ()
        | Mir.Bmod ->
          Pi
            (fun st ->
              let x = xa st in
              let y = xb st in
              if y = 0 then x else ((x mod y) + y) mod y)
        | Mir.Bmin -> pi min
        | Mir.Bmax -> pi max
        | Mir.Blt -> cmp ( < )
        | Mir.Ble -> cmp ( <= )
        | Mir.Bgt -> cmp ( > )
        | Mir.Bge -> cmp ( >= )
        | Mir.Beq -> cmp ( = )
        | Mir.Bne -> cmp ( <> )
        | Mir.Band -> pbool ( && )
        | Mir.Bor -> pbool ( || )
      end
      else begin
        match op with
        | Mir.Badd -> pf ( +. )
        | Mir.Bsub -> pf ( -. )
        | Mir.Bmul -> pf ( *. )
        | Mir.Bdiv -> pf ( /. )
        | Mir.Bpow -> pf ( ** )
        | Mir.Bidiv -> idiv ()
        | Mir.Bmod ->
          pf (fun x y -> if y = 0.0 then x else Float.rem x y)
        | Mir.Bmin -> pf min
        | Mir.Bmax -> pf max
        | Mir.Blt -> cmp ( < )
        | Mir.Ble -> cmp ( <= )
        | Mir.Bgt -> cmp ( > )
        | Mir.Bge -> cmp ( >= )
        | Mir.Beq -> cmp ( = )
        | Mir.Bne -> cmp ( <> )
        | Mir.Band -> pbool ( && )
        | Mir.Bor -> pbool ( || )
      end
    end
  end
  else begin
    (* Vector or demoted operands: boxed lane-wise path. *)
    let vb = lane2_fast op in
    let fa = v_read oa and fb = v_read ob in
    Pg
      (fun st ->
        let va = fa st in
        let vbv = fb st in
        lanewise2 vb va vbv)
  end

let compile_runop env op a : prod =
  match oper_of env a with
  | (Og _ | Ov _) as oa ->
    let u = V.unop op in
    let fa = v_read oa in
    Pg
      (fun st ->
        match fa st with
        | Value.Scalar x -> Value.Scalar (u x)
        | Value.Vector x -> Value.Vector (Array.map u x))
  | Of _ as o -> (
    let f = f_read o in
    match op with
    | Mir.Uneg -> Pf (fun st -> -.(f st))
    | Mir.Unot -> Pb (fun st -> not (f st <> 0.0))
    | Mir.Uabs -> Pf (fun st -> Float.abs (f st))
    | Mir.Ure | Mir.Uconj -> Pf f
    | Mir.Uim ->
      Pf
        (fun st ->
          let _ = f st in
          0.0))
  | Oi _ as o -> (
    let f = i_read o in
    match op with
    | Mir.Uneg -> Pi (fun st -> -f st)
    | Mir.Unot -> Pb (fun st -> not (f st <> 0))
    | Mir.Uabs -> Pi (fun st -> abs (f st))
    | Mir.Ure -> Pf (fun st -> float_of_int (f st))
    | Mir.Uim ->
      Pf
        (fun st ->
          let _ = f st in
          0.0)
    | Mir.Uconj -> Pi f)
  | Ob _ as o -> (
    let f = b_read o in
    match op with
    | Mir.Uneg -> Pi (fun st -> if f st then -1 else 0)
    | Mir.Unot -> Pb (fun st -> not (f st))
    | Mir.Uabs -> Pi (fun st -> if f st then 1 else 0)
    | Mir.Ure -> Pf (fun st -> if f st then 1.0 else 0.0)
    | Mir.Uim ->
      Pf
        (fun st ->
          let _ = f st in
          0.0)
    | Mir.Uconj -> Pb f)
  | Oc _ as o -> (
    let f = c_read o in
    match op with
    | Mir.Uneg -> Pc (fun st -> Complex.neg (f st))
    | Mir.Unot -> Pb (fun st -> not (Complex.norm (f st) <> 0.0))
    | Mir.Uabs -> Pf (fun st -> Complex.norm (f st))
    | Mir.Ure -> Pf (fun st -> (f st).Complex.re)
    | Mir.Uim -> Pf (fun st -> (f st).Complex.im)
    | Mir.Uconj -> Pc (fun st -> Complex.conj (f st)))

let compile_rmath env name args : prod =
  let opers = List.map (oper_of env) args in
  if not (List.for_all typed_scalar opers) then begin
    let gs = List.map s_read opers in
    Pg (fun st -> Value.Scalar (V.math name (List.map (fun g -> g st) gs)))
  end
  else
    match opers with
    | [ (Oc _ as o) ] -> (
      let f = c_read o in
      match name with
      | "exp" -> Pc (fun st -> Complex.exp (f st))
      | "sqrt" -> Pc (fun st -> Complex.sqrt (f st))
      | "log" -> Pc (fun st -> Complex.log (f st))
      | "cos" ->
        Pc
          (fun st ->
            let z = f st in
            let iz = Complex.mul Complex.i z in
            Complex.div
              (Complex.add (Complex.exp iz) (Complex.exp (Complex.neg iz)))
              { Complex.re = 2.0; im = 0.0 })
      | "sin" ->
        Pc
          (fun st ->
            let z = f st in
            let iz = Complex.mul Complex.i z in
            Complex.div
              (Complex.sub (Complex.exp iz) (Complex.exp (Complex.neg iz)))
              { Complex.re = 0.0; im = 2.0 })
      | _ ->
        let msg = Printf.sprintf "Value.math: %s on complex" name in
        Pg
          (fun st ->
            let _ = f st in
            invalid_arg msg))
    | [ o ] -> (
      let g = f_read o in
      match Masc_sema.Builtins.float_fn name with
      | Some fn -> Pf (fun st -> fn (g st))
      | None ->
        let msg = Printf.sprintf "Value.math: unknown function %s" name in
        Pg
          (fun st ->
            let _ = g st in
            invalid_arg msg))
    | [ oa; ob ] -> (
      match Masc_sema.Builtins.float_fn2 name with
      | Some fn ->
        let ga = f_read oa and gb = f_read ob in
        Pf (fun st -> let x = ga st in let y = gb st in fn x y)
      | None ->
        let ga = s_read oa and gb = s_read ob in
        let msg = Printf.sprintf "Value.math: unknown function %s" name in
        Pg
          (fun st ->
            let _ = ga st in
            let _ = gb st in
            invalid_arg msg))
    | os ->
      let gs = List.map s_read os in
      Pg
        (fun st ->
          List.iter (fun g -> ignore (g st)) gs;
          invalid_arg "Value.math: bad arity")

let compile_intrin env name args : prod =
  let opers = List.map (oper_of env) args in
  let vreads = List.map v_read opers in
  (* The tree-walker evaluates every operand (left to right) before
     looking at the intrinsic, so failure closures must do the same. *)
  let eval_all_then k =
    Pg
      (fun st ->
        let vals = List.map (fun f -> f st) vreads in
        k vals)
  in
  let failure msg = eval_all_then (fun _ -> raise (Runtime_error msg)) in
  match Isa.find_named env.isa name with
  | None ->
    failure
      (Printf.sprintf "target %s has no intrinsic %s" env.isa.Isa.tname name)
  | Some desc -> (
    let generic_bin2 op =
      match vreads with
      | [ fa; fb ] ->
        let f = lane2_fast op in
        Pg
          (fun st ->
            let va = fa st in
            let vbv = fb st in
            lanewise2 f va vbv)
      | _ -> failure (Printf.sprintf "%s expects 2 operands" name)
    in
    match desc.Isa.kind with
    | Isa.Ksimd_add -> generic_bin2 Mir.Badd
    | Isa.Ksimd_sub -> generic_bin2 Mir.Bsub
    | Isa.Ksimd_mul -> generic_bin2 Mir.Bmul
    | Isa.Ksimd_div -> generic_bin2 Mir.Bdiv
    | Isa.Ksimd_min -> generic_bin2 Mir.Bmin
    | Isa.Ksimd_max -> generic_bin2 Mir.Bmax
    | Isa.Kmac -> (
      (* binop Bmul (Sf a) (Sf b) = Sf (a *. b), then binop Badd on two
         Sf is Sf (+.): the fused lane below, like [compile_vdef]'s
         unboxed loop, is the same float op sequence. *)
      let mac acc a b =
        match (acc, a, b) with
        | V.Sf acc, V.Sf x, V.Sf y -> V.Sf (acc +. (x *. y))
        | _ -> V.binop Mir.Badd acc (V.binop Mir.Bmul a b)
      in
      match vreads with
      | [ facc; fa; fb ] ->
        Pg
          (fun st ->
            let vacc = facc st in
            let va = fa st in
            let vbv = fb st in
            lanewise3 mac vacc va vbv)
      | _ -> failure "mac expects 3 operands")
    | Isa.Kcmul -> (
      match opers with
      | [ oa; ob ] when typed_scalar oa && typed_scalar ob ->
        let za = c_read oa and zb = c_read ob in
        Pc (fun st -> let x = za st in let y = zb st in Complex.mul x y)
      | _ -> (
        match vreads with
        | [ fa; fb ] ->
          Pg
            (fun st ->
              let va = fa st in
              let vbv = fb st in
              Value.Scalar
                (V.Sc
                   (Complex.mul
                      (V.to_complex (scalar_of_value va))
                      (V.to_complex (scalar_of_value vbv)))))
        | _ -> failure "cmul expects 2 operands"))
    | Isa.Kcmac -> (
      match opers with
      | [ oacc; oa; ob ]
        when typed_scalar oacc && typed_scalar oa && typed_scalar ob ->
        let zacc = c_read oacc and za = c_read oa and zb = c_read ob in
        Pc
          (fun st ->
            let acc = zacc st in
            let x = za st in
            let y = zb st in
            Complex.add acc (Complex.mul x y))
      | _ -> (
        match vreads with
        | [ facc; fa; fb ] ->
          Pg
            (fun st ->
              let vacc = facc st in
              let va = fa st in
              let vbv = fb st in
              Value.Scalar
                (V.Sc
                   (Complex.add
                      (V.to_complex (scalar_of_value vacc))
                      (Complex.mul
                         (V.to_complex (scalar_of_value va))
                         (V.to_complex (scalar_of_value vbv))))))
        | _ -> failure "cmac expects 3 operands"))
    | Isa.Kcadd -> (
      match opers with
      | [ oa; ob ] when typed_scalar oa && typed_scalar ob ->
        let za = c_read oa and zb = c_read ob in
        Pc (fun st -> let x = za st in let y = zb st in Complex.add x y)
      | _ -> (
        match vreads with
        | [ fa; fb ] ->
          Pg
            (fun st ->
              let va = fa st in
              let vbv = fb st in
              Value.Scalar
                (V.Sc
                   (Complex.add
                      (V.to_complex (scalar_of_value va))
                      (V.to_complex (scalar_of_value vbv)))))
        | _ -> failure "cadd expects 2 operands"))
    | Isa.Kload | Isa.Kstore | Isa.Kbroadcast ->
      failure
        (Printf.sprintf "%s: memory intrinsics are expressed as Rvload/Ivstore"
           name)
    | Isa.Kreduce_add | Isa.Kreduce_min | Isa.Kreduce_max -> (
      let combine_s =
        match desc.Isa.kind with
        | Isa.Kreduce_add -> lane2_fast Mir.Badd
        | Isa.Kreduce_min -> V.binop Mir.Bmin
        | _ -> V.binop Mir.Bmax
      in
      let fold =
        match desc.Isa.kind with
        | Isa.Kreduce_add -> lane_fold Mir.Vsum
        | Isa.Kreduce_min -> lane_fold Mir.Vmin
        | _ -> lane_fold Mir.Vmax
      in
      match opers with
      | [ Ov (s, _) ] ->
        Pf
          (fun st ->
            match Array.unsafe_get st.vboxs s with
            | None -> fold (Array.unsafe_get st.vbufs s)
            | Some (Value.Vector x) ->
              (* boxed escape lanes are always [Sf] (write coercion) *)
              let acc = ref x.(0) in
              for i = 1 to Array.length x - 1 do
                acc := combine_s !acc x.(i)
              done;
              V.to_float !acc
            | Some (Value.Scalar _) -> fail "reduce expects one vector operand")
      | [ o ] ->
        let fa = v_read o in
        Pg
          (fun st ->
            match fa st with
            | Value.Vector x ->
              let acc = ref x.(0) in
              for i = 1 to Array.length x - 1 do
                acc := combine_s !acc x.(i)
              done;
              Value.Scalar !acc
            | Value.Scalar _ -> fail "reduce expects one vector operand")
      | _ -> failure "reduce expects one vector operand"))

let compile_rvalue env (rv : Mir.rvalue) : prod =
  match rv with
  | Mir.Rbin (op, a, b) -> compile_rbin env op a b
  | Mir.Runop (op, a) -> compile_runop env op a
  | Mir.Rmath (name, args) -> compile_rmath env name args
  | Mir.Rcomplex (re, im) ->
    let gre = f_read (oper_of env re) and gim = f_read (oper_of env im) in
    Pc (fun st -> { Complex.re = gre st; im = gim st })
  | Mir.Rload (a, idx) -> (
    match arr_ref env a with
    | Error msg -> Pg (fun _ -> raise (Runtime_error msg))
    | Ok aslot -> (
      let ix = index_of env idx ~len:aslot.alen ~what:a.Mir.vname in
      let k = aslot.aidx in
      match aslot.bank with
      | AKf ->
        Pf
          (fun st ->
            let i = index st ix in
            Array.unsafe_get (Array.unsafe_get st.farrs k) i)
      | AKi ->
        Pi
          (fun st ->
            let i = index st ix in
            Array.unsafe_get (Array.unsafe_get st.iarrs k) i)
      | AKb ->
        Pb
          (fun st ->
            let i = index st ix in
            Array.unsafe_get (Array.unsafe_get st.barrs k) i)
      | AKc ->
        Pc
          (fun st ->
            let i = index st ix in
            let ca = Array.unsafe_get st.carrs k in
            { Complex.re = Array.unsafe_get ca (2 * i);
              im = Array.unsafe_get ca ((2 * i) + 1) })))
  | Mir.Rmove a -> (
    match oper_of env a with
    | Of _ as o -> Pf (f_read o)
    | Oi _ as o -> Pi (i_read o)
    | Ob _ as o -> Pb (b_read o)
    | Oc _ as o -> Pc (c_read o)
    | (Ov _ | Og _) as o -> Pg (v_read o))
  | Mir.Rvload (a, base, lanes) -> (
    match arr_ref env a with
    | Error msg -> Pg (fun _ -> raise (Runtime_error msg))
    | Ok aslot ->
      let len = aslot.alen and name = a.Mir.vname in
      let ix = index_of env base ~len ~what:name in
      let elem = boxed_elem aslot in
      Pg
        (fun st ->
          let b = index st ix in
          if b + lanes > len then fail "vector load past end of %s" name;
          Value.Vector (Array.init lanes (fun j -> elem st (b + j)))))
  | Mir.Rvbroadcast (a, lanes) ->
    let gs = s_read (oper_of env a) in
    Pg (fun st -> Value.Vector (Array.make lanes (gs st)))
  | Mir.Rvreduce (r, a) -> (
    let combine_s =
      match r with
      | Mir.Vsum -> lane2_fast Mir.Badd
      | Mir.Vprod -> lane2_fast Mir.Bmul
      | Mir.Vmin -> V.binop Mir.Bmin
      | Mir.Vmax -> V.binop Mir.Bmax
    in
    match oper_of env a with
    | Ov (s, _) ->
      let fold = lane_fold r in
      Pf
        (fun st ->
          match Array.unsafe_get st.vboxs s with
          | None -> fold (Array.unsafe_get st.vbufs s)
          | Some (Value.Vector x) ->
            let acc = ref x.(0) in
            for i = 1 to Array.length x - 1 do
              acc := combine_s !acc x.(i)
            done;
            V.to_float !acc
          | Some (Value.Scalar _) -> fail "vreduce of a scalar")
    | o ->
      let fa = v_read o in
      Pg
        (fun st ->
          match fa st with
          | Value.Vector x ->
            let acc = ref x.(0) in
            for i = 1 to Array.length x - 1 do
              acc := combine_s !acc x.(i)
            done;
            Value.Scalar !acc
          | Value.Scalar _ -> fail "vreduce of a scalar"))
  | Mir.Rintrin (name, args) -> compile_intrin env name args

(* Write-side coercion with an identity fast path for boxed registers:
   when the value is already a scalar of the declared representation,
   [coerce] would rebuild an equal value — skip the allocation. *)
let coerce_fast (sty : Mir.scalar_ty) : Value.t -> Value.t =
  match (sty.Mir.cplx, sty.Mir.base) with
  | MT.Complex, _ -> (
    function Value.Scalar (V.Sc _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Double -> (
    function Value.Scalar (V.Sf _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Int -> (
    function Value.Scalar (V.Si _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Bool -> (
    function Value.Scalar (V.Sb _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Err ->
    fun _ -> invalid_arg "Plan: poison type reached the VM"

(* Generic (coercing) write into a vector register: unbox into the lane
   buffer when the coerced value is a full-width vector, otherwise park
   it in the boxed escape slot. [sty] is the declared element type
   (always real-double for vector slots). *)
let write_vreg st d lanes sty v =
  match coerce_value sty v with
  | Value.Scalar _ as c -> st.vboxs.(d) <- Some c
  | Value.Vector xs as c ->
    if Array.length xs = lanes then begin
      let buf = Array.unsafe_get st.vbufs d in
      for k = 0 to lanes - 1 do
        buf.(k) <- V.to_float xs.(k)
      done;
      st.vboxs.(d) <- None
    end
    else st.vboxs.(d) <- Some c

(* ---------------- fused complex definitions ---------------- *)

(* Complex-typed registers live as re/im pairs in [st.cregs], but the
   generic producer protocol routes every complex rvalue through a
   boxed [Complex.t], allocating on each evaluation. For the shapes
   that dominate complex kernels (FFT butterflies: complex array
   load, move, add/sub/mul, conj/neg, and the cmul/cmac/cadd
   intrinsics) the whole def is a pure register/array read chain, so we
   can fuse it into a closure that moves floats directly between banks.
   A real operand reads as [V.to_complex] would view it: tag 3 marks a
   complex register, other tags are [reg_tag]'s, with a zero imaginary
   part. Anything whose evaluation order or failure behaviour could
   observably differ from the tree-walker returns [None] and takes the
   generic path. Formulas are spelled out to match
   [Complex.mul]/[Complex.add] term-for-term so results stay
   bit-identical. *)
let ctag = function Oc s -> Some (3, s) | o -> reg_tag o

let[@inline] rd_re st tag i =
  if tag = 3 then Array.unsafe_get st.cregs (2 * i) else rd_f st tag i

let[@inline] rd_im st tag i =
  if tag = 3 then Array.unsafe_get st.cregs ((2 * i) + 1) else 0.0

let compile_cdef env d rv cost : (state -> unit) option =
  match rv with
  | Mir.Rload (a, idx) -> (
    match arr_ref env a with
    | Ok aslot when aslot.bank = AKc ->
      let ix = index_of env idx ~len:aslot.alen ~what:a.Mir.vname in
      let k = aslot.aidx in
      Some
        (fun st ->
          let i = index st ix in
          let ca = Array.unsafe_get st.carrs k in
          set_c st cost d
            (Array.unsafe_get ca (2 * i))
            (Array.unsafe_get ca ((2 * i) + 1)))
    | _ -> None)
  | Mir.Rmove o -> (
    match ctag (oper_of env o) with
    | Some (t, s) ->
      Some (fun st -> set_c st cost d (rd_re st t s) (rd_im st t s))
    | None -> None)
  | Mir.Rcomplex (ore, oim) -> (
    (* Only operands whose float view cannot raise qualify — the
       tree-walker's record-field evaluation order is unspecified, so
       the reads must be order-insensitive. *)
    match (reg_tag (oper_of env ore), reg_tag (oper_of env oim)) with
    | Some (ta, ia), Some (tb, ib) ->
      Some (fun st -> set_c st cost d (rd_f st ta ia) (rd_f st tb ib))
    | _ -> None)
  | Mir.Rbin (op, a, b) -> (
    let oa = oper_of env a and ob = oper_of env b in
    (* a statically complex operand means [V.binop] takes its complex
       branch at runtime; mirror Complex.add/sub/mul term-for-term *)
    match (ctag oa, ctag ob) with
    | Some (ta, ia), Some (tb, ib) when is_oc oa || is_oc ob -> (
      match op with
      | Mir.Badd ->
        Some
          (fun st ->
            let ar = rd_re st ta ia and ai = rd_im st ta ia in
            let br = rd_re st tb ib and bi = rd_im st tb ib in
            set_c st cost d (ar +. br) (ai +. bi))
      | Mir.Bsub ->
        Some
          (fun st ->
            let ar = rd_re st ta ia and ai = rd_im st ta ia in
            let br = rd_re st tb ib and bi = rd_im st tb ib in
            set_c st cost d (ar -. br) (ai -. bi))
      | Mir.Bmul ->
        Some
          (fun st ->
            let ar = rd_re st ta ia and ai = rd_im st ta ia in
            let br = rd_re st tb ib and bi = rd_im st tb ib in
            set_c st cost d
              ((ar *. br) -. (ai *. bi))
              ((ar *. bi) +. (ai *. br)))
      | _ -> None)
    | _ -> None)
  | Mir.Rintrin (name, args) -> (
    let kind = Option.map (fun i -> i.Isa.kind) (Isa.find_named env.isa name) in
    match (kind, List.map (fun a -> ctag (oper_of env a)) args) with
    | Some Isa.Kcmul, [ Some (ta, ia); Some (tb, ib) ] ->
      Some
        (fun st ->
          let ar = rd_re st ta ia and ai = rd_im st ta ia in
          let br = rd_re st tb ib and bi = rd_im st tb ib in
          set_c st cost d
            ((ar *. br) -. (ai *. bi))
            ((ar *. bi) +. (ai *. br)))
    | Some Isa.Kcadd, [ Some (ta, ia); Some (tb, ib) ] ->
      Some
        (fun st ->
          let ar = rd_re st ta ia and ai = rd_im st ta ia in
          let br = rd_re st tb ib and bi = rd_im st tb ib in
          set_c st cost d (ar +. br) (ai +. bi))
    | Some Isa.Kcmac, [ Some (tc, ic); Some (ta, ia); Some (tb, ib) ] ->
      Some
        (fun st ->
          let cr = rd_re st tc ic and ci = rd_im st tc ic in
          let ar = rd_re st ta ia and ai = rd_im st ta ia in
          let br = rd_re st tb ib and bi = rd_im st tb ib in
          set_c st cost d
            (cr +. ((ar *. br) -. (ai *. bi)))
            (ci +. ((ar *. bi) +. (ai *. br))))
    | _ -> None)
  | Mir.Runop (op, a) -> (
    (* [Complex.neg] and [Complex.conj], component by component *)
    match (op, oper_of env a) with
    | Mir.Uneg, Oc s ->
      Some
        (fun st ->
          let re = Array.unsafe_get st.cregs (2 * s) in
          let im = Array.unsafe_get st.cregs ((2 * s) + 1) in
          set_c st cost d (-.re) (-.im))
    | Mir.Uconj, Oc s ->
      Some
        (fun st ->
          let re = Array.unsafe_get st.cregs (2 * s) in
          let im = Array.unsafe_get st.cregs ((2 * s) + 1) in
          set_c st cost d re (-.im))
    | _ -> None)
  | Mir.Rmath _ | Mir.Rvload _ | Mir.Rvbroadcast _ | Mir.Rvreduce _ -> None

(* Fused float definitions: for an [Idef] whose target is a Double
   register and whose rvalue's float path would otherwise hop through a
   [state -> float] closure (each call boxes its return without
   flambda), build one closure that reads the typed banks, combines
   inline, charges, and writes — zero allocation. Only shapes whose
   fused text mirrors the generic path term-for-term are taken
   ([min]/[max] keep their polymorphic-compare semantics, so they stay
   on the closure path); everything else returns [None]. *)
let compile_fdef env d rv cost : (state -> unit) option =
  match rv with
  | Mir.Rbin (op, a, b) -> (
    let oa = oper_of env a and ob = oper_of env b in
    match (reg_tag oa, reg_tag ob) with
    | Some (ta, ia), Some (tb, ib) -> (
      (* Mirrors [compile_rbin]'s static promotion: Badd/Bsub/Bmul/Bmod
         of two int-like operands are int ops ([compile_idef]); Bdiv and
         Bpow are float in both branches. *)
      let float_op = not (int_like oa && int_like ob) in
      match op with
      | Mir.Badd when float_op ->
        Some
          (fun st ->
            let x = rd_f st ta ia and y = rd_f st tb ib in
            set_f st cost d (x +. y))
      | Mir.Bsub when float_op ->
        Some
          (fun st ->
            let x = rd_f st ta ia and y = rd_f st tb ib in
            set_f st cost d (x -. y))
      | Mir.Bmul when float_op ->
        Some
          (fun st ->
            let x = rd_f st ta ia and y = rd_f st tb ib in
            set_f st cost d (x *. y))
      | Mir.Bmod when float_op ->
        Some
          (fun st ->
            let x = rd_f st ta ia and y = rd_f st tb ib in
            set_f st cost d (if y = 0.0 then x else Float.rem x y))
      | Mir.Bdiv ->
        Some
          (fun st ->
            let x = rd_f st ta ia and y = rd_f st tb ib in
            set_f st cost d (x /. y))
      | Mir.Bpow ->
        Some
          (fun st ->
            let x = rd_f st ta ia and y = rd_f st tb ib in
            set_f st cost d (x ** y))
      | _ -> None)
    | _ -> None)
  | Mir.Rload (a, idx) -> (
    match arr_ref env a with
    | Ok ({ bank = AKf; _ } as sl) ->
      let ix = index_of env idx ~len:sl.alen ~what:a.Mir.vname in
      let k = sl.aidx in
      Some
        (fun st ->
          let i = index st ix in
          set_f st cost d
            (Array.unsafe_get (Array.unsafe_get st.farrs k) i))
    | Ok _ | Error _ -> None)
  | Mir.Rmove a -> (
    match reg_tag (oper_of env a) with
    | Some (t, s) -> Some (fun st -> set_f st cost d (rd_f st t s))
    | None -> None)
  | Mir.Runop (op, a) -> (
    match oper_of env a with
    | Of s -> (
      match op with
      | Mir.Uneg ->
        Some (fun st -> set_f st cost d (-.Array.unsafe_get st.fregs s))
      | Mir.Uabs ->
        Some
          (fun st ->
            set_f st cost d (Float.abs (Array.unsafe_get st.fregs s)))
      | Mir.Ure | Mir.Uconj ->
        Some (fun st -> set_f st cost d (Array.unsafe_get st.fregs s))
      | Mir.Unot | Mir.Uim -> None)
    | Oc s -> (
      match op with
      | Mir.Ure ->
        Some (fun st -> set_f st cost d (Array.unsafe_get st.cregs (2 * s)))
      | Mir.Uim ->
        Some
          (fun st ->
            set_f st cost d (Array.unsafe_get st.cregs ((2 * s) + 1)))
      | Mir.Uneg | Mir.Unot | Mir.Uabs | Mir.Uconj -> None)
    | _ -> None)
  | Mir.Rmath ("atan2", [ a; b ]) -> (
    (* [Float.atan2] is the external behind [Builtins.float_fn2], called
       here directly so its operands and result stay unboxed *)
    match (reg_tag (oper_of env a), reg_tag (oper_of env b)) with
    | Some (ta, ia), Some (tb, ib) ->
      Some
        (fun st ->
          let y = rd_f st ta ia and x = rd_f st tb ib in
          set_f st cost d (Float.atan2 y x))
    | _ -> None)
  | Mir.Rvreduce (Mir.Vsum, a) -> (
    (* The vectorizer's reduction epilogue: the lanes sum straight into
       the float register; a boxed escape takes the generic producer. *)
    match oper_of env a with
    | Ov (s, _) -> (
      match compile_rvalue env rv with
      | Pf boxed ->
        Some
          (fun st ->
            let x =
              match Array.unsafe_get st.vboxs s with
              | None ->
                let b = Array.unsafe_get st.vbufs s in
                let acc = ref (Array.unsafe_get b 0) in
                for i = 1 to Array.length b - 1 do
                  acc := !acc +. Array.unsafe_get b i
                done;
                !acc
              | Some _ -> boxed st
            in
            set_f st cost d x)
      | _ -> None)
    | _ -> None)
  | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rintrin _ | Mir.Rvload _
  | Mir.Rvbroadcast _ | Mir.Rvreduce _ ->
    None

(* Fused int definitions: the index arithmetic of every scalar and
   coder-baseline loop. Add/sub/mul/min/max of two int-like operands
   (pooled int constants included), a move from an int register, and a
   load from an int array each become one closure that reads the banks
   directly. [Stdlib.min]/[max] on ints are the comparisons written
   out here. Everything else takes the generic path. *)
let compile_idef env d rv cost : (state -> unit) option =
  match rv with
  | Mir.Rbin (op, a, b) -> (
    let oa = oper_of env a and ob = oper_of env b in
    match (reg_tag oa, reg_tag ob) with
    | Some (ta, ia), Some (tb, ib) when int_like oa && int_like ob -> (
      match op with
      | Mir.Badd ->
        Some
          (fun st ->
            let x = rd_i st ta ia and y = rd_i st tb ib in
            set_i st cost d (x + y))
      | Mir.Bsub ->
        Some
          (fun st ->
            let x = rd_i st ta ia and y = rd_i st tb ib in
            set_i st cost d (x - y))
      | Mir.Bmul ->
        Some
          (fun st ->
            let x = rd_i st ta ia and y = rd_i st tb ib in
            set_i st cost d (x * y))
      | Mir.Bmin ->
        Some
          (fun st ->
            let x = rd_i st ta ia and y = rd_i st tb ib in
            set_i st cost d (if x <= y then x else y))
      | Mir.Bmax ->
        Some
          (fun st ->
            let x = rd_i st ta ia and y = rd_i st tb ib in
            set_i st cost d (if x >= y then x else y))
      | _ -> None)
    | _ -> None)
  | Mir.Rmove a -> (
    let o = oper_of env a in
    match reg_tag o with
    | Some (t, s) when int_like o ->
      Some (fun st -> set_i st cost d (rd_i st t s))
    | _ -> None)
  | Mir.Rload (a, idx) -> (
    match arr_ref env a with
    | Ok ({ bank = AKi; _ } as sl) ->
      let ix = index_of env idx ~len:sl.alen ~what:a.Mir.vname in
      let k = sl.aidx in
      Some
        (fun st ->
          let i = index st ix in
          set_i st cost d
            (Array.unsafe_get (Array.unsafe_get st.iarrs k) i))
    | Ok _ | Error _ -> None)
  | _ -> None

(* Fused comparisons into a bool register. [V.binop] compares any two
   real scalars as floats through [compare] — ints too, so 2^53 and
   2^53 + 1 are equal — and so does this closure, on unboxed reads. *)
let compile_bdef env d rv cost : (state -> unit) option =
  match rv with
  | Mir.Rbin
      ( ((Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge | Mir.Beq | Mir.Bne) as op),
        a,
        b ) -> (
    match (reg_tag (oper_of env a), reg_tag (oper_of env b)) with
    | Some (ta, ia), Some (tb, ib) ->
      Some
        (fun st ->
          let c = compare (rd_f st ta ia : float) (rd_f st tb ib) in
          set_b st cost d
            (match op with
            | Mir.Blt -> c < 0
            | Mir.Ble -> c <= 0
            | Mir.Bgt -> c > 0
            | Mir.Bge -> c >= 0
            | Mir.Beq -> c = 0
            | _ -> c <> 0))
    | _ -> None)
  | _ -> None

(* Fused vector definitions. A vector register's lanes live unboxed in
   [st.vbufs] unless a boxed escape value overrides them ([st.vboxs]).
   The shapes the vectorizer emits at the register's own width each
   become one closure that fills the lane buffer directly: a load from
   a double bank (index read inline), a broadcast of a real register, a
   register move, and the SIMD arithmetic and mac intrinsics. When a
   source register holds a boxed escape value, the closure runs the
   generic boxed def built by [slow]. Other shapes return [None]. *)
let compile_vdef env d lanes rv cost (slow : unit -> state -> unit) :
    (state -> unit) option =
  let simd kind =
    match kind with
    | Isa.Ksimd_add -> Some (Mir.Badd, ( +. ))
    | Isa.Ksimd_sub -> Some (Mir.Bsub, ( -. ))
    | Isa.Ksimd_mul -> Some (Mir.Bmul, ( *. ))
    | Isa.Ksimd_div -> Some (Mir.Bdiv, ( /. ))
    (* [V.binop Bmin] on two [Sf] lanes is [Sf (Stdlib.min x y)]. *)
    | Isa.Ksimd_min -> Some (Mir.Bmin, min)
    | Isa.Ksimd_max -> Some (Mir.Bmax, max)
    | _ -> None
  in
  match rv with
  | Mir.Rvload (a, base, l) when l = lanes -> (
    match arr_ref env a with
    | Ok ({ bank = AKf; _ } as sl) ->
      let len = sl.alen and k = sl.aidx and name = a.Mir.vname in
      let ix = index_of env base ~len ~what:name in
      Some
        (fun st ->
          let b = index st ix in
          if b + lanes > len then fail "vector load past end of %s" name;
          echarge st cost;
          let src = Array.unsafe_get st.farrs k in
          let dst = Array.unsafe_get st.vbufs d in
          for j = 0 to lanes - 1 do
            Array.unsafe_set dst j (Array.unsafe_get src (b + j))
          done;
          Array.unsafe_set st.vboxs d None)
    | Ok _ | Error _ -> None)
  | Mir.Rvbroadcast (a, l) when l = lanes -> (
    match reg_tag (oper_of env a) with
    | Some (t, i) ->
      Some
        (fun st ->
          let x = rd_f st t i in
          echarge st cost;
          let dst = Array.unsafe_get st.vbufs d in
          for j = 0 to lanes - 1 do
            Array.unsafe_set dst j x
          done;
          Array.unsafe_set st.vboxs d None)
    | None -> None)
  | Mir.Rmove a -> (
    match oper_of env a with
    | Ov (s, l) when l = lanes ->
      let slow = slow () in
      Some
        (fun st ->
          if unboxed st s then begin
            echarge st cost;
            Array.blit (Array.unsafe_get st.vbufs s) 0
              (Array.unsafe_get st.vbufs d) 0 lanes;
            Array.unsafe_set st.vboxs d None
          end
          else slow st)
    | _ -> None)
  | Mir.Rintrin (name, args) -> (
    let kind = Option.map (fun i -> i.Isa.kind) (Isa.find_named env.isa name) in
    match (kind, List.map (oper_of env) args) with
    | Some k, [ Ov (sa, la); Ov (sb, lb) ] when la = lanes && lb = lanes -> (
      match simd k with
      | Some (op, fop) ->
        let fill = simd_fill op fop sa sb lanes and slow = slow () in
        Some
          (fun st ->
            if unboxed st sa && unboxed st sb then begin
              echarge st cost;
              fill st (Array.unsafe_get st.vbufs d);
              Array.unsafe_set st.vboxs d None
            end
            else slow st)
      | None -> None)
    | Some Isa.Kmac, [ Ov (sc, lc); Ov (sa, la); Ov (sb, lb) ]
      when lc = lanes && la = lanes && lb = lanes ->
      let slow = slow () in
      Some
        (fun st ->
          if unboxed st sc && unboxed st sa && unboxed st sb then begin
            echarge st cost;
            let acc = Array.unsafe_get st.vbufs sc in
            let x = Array.unsafe_get st.vbufs sa in
            let y = Array.unsafe_get st.vbufs sb in
            let dst = Array.unsafe_get st.vbufs d in
            for j = 0 to lanes - 1 do
              Array.unsafe_set dst j
                (Array.unsafe_get acc j
                +. (Array.unsafe_get x j *. Array.unsafe_get y j))
            done;
            Array.unsafe_set st.vboxs d None
          end
          else slow st)
    | _ -> None)
  | _ -> None

(* ---------------- instruction compilation ---------------- *)

(* A compiled instruction: a straight-line one carries its static
   charge row ([None] when it charges nothing) so its segment can be
   charged in bulk; control flow ends a segment. *)
type step =
  | Straight of row option * (state -> unit)
  | Control of (state -> unit)

(* Block builders collect closures newest first; these sequence such a
   list in execution order. *)
let seq_rev (rev : (state -> unit) list) : state -> unit =
  match rev with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f2; f1 ] ->
    fun st ->
      f1 st;
      f2 st
  | [ f3; f2; f1 ] ->
    fun st ->
      f1 st;
      f2 st;
      f3 st
  | rev ->
    let a = Array.of_list (List.rev rev) in
    let n = Array.length a in
    fun st ->
      for i = 0 to n - 1 do
        (Array.unsafe_get a i) st
      done

let segment_rev sg (rev : (state -> unit) list) : state -> unit =
  match rev with
  | [ f ] ->
    fun st ->
      enter st sg;
      f st;
      st.exact <- false
  | rev ->
    let a = Array.of_list (List.rev rev) in
    let n = Array.length a in
    fun st ->
      enter st sg;
      for i = 0 to n - 1 do
        (Array.unsafe_get a i) st
      done;
      st.exact <- false

(* Does [b] raise [Break_exc] (resp. [Continue_exc]) to the loop whose
   body it is? Nested loops catch their own breaks; a continue in a
   nested while's condition block escapes to the enclosing loop, as in
   the tree-walker. *)
let rec breaks_out (b : Mir.block) =
  List.exists
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Ibreak -> true
      | Mir.Iif (_, t, e) -> breaks_out t || breaks_out e
      | _ -> false)
    b

let rec continues_out (b : Mir.block) =
  List.exists
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Icontinue -> true
      | Mir.Iif (_, t, e) -> continues_out t || continues_out e
      | Mir.Iwhile { cond_block; _ } -> continues_out cond_block
      | _ -> false)
    b

(* Loop handlers, installed only when the body can raise to them. *)
let catch_continue body (f : state -> unit) : state -> unit =
  if continues_out body then fun st -> try f st with Continue_exc -> ()
  else f

let catch_break body (f : state -> unit) : state -> unit =
  if breaks_out body then fun st -> try f st with Break_exc -> () else f

(* Close the open segment — closures [fs] and charge rows [rows], both
   newest first — onto [items]. *)
let close_segment env lead items fs rows =
  match (rows, fs) with
  | [], [] -> items
  | [], fs -> seq_rev fs :: items
  | rows, fs ->
    let rows = Array.of_list (List.rev rows) in
    let c = Array.fold_left (fun c r -> c + r.cyc) 0 rows in
    segment_rev
      { site = new_site env rows; n = Array.length rows; c; lead }
      fs
    :: items

let row env ?intrin line cls cyc = { line; cls = class_id env cls; intrin; cyc }

(* A control charge point's site: one row. *)
let control_site env line cls cyc = new_site env [| row env line cls cyc |]

(* [lead] is a for loop's per-iteration charge, paid before its body:
   it joins the body's first segment so an iteration enters one
   segment, not two. *)
let rec compile_block ?lead env (block : Mir.block) : state -> unit =
  match lead with
  | Some r -> block_items env r.cyc [] [] [ r ] block
  | None -> block_items env (-1) [] [] [] block

(* One pass over a block: compile each instruction, accumulating the
   open segment — its closures [fs] and charge rows [rows], newest
   first, led by a loop charge of cost [lead] — and close it into
   [items] at each control-flow instruction and at the end. *)
and block_items env lead items fs rows = function
  | [] -> seq_rev (close_segment env lead items fs rows)
  | (i : Mir.instr) :: rest -> (
    match compile_instr env i with
    | Straight (None, f) -> block_items env lead items (f :: fs) rows rest
    | Straight (Some r, f) ->
      block_items env lead items (f :: fs) (r :: rows) rest
    | Control f ->
      let items = close_segment env lead items fs rows in
      block_items env (-1) (f :: items) [] [] rest)

and compile_instr env (instr : Mir.instr) : step =
  let line = Mir.line_of instr in
  let charged ?intrin cls cost f =
    Straight (Some (row env ?intrin line cls cost), f)
  in
  match instr.Mir.idesc with
  | Mir.Idef (v, rv) -> (
    (* Static cost; [None] only for an intrinsic the target lacks, in
       which case the producer raises before the charge is reached. *)
    let cost_opt = Cost.def_cost_opt env.isa env.mode rv in
    let cost = match cost_opt with Some c -> c | None -> 0 in
    let sty = Mir.elem_ty v in
    let slot = slot_of env v in
    (* The generic producer is built only on the fallback path. Writes
       follow the tree-walker's order exactly: evaluate the rvalue,
       charge, then coerce (which may raise) and write. *)
    let generic () =
      let prod = compile_rvalue env rv in
      match slot with
      | Sarr _ ->
        (* the tree-walker fails when it fetches the target as a register,
           after evaluating and charging *)
        let g = gen_of_prod prod in
        let msg =
          Printf.sprintf "variable %s.%d used as a register" v.Mir.vname
            v.Mir.vid
        in
        fun st ->
          let _value = g st in
          echarge st cost;
          raise (Runtime_error msg)
      | Sreg (Rf d) -> (
        match prod with
        | Pf f -> fun st -> set_f st cost d (f st)
        | Pi f -> fun st -> set_f st cost d (float_of_int (f st))
        | Pb f -> fun st -> set_f st cost d (if f st then 1.0 else 0.0)
        | Pc f ->
          fun st ->
            let z = f st in
            echarge st cost;
            if z.Complex.im = 0.0 then Array.unsafe_set st.fregs d z.Complex.re
            else
              invalid_arg "Value.to_float: complex with non-zero imaginary part"
        | Pg g ->
          fun st ->
            let value = g st in
            echarge st cost;
            Array.unsafe_set st.fregs d (V.to_float (scalar_of_value value)))
      | Sreg (Ri d) -> (
        match prod with
        | Pi f -> fun st -> set_i st cost d (f st)
        | Pf f ->
          fun st -> set_i st cost d (int_of_float (Float.round (f st)))
        | Pb f -> fun st -> set_i st cost d (if f st then 1 else 0)
        | Pc f ->
          fun st ->
            let _z = f st in
            echarge st cost;
            invalid_arg "Value.coerce: complex into int"
        | Pg g ->
          fun st ->
            let value = g st in
            echarge st cost;
            Array.unsafe_set st.iregs d
              (Store.coerce_int_exn (scalar_of_value value)))
      | Sreg (Rb d) -> (
        match prod with
        | Pb f -> fun st -> set_b st cost d (f st)
        | Pf f -> fun st -> set_b st cost d (f st <> 0.0)
        | Pi f -> fun st -> set_b st cost d (f st <> 0)
        | Pc f -> fun st -> set_b st cost d (Complex.norm (f st) <> 0.0)
        | Pg g ->
          fun st ->
            let value = g st in
            echarge st cost;
            Array.unsafe_set st.bregs d (V.to_bool (scalar_of_value value)))
      | Sreg (Rc d) -> (
        match prod with
        | Pc f ->
          fun st ->
            let z = f st in
            set_c st cost d z.Complex.re z.Complex.im
        | Pf f -> fun st -> set_c st cost d (f st) 0.0
        | Pi f -> fun st -> set_c st cost d (float_of_int (f st)) 0.0
        | Pb f -> fun st -> set_c st cost d (if f st then 1.0 else 0.0) 0.0
        | Pg g ->
          fun st ->
            let value = g st in
            echarge st cost;
            let z = V.to_complex (scalar_of_value value) in
            Array.unsafe_set st.cregs (2 * d) z.Complex.re;
            Array.unsafe_set st.cregs ((2 * d) + 1) z.Complex.im)
      | Sreg (Rv (d, lanes)) ->
        let g = gen_of_prod prod in
        fun st ->
          let value = g st in
          echarge st cost;
          write_vreg st d lanes sty value
      | Sreg (Rg d) ->
        let g = gen_of_prod prod in
        let co = coerce_fast sty in
        fun st ->
          let value = g st in
          echarge st cost;
          Array.unsafe_set st.gregs d (co value)
    in
    let fused =
      match (cost_opt, slot) with
      | None, _ -> None
      | Some _, Sreg (Rf d) -> compile_fdef env d rv cost
      | Some _, Sreg (Ri d) -> compile_idef env d rv cost
      | Some _, Sreg (Rb d) -> compile_bdef env d rv cost
      | Some _, Sreg (Rc d) -> compile_cdef env d rv cost
      | Some _, Sreg (Rv (d, lanes)) ->
        compile_vdef env d lanes rv cost generic
      | Some _, _ -> None
    in
    let intrin = match rv with Mir.Rintrin (name, _) -> Some name | _ -> None in
    charged ?intrin (Cost.class_of_rvalue rv) cost
      (match fused with Some f -> f | None -> generic ()))
  | Mir.Istore (a, idx, x) -> (
    match arr_ref env a with
    | Error msg -> Straight (None, fun _ -> raise (Runtime_error msg))
    | Ok aslot -> (
      let ix = index_of env idx ~len:aslot.alen ~what:a.Mir.vname in
      let ox = oper_of env x in
      let sty = Mir.elem_ty a in
      let cost =
        Cost.store_cost env.isa env.mode ~cplx:(sty.Mir.cplx = MT.Complex)
      in
      let k = aslot.aidx in
      charged "mem" cost
      (match aslot.bank with
      | AKf -> (
        match reg_tag ox with
        | Some (t, s) ->
          (* real register -> double bank: read inline, no boxing *)
          fun st ->
            let i = index st ix in
            Array.unsafe_set (Array.unsafe_get st.farrs k) i (rd_f st t s);
            echarge st cost
        | None ->
          let gx = f_read ox in
          fun st ->
            let i = index st ix in
            let x = gx st in
            Array.unsafe_set (Array.unsafe_get st.farrs k) i x;
            echarge st cost)
      | AKi ->
        let gx = ci_read ox in
        fun st ->
          let i = index st ix in
          let x = gx st in
          Array.unsafe_set (Array.unsafe_get st.iarrs k) i x;
          echarge st cost
      | AKb ->
        let gx = b_read ox in
        fun st ->
          let i = index st ix in
          let x = gx st in
          Array.unsafe_set (Array.unsafe_get st.barrs k) i x;
          echarge st cost
      | AKc -> (
        match ox with
        | Oc s ->
          (* creg -> complex bank: straight float copy, no boxing *)
          fun st ->
            let i = index st ix in
            let re = Array.unsafe_get st.cregs (2 * s) in
            let im = Array.unsafe_get st.cregs ((2 * s) + 1) in
            let ca = Array.unsafe_get st.carrs k in
            Array.unsafe_set ca (2 * i) re;
            Array.unsafe_set ca ((2 * i) + 1) im;
            echarge st cost
        | _ ->
          let gx = c_read ox in
          fun st ->
            let i = index st ix in
            let z = gx st in
            let ca = Array.unsafe_get st.carrs k in
            Array.unsafe_set ca (2 * i) z.Complex.re;
            Array.unsafe_set ca ((2 * i) + 1) z.Complex.im;
            echarge st cost))))
  | Mir.Ivstore (a, base, x, lanes) -> (
    match arr_ref env a with
    | Error msg -> Straight (None, fun _ -> raise (Runtime_error msg))
    | Ok aslot -> (
      let len = aslot.alen and k = aslot.aidx and name = a.Mir.vname in
      let ix = index_of env base ~len ~what:name in
      let cost = Cost.vstore_cost env.isa in
      let ox = oper_of env x in
      (* Elementwise coercing store into the typed bank, identical to
         [arr.(b+k) <- V.coerce sty vec.(k)] on the boxed bank. *)
      let set_elem : state -> int -> Value.scalar -> unit =
        match aslot.bank with
        | AKf ->
          fun st i s ->
            Array.unsafe_set (Array.unsafe_get st.farrs k) i (V.to_float s)
        | AKi ->
          fun st i s ->
            Array.unsafe_set
              (Array.unsafe_get st.iarrs k)
              i
              (Store.coerce_int_exn s)
        | AKb ->
          fun st i s ->
            Array.unsafe_set (Array.unsafe_get st.barrs k) i (V.to_bool s)
        | AKc ->
          fun st i s ->
            let z = V.to_complex s in
            let ca = Array.unsafe_get st.carrs k in
            Array.unsafe_set ca (2 * i) z.Complex.re;
            Array.unsafe_set ca ((2 * i) + 1) z.Complex.im
      in
      let store_boxed st b v =
        match v with
        | Value.Vector vec when Array.length vec = lanes ->
          for j = 0 to lanes - 1 do
            set_elem st (b + j) (Array.unsafe_get vec j)
          done;
          echarge st cost
        | Value.Vector _ -> fail "vector store width mismatch"
        | Value.Scalar _ -> fail "vector store of a scalar"
      in
      charged "simd" cost
      (match (aslot.bank, ox) with
      | AKf, Ov (s, vl) ->
        (* The dominant vectorized shape: unboxed register into a
           real-double array is a straight blit. *)
        fun st ->
          let b = index st ix in
          if b + lanes > len then fail "vector store past end of %s" name;
          (match Array.unsafe_get st.vboxs s with
          | None ->
            if vl = lanes then begin
              Array.blit
                (Array.unsafe_get st.vbufs s)
                0
                (Array.unsafe_get st.farrs k)
                b lanes;
              echarge st cost
            end
            else fail "vector store width mismatch"
          | Some v -> store_boxed st b v)
      | _ ->
        let gx = v_read ox in
        fun st ->
          let b = index st ix in
          if b + lanes > len then fail "vector store past end of %s" name;
          store_boxed st b (gx st))))
  | Mir.Iif (c, then_b, else_b) ->
    let gc = b_read (oper_of env c) in
    let ft = compile_block env then_b and fe = compile_block env else_b in
    let cost = Cost.branch_cost env.isa in
    let site = control_site env line "branch" cost in
    Control
      (fun st ->
        charge_at st site cost;
        if gc st then ft st else fe st)
  | Mir.Iloop { ivar; lo; step; hi; body } ->
    Control (compile_loop env line ivar lo step hi body)
  | Mir.Iwhile { cond_block; cond; body } ->
    let fcond_b = compile_block env cond_block in
    let gc = b_read (oper_of env cond) in
    let fbody = catch_continue body (compile_block env body) in
    let cost = Cost.branch_cost env.isa in
    let site = control_site env line "branch" cost in
    let run st =
      let continue_ = ref true in
      while !continue_ do
        fcond_b st;
        charge_at st site cost;
        if gc st then fbody st else continue_ := false
      done
    in
    (* a break in the condition block also ends this loop *)
    Control (catch_break (cond_block @ body) run)
  | Mir.Ibreak -> Control (fun _ -> raise Break_exc)
  | Mir.Icontinue -> Control (fun _ -> raise Continue_exc)
  | Mir.Ireturn -> Control (fun _ -> raise Return_exc)
  | Mir.Iprint (fmt, ops) -> (
    let fetchers =
      List.map
        (fun op ->
          match op with
          | Mir.Ovar v when Mir.is_array v -> (
            match arr_ref env v with
            | Ok aslot ->
              let box = boxed_array aslot in
              fun st -> Array.to_list (box st)
            | Error msg -> fun _ -> raise (Runtime_error msg))
          | _ ->
            let g = s_read (oper_of env op) in
            fun st -> [ g st ])
        ops
    in
    let flatten st = List.concat_map (fun fetch -> fetch st) fetchers in
    Straight (None,
    match fmt with
    | Some f -> fun st -> Buffer.add_string st.out (render_format f (flatten st))
    | None ->
      fun st ->
        List.iter
          (fun s ->
            Buffer.add_string st.out (Format.asprintf "%a " V.pp_scalar s))
          (flatten st);
        Buffer.add_char st.out '\n'))
  | Mir.Icomment text ->
    if String.length text >= 6 && String.sub text 0 6 = "inline" then (
      let cost = Cost.call_boundary_cost env.isa env.mode in
      charged "call" cost (fun st -> echarge st cost))
    else Straight (None, fun _ -> ())

and compile_loop env line (ivar : Mir.var) lo step hi body : state -> unit =
  let lead = row env line "loop" (Cost.loop_iter_cost env.isa) in
  let fbody = catch_continue body (compile_block ~lead env body) in
  let bcost = Cost.branch_cost env.isa in
  let bsite = control_site env line "branch" bcost in
  let ivslot = slot_of env ivar in
  let olo = oper_of env lo
  and ostep = oper_of env step
  and ohi = oper_of env hi in
  (* Static loop representation; must agree with the demotion pass in
     [compile], which keeps an induction variable typed only when its
     slot matches this classification. *)
  let rep = function
    | Oi _ | Ob _ -> `I
    | Of _ -> `F
    | Oc _ | Ov _ | Og _ -> `X
  in
  let static_rep =
    match (rep olo, rep ostep, rep ohi) with
    | `I, `I, `I -> `Int
    | (`I | `F), (`I | `F), (`I | `F) -> `Float
    | _ -> `Dyn
  in
  match (ivslot, static_rep) with
  | Sreg (Ri iv), `Int ->
    (* All three bounds are statically Si/Sb, so the tree-walker's
       runtime [int_loop] test is true and induction values are raw
       [Si] — matching the variable's Int slot. Fully unboxed. *)
    let gl = i_read olo and gs = i_read ostep and gh = i_read ohi in
    let iterate =
      catch_break body (fun st ->
          let l = gl st in
          let s = gs st in
          let h = gh st in
          if s >= 0 then begin
            let v = ref l in
            while !v <= h do
              Array.unsafe_set st.iregs iv !v;
              fbody st;
              v := !v + s
            done
          end
          else begin
            let v = ref l in
            while !v >= h do
              Array.unsafe_set st.iregs iv !v;
              fbody st;
              v := !v + s
            done
          end)
    in
    fun st ->
      iterate st;
      charge_at st bsite bcost
  | Sreg (Rf iv), `Float ->
    (* At least one bound is statically Sf, so [int_loop] is false and
       induction values are raw [Sf] — matching the Double slot. The
       counter lives in a private shadow slot of the float bank so the
       loop never touches a boxed float: body writes to the induction
       register cannot perturb iteration (the tree-walker advances from
       its own saved value too). *)
    let gl = f_read olo and gs = f_read ostep and gh = f_read ohi in
    let sh = fshadow env in
    let iterate =
      catch_break body (fun st ->
          let fr = st.fregs in
          Array.unsafe_set fr sh (gl st);
          let s = gs st in
          let h = gh st in
          if s >= 0.0 then
            while Array.unsafe_get fr sh <= h do
              Array.unsafe_set fr iv (Array.unsafe_get fr sh);
              fbody st;
              Array.unsafe_set fr sh (Array.unsafe_get fr sh +. s)
            done
          else
            while Array.unsafe_get fr sh >= h do
              Array.unsafe_set fr iv (Array.unsafe_get fr sh);
              fbody st;
              Array.unsafe_set fr sh (Array.unsafe_get fr sh +. s)
            done)
    in
    fun st ->
      iterate st;
      charge_at st bsite bcost
  | ivslot, _ ->
    (* General path: boxed bounds, runtime int/float dispatch, raw
       boxed induction writes. The demotion pass guarantees the
       induction variable is a boxed register (or an array, which
       fails at runtime exactly like the tree-walker). *)
    let glo = s_read olo
    and gstep = s_read ostep
    and ghi = s_read ohi in
    let brk = breaks_out body in
    let iv_write =
      match ivslot with
      | Sreg (Rg s) -> fun st v -> Array.unsafe_set st.gregs s v
      | Sreg _ -> assert false (* demotion pass keeps typed ivars out *)
      | Sarr _ ->
        let msg =
          Printf.sprintf "variable %s.%d used as a register" ivar.Mir.vname
            ivar.Mir.vid
        in
        fun _ _ -> raise (Runtime_error msg)
    in
    fun st ->
      let lo_v = glo st in
      let step_v = gstep st in
      let hi_v = ghi st in
      let int_loop =
        match (lo_v, step_v, hi_v) with
        | (V.Si _ | V.Sb _), (V.Si _ | V.Sb _), (V.Si _ | V.Sb _) -> true
        | _ -> false
      in
      (* the tree-walker fetches the induction register before the first
         bound test, so an array induction variable fails even for
         zero-trip loops *)
      (match ivslot with
      | Sarr _ -> iv_write st (Value.Scalar lo_v)
      | Sreg _ -> ());
      let continue_loop v =
        if int_loop then
          if V.to_int step_v >= 0 then V.to_int v <= V.to_int hi_v
          else V.to_int v >= V.to_int hi_v
        else if V.to_float step_v >= 0.0 then V.to_float v <= V.to_float hi_v
        else V.to_float v >= V.to_float hi_v
      in
      let next v =
        if int_loop then V.Si (V.to_int v + V.to_int step_v)
        else V.Sf (V.to_float v +. V.to_float step_v)
      in
      let rec go v =
        if continue_loop v then begin
          iv_write st (Value.Scalar v);
          fbody st;
          go (next v)
        end
      in
      if brk then (try go lo_v with Break_exc -> ()) else go lo_v;
      charge_at st bsite bcost

(* ---------------- whole-function plans ---------------- *)

(* Static representation of a scalar variable, from the demotion
   analysis: a typed kind guarantees the variable's runtime value is
   always a scalar of that representation. *)
type vkind = KF | KI | KB | KC | KV of int | KG

type aspec = { alen : int; aparam : bool }

type bind =
  | Bscalar of rslot * Mir.scalar_ty * string
  | Barray of aslot * string

type t = {
  fname : string;
  nparams : int;
  binds : bind list;
  ret_slots : slot list;
  (* Bank sizes include pooled constants and loop-shadow slots past the
     variable slots; [*init] carries the constant initializers. *)
  nfregs : int;
  niregs : int;
  nbregs : int;
  ncregs : int;  (* in re/im pairs *)
  finit : (int * float) array;
  iinit : (int * int) array;
  binit : (int * bool) array;
  cinit : (int * Complex.t) array;
  vlanes : int array;  (* declared width per vector register *)
  ginit : Value.t array;  (* initial boxed register file *)
  fspecs : aspec array;
  ispecs : aspec array;
  bspecs : aspec array;
  cspecs : aspec array;
  classes : string array;  (* interned class id -> name *)
  abytes : int;  (* static array footprint, for the allocation cap *)
  sites : row array array;  (* charge site id -> its rows *)
  body_fn : state -> unit;
}

let compile ~isa ~mode (f : Mir.func) : t =
  (* Variable collection pre-pass: params, rets, declared vars, then a
     defensive body walk (the tree-walker materializes cells lazily for
     any vid it meets, so the plan must cover the same set). *)
  let seen_vars = Hashtbl.create 64 in
  let var_order = ref [] in
  let add (v : Mir.var) =
    if not (Hashtbl.mem seen_vars v.Mir.vid) then begin
      Hashtbl.add seen_vars v.Mir.vid ();
      var_order := v :: !var_order
    end
  in
  let scan_op = function Mir.Ovar v -> add v | Mir.Oconst _ -> () in
  let scan_rvalue = function
    | Mir.Rbin (_, a, b) ->
      scan_op a;
      scan_op b
    | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _)
    | Mir.Rvreduce (_, a) ->
      scan_op a
    | Mir.Rmath (_, ops) | Mir.Rintrin (_, ops) -> List.iter scan_op ops
    | Mir.Rcomplex (re, im) ->
      scan_op re;
      scan_op im
    | Mir.Rload (a, idx) ->
      add a;
      scan_op idx
    | Mir.Rvload (a, base, _) ->
      add a;
      scan_op base
  in
  let rec scan_block b = List.iter scan_instr b
  and scan_instr i =
    match i.Mir.idesc with
    | Mir.Idef (v, rv) ->
      add v;
      scan_rvalue rv
    | Mir.Istore (a, idx, x) ->
      add a;
      scan_op idx;
      scan_op x
    | Mir.Ivstore (a, base, x, _) ->
      add a;
      scan_op base;
      scan_op x
    | Mir.Iif (c, t, e) ->
      scan_op c;
      scan_block t;
      scan_block e
    | Mir.Iloop { ivar; lo; step; hi; body } ->
      add ivar;
      scan_op lo;
      scan_op step;
      scan_op hi;
      scan_block body
    | Mir.Iwhile { cond_block; cond; body } ->
      scan_block cond_block;
      scan_op cond;
      scan_block body
    | Mir.Iprint (_, ops) -> List.iter scan_op ops
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ()
  in
  List.iter add f.Mir.params;
  List.iter add f.Mir.rets;
  List.iter add f.Mir.vars;
  scan_block f.Mir.body;
  let vars = List.rev !var_order in
  (* Initial kinds from the declared types. *)
  let kinds : (int, vkind) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v : Mir.var) ->
      match v.Mir.vty with
      | Mir.Tscalar sty ->
        let k =
          match (sty.Mir.cplx, sty.Mir.base, sty.Mir.lanes) with
          | MT.Complex, _, 1 -> KC
          | MT.Real, MT.Double, 1 -> KF
          | MT.Real, MT.Int, 1 -> KI
          | MT.Real, MT.Bool, 1 -> KB
          | MT.Real, MT.Double, n when n > 1 -> KV n
          | _ -> KG
        in
        Hashtbl.replace kinds v.Mir.vid k
      | Mir.Tarray _ -> ())
    vars;
  (* Demotion fixpoint. A typed slot must ALWAYS hold its declared
     representation, but the tree-walker has two escape hatches: def
     targets may receive vector values (the verifier does not check
     def-target lanes), and loop induction variables are written raw,
     without coercion. Demote to a boxed register any scalar whose defs
     could produce a vector given current kinds, and any induction
     variable whose loop representation is not statically forced to
     match its slot. Demotion makes a variable's reads generic, which
     can invalidate earlier conclusions — iterate to fixpoint (kinds
     move monotonically toward KG, so this terminates). *)
  let changed = ref true in
  let demote vid =
    match Hashtbl.find_opt kinds vid with
    | Some KG | None -> ()
    | Some _ ->
      Hashtbl.replace kinds vid KG;
      changed := true
  in
  let op_pv = function
    | Mir.Oconst _ -> false
    | Mir.Ovar v -> (
      match Hashtbl.find_opt kinds v.Mir.vid with
      | Some (KV _) | Some KG -> true
      | _ -> false)
  in
  let rv_pv = function
    | Mir.Rbin (_, a, b) -> op_pv a || op_pv b
    | Mir.Runop (_, a) | Mir.Rmove a -> op_pv a
    | Mir.Rintrin (_, ops) -> List.exists op_pv ops
    | Mir.Rvload _ | Mir.Rvbroadcast _ -> true
    | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rload _ | Mir.Rvreduce _ -> false
  in
  let bound_rep = function
    | Mir.Oconst (Mir.Ci _) | Mir.Oconst (Mir.Cb _) -> `I
    | Mir.Oconst (Mir.Cf _) -> `F
    | Mir.Oconst (Mir.Cc _) -> `X
    | Mir.Ovar v -> (
      match Hashtbl.find_opt kinds v.Mir.vid with
      | Some KI | Some KB -> `I
      | Some KF -> `F
      | _ -> `X)
  in
  let rec demote_block b = List.iter demote_instr b
  and demote_instr i =
    match i.Mir.idesc with
    | Mir.Idef (v, rv) -> (
      match Hashtbl.find_opt kinds v.Mir.vid with
      | Some (KF | KI | KB | KC) when rv_pv rv -> demote v.Mir.vid
      | _ -> ())
    | Mir.Iloop { ivar; lo; step; hi; body } ->
      (match Hashtbl.find_opt kinds ivar.Mir.vid with
      | None -> () (* array induction variable: runtime error path *)
      | Some k ->
        let lrep =
          match (bound_rep lo, bound_rep step, bound_rep hi) with
          | `I, `I, `I -> `Int
          | (`I | `F), (`I | `F), (`I | `F) -> `Float
          | _ -> `Dyn
        in
        let ok =
          match (k, lrep) with
          | KI, `Int | KF, `Float | KG, _ -> true
          | _ -> false
        in
        if not ok then demote ivar.Mir.vid);
      demote_block body
    | Mir.Iif (_, t, e) ->
      demote_block t;
      demote_block e
    | Mir.Iwhile { cond_block; body; _ } ->
      demote_block cond_block;
      demote_block body
    | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn
    | Mir.Iprint _ | Mir.Icomment _ ->
      ()
  in
  while !changed do
    changed := false;
    demote_block f.Mir.body
  done;
  (* Slot assignment per bank, in first-seen order. *)
  let slots = Hashtbl.create 64 in
  let param_vids = Hashtbl.create 8 in
  List.iter
    (fun (p : Mir.var) -> Hashtbl.replace param_vids p.Mir.vid ())
    f.Mir.params;
  let nf = ref 0
  and ni = ref 0
  and nb = ref 0
  and nc = ref 0
  and ng = ref 0
  and nv = ref 0 in
  let vlanes_rev = ref [] and ginit_rev = ref [] in
  let nfa = ref 0 and nia = ref 0 and nba = ref 0 and nca = ref 0 in
  let fsp = ref [] and isp = ref [] and bsp = ref [] and csp = ref [] in
  List.iter
    (fun (v : Mir.var) ->
      match v.Mir.vty with
      | Mir.Tscalar sty -> (
        match Hashtbl.find kinds v.Mir.vid with
        | KF ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rf !nf));
          incr nf
        | KI ->
          Hashtbl.add slots v.Mir.vid (Sreg (Ri !ni));
          incr ni
        | KB ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rb !nb));
          incr nb
        | KC ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rc !nc));
          incr nc
        | KV l ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rv (!nv, l)));
          vlanes_rev := l :: !vlanes_rev;
          incr nv
        | KG ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rg !ng));
          ginit_rev := Value.Scalar (V.coerce sty (V.Si 0)) :: !ginit_rev;
          incr ng)
      | Mir.Tarray (sty, n) ->
        let spec = { alen = n; aparam = Hashtbl.mem param_vids v.Mir.vid } in
        let bank, idx =
          match (sty.Mir.cplx, sty.Mir.base) with
          | MT.Complex, _ ->
            csp := spec :: !csp;
            let i = !nca in
            incr nca;
            (AKc, i)
          | MT.Real, MT.Double ->
            fsp := spec :: !fsp;
            let i = !nfa in
            incr nfa;
            (AKf, i)
          | MT.Real, MT.Int ->
            isp := spec :: !isp;
            let i = !nia in
            incr nia;
            (AKi, i)
          | MT.Real, MT.Bool ->
            bsp := spec :: !bsp;
            let i = !nba in
            incr nba;
            (AKb, i)
          | MT.Real, MT.Err ->
            invalid_arg "Plan: poison type reached the VM"
        in
        Hashtbl.add slots v.Mir.vid (Sarr { bank; aidx = idx; alen = n }))
    vars;
  let env =
    { isa; mode; slots;
      cls_ids = Hashtbl.create 16; cls_rev = []; ncls = 0;
      sites_rev = []; nsites = 0;
      nfx = !nf; nix = !ni; nbx = !nb; ncx = !nc;
      fdedup = Hashtbl.create 16; idedup = Hashtbl.create 16;
      bdedup = Hashtbl.create 4; cdedup = Hashtbl.create 8;
      finit = []; iinit = []; binit = []; cinit = [] }
  in
  let body_fn = compile_block env f.Mir.body in
  let binds =
    List.map
      (fun (p : Mir.var) ->
        match (slot_of env p, p.Mir.vty) with
        | Sreg rs, Mir.Tscalar sty -> Bscalar (rs, sty, p.Mir.vname)
        | Sarr a, Mir.Tarray _ -> Barray (a, p.Mir.vname)
        | _ -> assert false)
      f.Mir.params
  in
  { fname = f.Mir.name;
    nparams = List.length f.Mir.params;
    binds;
    ret_slots = List.map (slot_of env) f.Mir.rets;
    nfregs = env.nfx;
    niregs = env.nix;
    nbregs = env.nbx;
    ncregs = env.ncx;
    finit = Array.of_list (List.rev env.finit);
    iinit = Array.of_list (List.rev env.iinit);
    binit = Array.of_list (List.rev env.binit);
    cinit = Array.of_list (List.rev env.cinit);
    vlanes = Array.of_list (List.rev !vlanes_rev);
    ginit = Array.of_list (List.rev !ginit_rev);
    fspecs = Array.of_list (List.rev !fsp);
    ispecs = Array.of_list (List.rev !isp);
    bspecs = Array.of_list (List.rev !bsp);
    cspecs = Array.of_list (List.rev !csp);
    classes = Array.of_list (List.rev env.cls_rev);
    abytes = Exec.array_bytes_of_func f;
    sites = Array.of_list (List.rev env.sites_rev);
    body_fn }

let execute ?(max_cycles = 4_000_000_000) ?(fuel = Exec.default_fuel)
    ?(max_alloc_bytes = Exec.default_max_alloc_bytes) ?profile (p : t)
    (args : xvalue list) : result =
  if List.length args <> p.nparams then
    fail "%s expects %d arguments, received %d" p.fname p.nparams
      (List.length args);
  Exec.check_alloc ~loc:p.fname ~cap_bytes:max_alloc_bytes p.abytes;
  (* Fault site: one draw per simulation; a firing draw schedules the
     failure at a seed-chosen dynamic-instruction index so mid-run
     recovery is exercised, not just entry failures. *)
  let fault_occ, fault_step =
    match Masc_fault.Fault.draw "sim.step" with
    | Some (occ, step) -> (occ, step)
    | None -> (0, -1)
  in
  let guard_on = Masc_fault.Cancel.armed () in
  (* No fuel trap up to [fuel] steps, no injected fault before
     [fault_step]. *)
  let base_event = if fault_step > 0 then min fuel (fault_step - 1) else fuel in
  (* Fresh typed state. Unwritten registers read as the zero of their
     declared type, like the tree-walker's lazily-created cells;
     parameter arrays are replaced whole by binding, so skip the fill. *)
  let st =
    { fregs = Array.make p.nfregs 0.0;
      iregs = Array.make p.niregs 0;
      bregs = Array.make p.nbregs false;
      cregs = Array.make (2 * p.ncregs) 0.0;
      vbufs = Array.map (fun l -> Array.make l 0.0) p.vlanes;
      vboxs = Array.map (fun _ -> Some (Value.Scalar (V.Sf 0.0))) p.vlanes;
      gregs = Array.copy p.ginit;
      farrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make s.alen 0.0)
          p.fspecs;
      iarrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make s.alen 0)
          p.ispecs;
      barrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make s.alen false)
          p.bspecs;
      carrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make (2 * s.alen) 0.0)
          p.cspecs;
      cycles = 0;
      dyn = 0;
      max_cycles;
      fuel;
      floc = p.fname;
      counts = Array.make (Array.length p.sites) 0;
      firsts = Array.make (Array.length p.sites) 0;
      nfirst = 0;
      out = Buffer.create 256;
      guard_on;
      fault_step = fault_step;
      fault_occ = fault_occ;
      base_event;
      next_event =
        (if guard_on then min base_event Exec.guard_mask else base_event);
      exact = false }
  in
  Array.iter (fun (i, v) -> st.fregs.(i) <- v) p.finit;
  Array.iter (fun (i, v) -> st.iregs.(i) <- v) p.iinit;
  Array.iter (fun (i, v) -> st.bregs.(i) <- v) p.binit;
  Array.iter
    (fun (i, (z : Complex.t)) ->
      st.cregs.(2 * i) <- z.Complex.re;
      st.cregs.((2 * i) + 1) <- z.Complex.im)
    p.cinit;
  List.iter2
    (fun bind arg ->
      match (bind, arg) with
      | Bscalar (rs, sty, _), Xscalar x -> (
        match rs with
        | Rf d -> st.fregs.(d) <- V.to_float x
        | Ri d -> st.iregs.(d) <- Store.coerce_int_exn x
        | Rb d -> st.bregs.(d) <- V.to_bool x
        | Rc d ->
          let z = V.to_complex x in
          st.cregs.(2 * d) <- z.Complex.re;
          st.cregs.((2 * d) + 1) <- z.Complex.im
        | Rv (d, _) -> st.vboxs.(d) <- Some (Value.Scalar (V.coerce sty x))
        | Rg d -> st.gregs.(d) <- Value.Scalar (V.coerce sty x))
      | Barray (a, name), Xarray arr -> (
        if Array.length arr <> a.alen then
          fail "argument %s: expected %d elements, received %d" name a.alen
            (Array.length arr);
        match a.bank with
        | AKf -> st.farrs.(a.aidx) <- Store.floats_of_scalars arr
        | AKi -> st.iarrs.(a.aidx) <- Store.ints_of_scalars arr
        | AKb -> st.barrs.(a.aidx) <- Store.bools_of_scalars arr
        | AKc -> st.carrs.(a.aidx) <- Store.complex_of_scalars arr)
      | Bscalar (_, _, name), Xarray _ | Barray (_, name), Xscalar _ ->
        fail "argument %s: scalar/array mismatch" name)
    p.binds args;
  (try p.body_fn st with Return_exc -> ());
  let rets =
    List.map
      (function
        | Sreg (Rf d) -> Xscalar (V.Sf st.fregs.(d))
        | Sreg (Ri d) -> Xscalar (V.Si st.iregs.(d))
        | Sreg (Rb d) -> Xscalar (V.Sb st.bregs.(d))
        | Sreg (Rc d) ->
          Xscalar
            (V.Sc
               { Complex.re = st.cregs.(2 * d);
                 im = st.cregs.((2 * d) + 1) })
        | Sreg (Rv (d, _)) -> Xscalar (vreg_scalar st d)
        | Sreg (Rg d) -> Xscalar (scalar_of_value st.gregs.(d))
        | Sarr a -> Xarray (boxed_array a st))
      p.ret_slots
  in
  (* The class histogram (and the profile, when collected) is each
     entered site's rows times its entry count. Walking sites in
     first-entry order, each site's rows in charge order, meets the
     classes in first-charge order; the histogram is rebuilt through a
     Hashtbl populated in that order — the exact sequence of inserts
     the tree-walker performs — so fold order, and therefore tie order
     after the by-count sort, is bit-identical to [Interp.run_tree]. *)
  let hist = Array.make (Array.length p.classes) (-1) and cls_rev = ref [] in
  for i = 0 to st.nfirst - 1 do
    let s = st.firsts.(i) in
    let k = st.counts.(s) in
    Array.iter
      (fun r ->
        if hist.(r.cls) < 0 then begin
          hist.(r.cls) <- 0;
          cls_rev := r.cls :: !cls_rev
        end;
        let cycles = k * r.cyc in
        hist.(r.cls) <- hist.(r.cls) + cycles;
        match profile with
        | None -> ()
        | Some col ->
          Masc_obs.Profile.add_line col r.line ~cycles ~instrs:k;
          Masc_obs.Profile.add_class col p.classes.(r.cls) ~cycles ~instrs:k;
          Option.iter
            (fun n -> Masc_obs.Profile.add_intrin col n ~cycles ~instrs:k)
            r.intrin)
      p.sites.(s)
  done;
  let h = Hashtbl.create 16 in
  List.iter
    (fun c -> Hashtbl.replace h p.classes.(c) hist.(c))
    (List.rev !cls_rev);
  { rets;
    cycles = st.cycles;
    dyn_instrs = st.dyn;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    output = Buffer.contents st.out }
