(** Closure-threaded execution plans for the cycle-accurate simulator.

    A plan is a MIR function pre-compiled — once — into a tree of OCaml
    closures with variables resolved to dense slots in monomorphic
    typed register banks ([float array] for real doubles, [int array],
    [bool array], interleaved re/im [float array] for complex, plus a
    boxed bank for the demoted remainder), static per-instruction costs
    and histogram classes memoized from {!Masc_asip.Cost_model},
    constants pooled into the same banks at plan time, intrinsics
    pre-resolved to their descriptions, and fast paths for hot shapes
    (constant-bound typed loops, fused unboxed float/complex
    definitions and stores, constant-index memory accesses). Boxed
    {!Value.scalar}s appear only at the argument/return boundary (see
    {!Store}).

    [execute] is observably bit-identical to the legacy tree-walking
    interpreter {!Interp.run_tree}: same return values, cycle counts,
    dynamic instruction counts, histogram (including ordering), printed
    output and error behaviour — it just runs several times faster. A
    plan is immutable and reusable: each [execute] call runs on fresh
    state, so one plan can serve many simulations of the same function
    (see [Masc.Compiler.compiled], which caches one per compilation). *)

type t

(** [compile ~isa ~mode f] walks [f] once and builds its plan. Cheap
    (linear in the static instruction count); never raises for programs
    that the tree-walker could start executing — dynamic failures
    (missing intrinsics, bad indices, type misuse) stay runtime errors
    raised at the same execution point as in the tree-walker.

    Every charge belongs to a static charge site — a straight-line
    segment, or the charge point of an [if], a [while] test or a [for]
    exit — whose per-charge rows (source line, opcode class, intrinsic,
    cycles) are fixed here. A run keeps one ledger: how often each site
    was entered, and in which order sites were first entered. *)
val compile :
  isa:Masc_asip.Isa.t -> mode:Masc_asip.Cost_model.mode -> Masc_mir.Mir.func ->
  t

(** [execute p args] runs the plan on fresh state. Argument binding,
    defaults and failure modes match {!Interp.run} exactly, including
    the {!Exec.Trap} guardrails (fuel, cycle limit, allocation cap).
    The class histogram is derived from the site ledger when the run
    returns.

    [?profile] supplies a collector that receives simulated cycles and
    dynamic instruction counts attributed per opcode class, per
    intrinsic, and per source line (exact partitions of the totals —
    same contract as {!Interp.run_tree}), derived from the same ledger:
    any plan can be profiled, and profiling does not change how it
    runs. The collector is filled only when [execute] returns; a run
    that raises leaves it untouched. *)
val execute :
  ?max_cycles:int -> ?fuel:int -> ?max_alloc_bytes:int ->
  ?profile:Masc_obs.Profile.t -> t ->
  Exec.xvalue list -> Exec.result
