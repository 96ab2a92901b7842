(** Deterministic seeded fault injection.

    Recovery code that is never executed is broken code waiting for an
    outage: every fault-tolerance path in the compile service (retry
    with backoff, cache corruption recovery, quarantine) is exercised by
    *injecting* the failures it guards against, deterministically, so
    tests and the CI soak can pin exact behavior under a fixed seed.

    A {e site} is a named point in the pipeline where one logical
    operation may be made to fail. The catalog (see {!sites}):

    - ["cache.read"] — a persistent-cache lookup ({!Masc.Disk_cache});
    - ["cache.write"] — a persistent-cache store;
    - ["pass.run"] — one optimization-stage fixpoint
      ({!Masc_opt.Pipeline.run_fixpoint});
    - ["plan.compile"] — building the execution plan
      ({!Masc.Compiler.plan});
    - ["sim.step"] — the simulator fails mid-run, at a seed-chosen
      dynamic-instruction index (both engines).

    Each check at a site draws from a per-site counter hashed with the
    global seed (splitmix64), so the decision sequence for a site is a
    pure function of [(seed, occurrence index)] — independent of wall
    clock, address-space layout or domain interleaving. A firing check
    raises {!Injected}, which the service layer treats as {e retryable}
    (unlike deterministic diagnostics or traps).

    Disabled — the default — a check is one atomic load. *)

(** The fault injected at [site], on that site's [occurrence]-th check
    (0-based). Retryable by construction: the next occurrence draws
    fresh. *)
exception Injected of { site : string; occurrence : int }

(** [splitmix64 z] is one round of the splitmix64 mixer (Steele, Lea
    and Flood's constants): the decision function behind every draw, and
    the service layer's retry-backoff jitter. *)
val splitmix64 : int64 -> int64

(** [to_unit z] is uniform in \[0, 1) from the top 53 bits of [z]. *)
val to_unit : int64 -> float

(** The site catalog, for validation and docs. *)
val sites : string list

(** [parse_spec "site:p,site:p"] parses the [MASC_FAULT] syntax; the
    pseudo-site [all] applies a probability to every cataloged site.
    Raises [Invalid_argument] on unknown sites or probabilities outside
    [0, 1]. *)
val parse_spec : string -> (string * float) list

(** [configure ~seed spec] arms the listed sites. Replaces any previous
    configuration and resets every per-site occurrence counter. *)
val configure : seed:int -> (string * float) list -> unit

(** Disarm every site (checks return to their one-atomic-load cost). *)
val disable : unit -> unit

(** [init_from_env ()] arms from [MASC_FAULT] / [MASC_FAULT_SEED] if
    set; raises [Invalid_argument] on a malformed spec (callers map it
    to a usage error). Returns [true] when a spec was found. *)
val init_from_env : unit -> bool

(** True when [site] is armed with probability > 0. Pre-read it outside
    a hot loop to skip even the check call. *)
val armed : string -> bool

(** [check ?detail site] draws the site's next occurrence and raises
    {!Injected} with probability p. Counts every injection in
    {!Masc_obs.Metrics} (["fault.injected"], ["fault.injected.<site>"])
    and journals it ({!Masc_obs.Journal}, kind ["fault.injected"]) with
    any extra [detail] pairs — e.g. the pass name at ["pass.run"]. *)
val check : ?detail:(string * string) list -> string -> unit

(** [draw site] is {!check} for code that needs to *schedule* the
    failure rather than fail at the check point: [None] when the
    occurrence does not fire, [Some (occurrence, step)] (step in
    \[1, 2048\]) when it does — the simulator fails [step] dynamic
    instructions into the run. The injection metric is counted when the
    caller raises {!injected}. *)
val draw : string -> (int * int) option

(** [injected ?detail ~site ~occurrence ()] counts the injection
    metrics, journals the event, and returns the {!Injected} exception
    for the caller to raise at its scheduled point. *)
val injected :
  ?detail:(string * string) list -> site:string -> occurrence:int -> unit -> exn
