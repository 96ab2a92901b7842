(** Process-wide registry of named counters, gauges and histograms.

    One dump format shared by [mascc --metrics], the bench JSON (schema
    v4) and tests. Thread-safe; counter aggregation is commutative so
    dumps are deterministic under [--jobs]. *)

type kind = Counter | Gauge | Histogram

(** [incr ?by name] bumps counter [name] (created on first use). *)
val incr : ?by:int -> string -> unit

(** [set name v] sets gauge [name] to [v]. *)
val set : string -> float -> unit

(** [observe name v] records [v] into histogram [name]
    (count/sum/min/max). *)
val observe : string -> float -> unit

(** Counter value, gauge level, or histogram sum; [None] if the metric
    was never touched. *)
val get : string -> float option

val reset : unit -> unit

(** Exact nearest-rank quantile over an unsorted sample array
    ([quantile xs 50.0] is the median; empty input yields 0). Shared by
    the histogram dumps, [batch --summary] and [Health]. *)
val quantile : float array -> float -> float

(** One line per metric, sorted by name; histograms report exact
    p50/p90/p99 from retained samples. *)
val dump_text : unit -> string

(** The registry as a JSON object keyed by metric name, sorted; stable
    schema [{"type":"counter","value":n}] / [{"type":"gauge",...}] /
    [{"type":"histogram","count":n,"sum":s,"min":m,"max":M,
      "p50":..,"p90":..,"p99":..}]. *)
val to_json : unit -> Ojson.t
