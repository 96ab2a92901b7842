(* Summary statistics the benchmark reports. Kept independent of the
   program's own [Masc_obs.Metrics] so that a change to the measured
   program cannot change how it is measured; the tests pin [percentile]
   to the same nearest-rank definition. *)

(* Nearest rank: the smallest sample such that at least [p]% of the
   samples are <= it. Empty input yields 0. *)
let percentile (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.0

(* Operations come in rounds that repeat the same mix. [windowed ~round
   xs p] splits [xs] into windows of whole rounds holding at least 1000
   samples (so a p99 has ten samples beyond it), takes [percentile p] in
   each window and returns the median over windows: a burst of outside
   contention moves few windows. Fewer samples than one window: the
   plain percentile. *)
let window_size ~round = round * ((1000 + round - 1) / round)

let windowed ~round xs p =
  let size = window_size ~round in
  let windows = Array.length xs / size in
  if windows < 1 then percentile xs p
  else
    median
      (Array.init windows (fun w -> percentile (Array.sub xs (w * size) size) p))

let geomean xs =
  match xs with
  | [] -> invalid_arg "geomean: empty"
  | _ ->
    if List.exists (fun x -> not (x > 0.0)) xs then
      invalid_arg "geomean: non-positive sample";
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* Throughput of a stream that cycles through a fixed mix, at typical
   speed: every member's median latency, summed over the members run,
   is the time of one pass over the mix. Contention from outside the
   process comes in bursts that slow some samples of a member, not its
   median. [kind.(i)] names the member sample [i] ran, [lat.(i)] is its
   latency in ns, [work.(i)] any work it counted (instructions).
   Returns (samples per second, work per second). *)
let typical_rates ~kind ~lat ~work =
  let by = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      Hashtbl.replace by k (i :: Option.value ~default:[] (Hashtbl.find_opt by k)))
    kind;
  let members, ns, counted =
    Hashtbl.fold
      (fun _ samples (n, t, w) ->
        let med a = median (Array.of_list (List.map (fun i -> a.(i)) samples)) in
        (n + 1, t +. med lat, w +. med work))
      by (0, 0.0, 0.0)
  in
  let seconds = ns /. 1e9 in
  (float_of_int members /. seconds, counted /. seconds)
