(* The host's speed, measured with a fixed piece of work that belongs to
   the benchmark: no change to the measured program can make it faster
   or slower. The host is shared, and its speed drifts by tens of
   percent over minutes; slices of this work, run between a workload's
   operations, see the same drift as the operations do. *)

(* The work imitates the program's: a tree walked by pattern matching
   (pointer chasing, like the compiler's passes), a hash table probed,
   the tree compiled to closures evaluated over an array (like the
   simulator's plans), and a 2 MB buffer written end to end (like the
   allocation of short-lived values). Everything is built once and the
   buffer lives outside the OCaml heap: a slice allocates nothing, so it
   never does the collector's work for the workload around it, and a
   change to how much the program allocates cannot change its time. *)
type e = Num of int | Var of int | Add of e * e | Mul of e * e | Neg of e

let tree =
  let st = Random.State.make [| 20160314 |] in
  let rec gen d =
    if d = 0 then
      if Random.State.bool st then Num (Random.State.int st 100)
      else Var (Random.State.int st 8)
    else
      match Random.State.int st 5 with
      | 0 | 1 -> Add (gen (d - 1), gen (d - 1))
      | 2 | 3 -> Mul (gen (d - 1), gen (d - 1))
      | _ -> Neg (gen (d - 1))
  in
  gen 12

let rec walk acc = function
  | Num x -> (acc * 31) + x
  | Var i -> (acc * 17) + i
  | Add (a, b) -> walk (walk (acc + 1) a) b
  | Mul (a, b) -> walk (walk (acc + 2) a) b
  | Neg a -> walk (acc + 3) a

let table =
  let t = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace t (i * 7919) i
  done;
  t

let rec compile = function
  | Num x -> fun _ -> x
  | Var i -> fun env -> Array.unsafe_get env i
  | Add (a, b) ->
    let a = compile a and b = compile b in
    fun env -> a env + b env
  | Mul (a, b) ->
    let a = compile a and b = compile b in
    fun env -> (a env * b env) land 0xffff
  | Neg a ->
    let a = compile a in
    fun env -> -a env

let eval = compile tree

let env = Array.make 8 1

let buffer : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)

let sink = ref 0

(* One slice of the work; returns its duration in ns. *)
let slice () =
  let t0 = Spans.now_ns () in
  let acc = ref (walk 0 tree) in
  for j = 0 to 1023 do
    (* Every key is present. *)
    acc := !acc + Hashtbl.find table (((!acc + j) land 4095) * 7919)
  done;
  for j = 1 to 8 do
    env.(j land 7) <- j + !acc;
    acc := !acc + eval env
  done;
  for i = 0 to Bigarray.Array1.dim buffer - 1 do
    Bigarray.Array1.unsafe_set buffer i (i + !acc)
  done;
  sink := !acc;
  Int64.to_float (Int64.sub (Spans.now_ns ()) t0)

(* The reference host runs one timed slice in this time: a round figure
   near the slice's time on a 2-vCPU x86-64 cloud VM (OCaml 5.1). *)
let reference_ns = 700_000.0

(* Slices run beside a stretch of work: the time (ns) of each timed one. *)
type meter = { mutable spent : float; mutable samples : float list }

let meter () = { spent = 0.0; samples = [] }

(* Slices run in pairs and only the second is kept: the first brings
   the slice's data back into the caches, so how much of them the
   program used between slices does not change the time kept. *)
let run m =
  let warm = slice () in
  let d = slice () in
  m.spent <- m.spent +. warm +. d;
  m.samples <- d :: m.samples

(* Runs slices until they have taken [share] of the time since [t0]:
   called between operations, it spreads the slices evenly over a
   phase. *)
let keep_up m ~share ~t0 =
  let elapsed () = Int64.to_float (Int64.sub (Spans.now_ns ()) t0) in
  while m.spent < share *. elapsed () do
    run m
  done

(* How many times slower than the reference host this host ran while
   the meter was running: its median slice time over the reference's.
   Dividing a duration by it (multiplying a rate) gives the figure at
   the reference host's speed. *)
let factor m =
  match m.samples with
  | [] -> 1.0
  | l -> Pstats.median (Array.of_list l) /. reference_ns
