(* The benchmark's own tracing: in-memory spans recorded around its
   calls into the program's layers, kept until the run ends. Nothing is
   recorded inside the program; a layer's self time is its span's
   duration minus the part of that interval its child spans cover.

   Recording is off by default (one [bool ref] test per call), which is
   how the untraced phases run. *)

type span = {
  name : string;
  lane : int;  (** one lane per worker: spans on a lane nest, lanes overlap *)
  t0 : int64;  (** monotonic ns *)
  t1 : int64;
  words : float;  (** minor words allocated by the recording domain *)
}

let now_ns () = Monotonic_clock.now ()

let enabled = ref false

(* Spans of a batch run are assembled on the main domain, but the
   callback that timestamps requests runs on worker domains. *)
let lock = Mutex.create ()

let buf : span list ref = ref []

let record s = Mutex.protect lock (fun () -> buf := s :: !buf)

let span ?(lane = 0) name f =
  if not !enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish () =
      record { name; lane; t0; t1 = now_ns (); words = Gc.minor_words () -. w0 }
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Every span recorded since the last [take], oldest first. *)
let take () =
  Mutex.protect lock (fun () ->
      let l = List.rev !buf in
      buf := [];
      l)

(* ---- self time ---- *)

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Measure of the union of [(a, b)] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Int64.max cb b))
          else (total +. Int64.to_float (Int64.sub cb ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with
  | None -> total
  | Some (a, b) -> total +. Int64.to_float (Int64.sub b a)

let contains outer inner = outer.t0 <= inner.t0 && inner.t1 <= outer.t1

(* [self_times spans] pairs every span with its self time in ns. On
   each lane a span's parent is the innermost span that encloses it; of
   two spans with the same interval, the one recorded later (it ended
   last) is the parent. Spans that merely overlap (which one lane never
   produces) are not nested. *)
let self_times (spans : span list) : (span * float) list =
  let by_lane = Hashtbl.create 4 in
  List.iteri
    (fun i s ->
      Hashtbl.replace by_lane s.lane
        ((i, s) :: Option.value ~default:[] (Hashtbl.find_opt by_lane s.lane)))
    spans;
  let out = ref [] in
  Hashtbl.iter
    (fun _ lane_spans ->
      (* Parents sort before their children: by start, longest first. *)
      let sorted =
        List.sort
          (fun (i, a) (j, b) -> compare (a.t0, b.t1, j) (b.t0, a.t1, i))
          lane_spans
        |> List.map snd
      in
      let finish (s, children) =
        out := (s, dur s -. union_length !children) :: !out
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | ((top, _) as e) :: rest when not (contains top s) ->
              finish e;
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (_, children) :: _ -> children := (s.t0, s.t1) :: !children
          | [] -> ());
          stack := (s, ref []) :: !stack)
        sorted;
      List.iter finish !stack)
    by_lane;
  !out

(* ---- per-name aggregates ---- *)

type agg = {
  mutable calls : int;
  mutable total_ns : float;
  mutable self_ns : float;
  mutable words : float;
}

let aggregate (spans : span list) : (string, agg) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let a =
        match Hashtbl.find_opt t s.name with
        | Some a -> a
        | None ->
          let a = { calls = 0; total_ns = 0.0; self_ns = 0.0; words = 0.0 } in
          Hashtbl.add t s.name a;
          a
      in
      a.calls <- a.calls + 1;
      a.total_ns <- a.total_ns +. dur s;
      a.self_ns <- a.self_ns +. self;
      a.words <- a.words +. s.words)
    (self_times spans);
  t

let total_self aggs = Hashtbl.fold (fun _ a acc -> acc +. a.self_ns) aggs 0.0
