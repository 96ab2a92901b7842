(* A run's results: named metrics with units, and the operation tally.
   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. *)

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; attempted = 0; failed = 0 }

let add t name value unit = t.metrics <- (name, value, unit) :: t.metrics

let attempt t = t.attempted <- t.attempted + 1

(* The first few failures are described on stderr; all are counted. *)
let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if t.failed <= 20 then prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

(* A check outside the counted operations (setup, drift, engines):
   counts as one attempted operation that failed. *)
let check t = function
  | None -> ()
  | Some msg ->
    attempt t;
    fail t "%s" msg

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines, then the JSON line restricted to [keep]. *)
let print t ~keep =
  let metrics = List.rev t.metrics in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-44s %16.6f %s\n" name v unit)
    metrics;
  let shown = List.filter (fun (name, _, _) -> keep name) metrics in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then fail t "metric %s is not finite" name)
    shown;
  let fields =
    List.filter_map
      (fun (name, v, unit) ->
        if Float.is_finite v then
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
               (json_number v) unit)
        else None)
      shown
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) (max 1 t.attempted) t.failed
    (String.concat ", " fields)
