(** The one JSON reader and printer (no external dependency).

    Every JSON document the repo writes is built as a {!t} and printed
    by {!to_string}; every document it reads is parsed by {!parse}.
    The printer always emits valid UTF-8: each input byte outside a
    well-formed UTF-8 sequence is written as [\ufffd]. Integral floats
    below 2{^53} print as integers, other finite floats as the
    shortest decimal that reads back exactly, non-finite ones as
    [null]. The parser is strict RFC 8259: objects keep member order,
    numbers parse to [float], [\uXXXX] escapes decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [int n] is [Num (float_of_int n)]. *)
val int : int -> t

(** [Line]: one line, no whitespace (JSONL, diag lines). [Doc]: a file
    layout with a new line before each top-level member and each
    element of an array at the top level or one level down, ending in a
    newline. *)
type layout = Line | Doc

(** Print in [layout] (default [Line]). *)
val to_string : ?layout:layout -> t -> string

val parse : string -> (t, string) result

(** Field lookup on an [Obj]; [None] on missing field or non-object. *)
val member : string -> t -> t option

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
