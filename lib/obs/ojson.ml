(* The one JSON reader and printer: every JSON document the repo writes
   is built as a [t] and printed here, every one it reads is parsed
   here. No JSON dependency.

   Printer policy:
   - strings: double quote and backslash are backslash-escaped;
     newline, carriage return and tab use named escapes, other bytes
     below 0x20 are written \u00XX; well-formed UTF-8 is copied through
     and each byte outside a well-formed UTF-8 sequence is written
     \ufffd, so output is valid UTF-8 whatever bytes came in;
   - numbers: an integral float with |x| < 2^53 prints with no fraction
     or exponent (cycle counts, seq and ts_ns read as integers), any
     other finite float as the shortest decimal that parses back to
     it, a non-finite float as null;
   - layouts: [Line] is one line with no whitespace (JSONL, diag
     lines); [Doc] is for files: compact separators, a new line before
     each top-level member and each element of an array at the top
     level or one level down, and a final newline.

   The parser accepts exactly RFC 8259, strict enough to serve as the
   tests' validator: no raw control bytes or invalid UTF-8 in strings,
   no lone surrogates, no trailing commas, no numbers like +1, .5, 1.
   or 01. \uXXXX escapes, surrogate pairs included, decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---- printer ---- *)

type layout = Line | Doc

let print_string b s =
  Buffer.add_char b '"';
  let i = ref 0 in
  while !i < String.length s do
    (match s.[!i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\r' -> Buffer.add_string b "\\r"
    | '\t' -> Buffer.add_string b "\\t"
    | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
    | _ ->
      let d = String.get_utf_8_uchar s !i in
      if Uchar.utf_decode_is_valid d then begin
        Buffer.add_substring b s !i (Uchar.utf_decode_length d);
        i := !i + Uchar.utf_decode_length d - 1
      end
      else Buffer.add_string b "\\ufffd");
    incr i
  done;
  Buffer.add_char b '"'

let print_number b f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  Buffer.add_string b
    (if not (Float.is_finite f) then "null"
     else if Float.is_integer f && Float.abs f < 0x1p53 then
       Printf.sprintf "%.0f" f
     else shortest 1)

let to_string ?(layout = Line) v =
  let b = Buffer.create 1024 in
  let rec value depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> print_number b f
    | Str s -> print_string b s
    | Arr l ->
      seq (depth <= 1) '[' ']' (List.map (fun v () -> value (depth + 1) v) l)
    | Obj l ->
      seq (depth = 0) '{' '}'
        (List.map
           (fun (k, v) () ->
             print_string b k;
             Buffer.add_char b ':';
             value (depth + 1) v)
           l)
  and seq broken o c items =
    let nl = if layout = Doc && broken && items <> [] then "\n" else "" in
    Buffer.add_char b o;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b nl;
        item ())
      items;
    Buffer.add_string b nl;
    Buffer.add_char b c
  in
  value 0 v;
  if layout = Doc then Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parser ---- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos m)))
    fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

(* Consume [c] if it is next. *)
let accept st c =
  peek st = Some c
  && begin
       st.pos <- st.pos + 1;
       true
     end

let expect st c = if not (accept st c) then error st "expected '%c'" c

let skip_ws st =
  while accept st ' ' || accept st '\t' || accept st '\n' || accept st '\r' do
    ()
  done

let lit st word v =
  let n = String.length word in
  if st.pos + n > String.length st.src || String.sub st.src st.pos n <> word
  then error st "expected '%s'" word;
  st.pos <- st.pos + n;
  v

let hex4 st =
  let h =
    if st.pos + 4 <= String.length st.src then String.sub st.src st.pos 4
    else ""
  in
  let hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  if h = "" || not (String.for_all hex h) then error st "bad \\u escape";
  st.pos <- st.pos + 4;
  int_of_string ("0x" ^ h)

(* After the \u of an escape: one code point, a surrogate pair combined. *)
let unicode_escape st =
  let hi = hex4 st in
  let lo =
    if hi >= 0xD800 && hi <= 0xDBFF && accept st '\\' && accept st 'u' then
      hex4 st
    else -1
  in
  if lo >= 0xDC00 && lo <= 0xDFFF then
    Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
  else if Uchar.is_valid hi && lo < 0 then Uchar.of_int hi
  else error st "lone surrogate"

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' when st.pos + 1 < String.length st.src ->
      let e = st.src.[st.pos + 1] in
      st.pos <- st.pos + 2;
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char b e
      | 'n' -> Buffer.add_char b '\n'
      | 't' -> Buffer.add_char b '\t'
      | 'r' -> Buffer.add_char b '\r'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'u' -> Buffer.add_utf_8_uchar b (unicode_escape st)
      | _ -> error st "unknown escape");
      go ()
    | Some c when c < ' ' ->
      error st "raw control byte 0x%02x in string" (Char.code c)
    | Some _ ->
      let d = String.get_utf_8_uchar st.src st.pos in
      if not (Uchar.utf_decode_is_valid d) then error st "invalid UTF-8";
      Buffer.add_substring b st.src st.pos (Uchar.utf_decode_length d);
      st.pos <- st.pos + Uchar.utf_decode_length d;
      go ()
  in
  go ();
  Buffer.contents b

(* An optional minus, 0 or a nonzero digit and more digits, then an
   optional fraction and exponent, each with at least one digit. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let d0 = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      st.pos <- st.pos + 1
    done;
    if st.pos = d0 then error st "expected a digit"
  in
  ignore (accept st '-');
  if not (accept st '0') then digits ();
  if accept st '.' then digits ();
  if accept st 'e' || accept st 'E' then begin
    ignore (accept st '+' || accept st '-');
    digits ()
  end;
  Num (float_of_string (String.sub st.src start (st.pos - start)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    st.pos <- st.pos + 1;
    Obj
      (items st '}' (fun () ->
           skip_ws st;
           let k = parse_string st in
           skip_ws st;
           expect st ':';
           (k, parse_value st)))
  | Some '[' ->
    st.pos <- st.pos + 1;
    Arr (items st ']' (fun () -> parse_value st))
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected '%c'" c
  | None -> error st "unexpected end of input"

(* Comma-separated items up to [close], the opening bracket consumed. *)
and items : 'a. state -> char -> (unit -> 'a) -> 'a list =
 fun st close item ->
  skip_ws st;
  let rec go acc =
    let acc = item () :: acc in
    skip_ws st;
    if accept st ',' then go acc
    else begin
      expect st close;
      List.rev acc
    end
  in
  if accept st close then [] else go []

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing input at byte %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_arr = function Arr l -> Some l | _ -> None
