(* Minimal JSON tree: just enough to parse and re-emit the repo's own
   machine-readable artifacts (bench reports, ledger lines, cache entries,
   serve requests) without pulling a JSON dependency into the build.  The
   parser takes the RFC 8259 grammar, and beyond it rejects what would
   not survive a round trip: numbers outside the float range, lone UTF-16
   surrogates and repeated object keys. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

type error =
  | Syntax of string
  | Leading_zero of int
  | Non_finite of int
  | Lone_surrogate of int
  | Duplicate_key of string * int

exception Parse_error of error

let error_to_string = function
  | Syntax msg -> msg
  | Leading_zero at -> Printf.sprintf "number with a leading zero at offset %d" at
  | Non_finite at -> Printf.sprintf "number out of float range at offset %d" at
  | Lone_surrogate at -> Printf.sprintf "lone UTF-16 surrogate in \\u escape at offset %d" at
  | Duplicate_key (k, at) -> Printf.sprintf "duplicate key %S at offset %d" k at

let fail e = raise (Parse_error e)
let error fmt = Printf.ksprintf (fun s -> fail (Syntax s)) fmt

(* ------------------------------ parsing ------------------------------ *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> error "expected %C at offset %d, got %C" c st.pos d
  | None -> error "expected %C at offset %d, got end of input" c st.pos

let lit st l v =
  let k = String.length l in
  if st.pos + k <= String.length st.src && String.sub st.src st.pos k = l then begin
    st.pos <- st.pos + k;
    v
  end
  else error "bad literal at offset %d" st.pos

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

(* The four hex digits of a \u escape starting at [st.pos]. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then error "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> error "bad \\u escape %S" (String.sub st.src st.pos 4)
  in
  let u = ref 0 in
  for i = 0 to 3 do
    u := (!u lsl 4) lor digit st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !u

(* A \u escape, prefix already consumed: a BMP code point, or a high
   surrogate immediately followed by an escaped low one.  Either half on
   its own has no UTF-8 encoding. *)
let unicode_escape st buf =
  let at = st.pos - 2 in
  let u = hex4 st in
  if u >= 0xDC00 && u <= 0xDFFF then fail (Lone_surrogate at)
  else if u >= 0xD800 && u <= 0xDBFF then begin
    let pair = st.pos + 2 <= String.length st.src && String.sub st.src st.pos 2 = "\\u" in
    if not pair then fail (Lone_surrogate at);
    st.pos <- st.pos + 2;
    let lo = hex4 st in
    if lo < 0xDC00 || lo > 0xDFFF then fail (Lone_surrogate at);
    utf8_of_code buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
  end
  else utf8_of_code buf u

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error "unterminated string at offset %d" st.pos
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | None -> error "unterminated escape at offset %d" st.pos
      | Some c ->
        st.pos <- st.pos + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> unicode_escape st buf
        | c -> error "bad escape '\\%c'" c));
      go ()
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

(* -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)? — and finite. *)
let parse_number st =
  let start = st.pos and src = st.src in
  let digit i = i < String.length src && src.[i] >= '0' && src.[i] <= '9' in
  let rec digits i = if digit i then digits (i + 1) else i in
  let at c i = i < String.length src && src.[i] = c in
  let int_start = if at '-' start then start + 1 else start in
  if not (digit int_start) then error "expected a value at offset %d" start;
  if src.[int_start] = '0' && digit (int_start + 1) then fail (Leading_zero start);
  let i = digits int_start in
  let required i = if digit i then digits i else error "bad number at offset %d" start in
  let i = if at '.' i then required (i + 1) else i in
  let i =
    if not (at 'e' i || at 'E' i) then i
    else required (if at '+' (i + 1) || at '-' (i + 1) then i + 2 else i + 1)
  in
  st.pos <- i;
  let v = float_of_string (String.sub src start (i - start)) in
  if Float.is_finite v then Num v else fail (Non_finite start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key_at = st.pos in
        let key = parse_string st in
        if List.mem_assoc key acc then fail (Duplicate_key (key, key_at));
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev ((key, v) :: acc)
        | _ -> error "expected ',' or '}' at offset %d" st.pos
      in
      Obj (members [])
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elems (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
        | _ -> error "expected ',' or ']' at offset %d" st.pos
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some _ -> parse_number st

let parse_exn s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error "trailing garbage at offset %d" st.pos;
  v

let parse s = match parse_exn s with v -> Ok v | exception Parse_error e -> Error e

(* ----------------------------- printing ----------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num_to_string v =
  if not (Float.is_finite v) then "null" (* NaN and infinities have no JSON encoding *)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (num_to_string v)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ----------------------------- accessors ----------------------------- *)

let member key = function Obj members -> List.assoc_opt key members | _ -> None

let to_float_opt = function Num v -> Some v | _ -> None
let to_int_opt = function Num v when Float.is_integer v -> Some (int_of_float v) | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None

let float_member key json = Option.bind (member key json) to_float_opt
let int_member key json = Option.bind (member key json) to_int_opt
let string_member key json = Option.bind (member key json) to_string_opt
let list_member key json = Option.bind (member key json) to_list_opt
