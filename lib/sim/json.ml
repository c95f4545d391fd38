(* Minimal JSON printer + parser, enough for the Chrome trace-event
   exporter and the metrics snapshot. No external dependencies: the
   toolchain image carries no JSON library, and the subset we need
   (objects, arrays, strings, numbers, booleans, null) is small. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* -- printing -- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most strings (span names, categories, metric names) need no escaping:
   copy those in one blit instead of a character at a time. *)
let escape_to b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

(* The text of [string_of_int], digit by digit, without building the
   string. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b i =
  if i >= 0 then add_digits b i
  else if i = min_int then Buffer.add_string b (string_of_int i)
  else begin
    Buffer.add_char b '-';
    add_digits b (-i)
  end

(* Floats that hold an integral value print without a fractional part —
   most trace timestamps are whole microseconds, and Perfetto accepts
   either. 12 significant digits cover nanosecond-resolution timestamps
   up to ~1000 simulated seconds without rounding. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_to b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        items;
      Buffer.add_char b ']'
  | Assoc fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_to b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 4096 in
  to_buffer b t;
  Buffer.contents b

(* -- parsing (recursive descent) -- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected '%s'" word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
        c.pos <- c.pos + 1;
        (match peek c with
        | Some '"' -> Buffer.add_char b '"'; c.pos <- c.pos + 1
        | Some '\\' -> Buffer.add_char b '\\'; c.pos <- c.pos + 1
        | Some '/' -> Buffer.add_char b '/'; c.pos <- c.pos + 1
        | Some 'n' -> Buffer.add_char b '\n'; c.pos <- c.pos + 1
        | Some 'r' -> Buffer.add_char b '\r'; c.pos <- c.pos + 1
        | Some 't' -> Buffer.add_char b '\t'; c.pos <- c.pos + 1
        | Some 'b' -> Buffer.add_char b '\b'; c.pos <- c.pos + 1
        | Some 'f' -> Buffer.add_char b '\012'; c.pos <- c.pos + 1
        | Some 'u' ->
            c.pos <- c.pos + 1;
            if c.pos + 4 > String.length c.src then error c "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> error c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* Encode the code point as UTF-8; surrogate pairs are not
               reassembled (our own output never emits them). *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
        | _ -> error c "bad escape");
        loop ()
    | Some ch ->
        Buffer.add_char b ch;
        c.pos <- c.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < String.length c.src && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error c (Printf.sprintf "bad number %S" s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin c.pos <- c.pos + 1; Assoc [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; members ()
          | Some '}' -> c.pos <- c.pos + 1
          | _ -> error c "expected ',' or '}'"
        in
        members ();
        Assoc (List.rev !fields)
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin c.pos <- c.pos + 1; List [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; elements ()
          | Some ']' -> c.pos <- c.pos + 1
          | _ -> error c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors -- *)

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None

let to_number = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
