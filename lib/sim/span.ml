(* Request-scoped spans with parent/child causality on the simulated
   clock.

   A collector is attached (optionally) to the FaaS stack; every hand-off
   opens or closes a span. Instrumentation is sim-time neutral by
   construction: this module only ever *reads* timestamps handed to it —
   it never touches an engine, schedules work, or draws randomness — so a
   run with a collector attached is bit-identical to one without.

   Spans form a tree per request: one root ("request") per request id,
   children for each phase (controller overhead, queueing, dispatch, exec,
   restore, ...). Two conventions keep the instrumentation call sites
   simple:

   - [phase_start]/[phase_stop] key open phases by (request id, name), so
     the component closing a phase (e.g. the dequeue site) needs no handle
     from the component that opened it (the enqueue site).
   - Deferred work whose duration is already decided (a strategy's restore
     runs for exactly [post_ns]) may be emitted as a completed span with a
     *future* stop timestamp; [finish_root] closes the root at the maximum
     of the completion time and the latest child stop (the per-track
     watermark), so such children still nest. *)

type record = {
  id : int;
  parent : int option;
  track : int;  (** Request id; becomes the Chrome [tid]. *)
  name : string;
  cat : string;
  start_ns : Time_ns.t;
  mutable stop_ns : Time_ns.t;  (* [open_stop] while the span is open *)
  mutable attrs : (string * string) list;
}

let open_stop = min_int

type t = {
  mutable rev_records : record list;
  mutable n_records : int;
  mutable n_open : int;
  mutable next_id : int;
  roots : (int, record) Hashtbl.t;  (* request id -> open root *)
  phases : (int * string, record) Hashtbl.t;  (* (request id, name) -> open span *)
  watermark : (int, Time_ns.t) Hashtbl.t;  (* track -> latest child stop *)
}

let create () =
  {
    rev_records = [];
    n_records = 0;
    n_open = 0;
    next_id = 0;
    roots = Hashtbl.create 64;
    phases = Hashtbl.create 64;
    watermark = Hashtbl.create 64;
  }

let is_open r = r.stop_ns = open_stop
let duration_ns r = if is_open r then None else Some (r.stop_ns - r.start_ns)

let records t = List.rev t.rev_records
let count t = t.n_records
let open_count t = t.n_open

let bump_watermark t ~track stop =
  match Hashtbl.find_opt t.watermark track with
  | Some w when w >= stop -> ()
  | _ -> Hashtbl.replace t.watermark track stop

let start t ~at ?parent ?track ~name ?(cat = "span") ?(attrs = []) () =
  let track =
    match (track, parent) with
    | Some tr, _ -> tr
    | None, Some p -> p.track
    | None, None -> 0
  in
  let r =
    {
      id = t.next_id;
      parent = Option.map (fun p -> p.id) parent;
      track;
      name;
      cat;
      start_ns = at;
      stop_ns = open_stop;
      attrs;
    }
  in
  t.next_id <- t.next_id + 1;
  t.rev_records <- r :: t.rev_records;
  t.n_records <- t.n_records + 1;
  t.n_open <- t.n_open + 1;
  r

let finish t ~at ?(attrs = []) r =
  if not (is_open r) then invalid_arg (Printf.sprintf "Span.finish: %S already closed" r.name);
  if at < r.start_ns then
    invalid_arg (Printf.sprintf "Span.finish: %S would close before it started" r.name);
  r.stop_ns <- at;
  if attrs <> [] then r.attrs <- r.attrs @ attrs;
  t.n_open <- t.n_open - 1;
  bump_watermark t ~track:r.track at

let complete t ~start:s ~stop ?parent ?track ~name ?cat ?attrs () =
  if stop < s then invalid_arg (Printf.sprintf "Span.complete: %S has negative duration" name);
  let r = start t ~at:s ?parent ?track ~name ?cat ?attrs () in
  r.stop_ns <- stop;
  t.n_open <- t.n_open - 1;
  bump_watermark t ~track:r.track stop;
  r

(* -- request roots -- *)

let find_root t ~req_id = Hashtbl.find_opt t.roots req_id

let ensure_root t ~at ~req_id ?(attrs = []) () =
  match find_root t ~req_id with
  | Some r -> r
  | None ->
      let r = start t ~at ~track:req_id ~name:"request" ~cat:"request" ~attrs () in
      Hashtbl.replace t.roots req_id r;
      r

let finish_root t ~at ?(attrs = []) ~req_id () =
  match find_root t ~req_id with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.roots req_id;
      (* Close any phase still open under this root (e.g. a queue wait cut
         short by a shed): the request is over, so is the phase. *)
      let stale =
        Hashtbl.fold
          (fun (rid, name) p acc -> if rid = req_id then (name, p) :: acc else acc)
          t.phases []
      in
      List.iter
        (fun (name, p) ->
          Hashtbl.remove t.phases (req_id, name);
          finish t ~at:(max at p.start_ns) p)
        stale;
      let stop =
        match Hashtbl.find_opt t.watermark r.track with
        | Some w -> max at w
        | None -> at
      in
      finish t ~at:stop ~attrs r

(* -- keyed phases -- *)

let phase_start t ~at ~req_id ~name ?(cat = "phase") () =
  let root = ensure_root t ~at ~req_id () in
  (* A phase reopened under the same key (e.g. a retried request queueing
     again) closes the stale one first: phases never overlap themselves. *)
  (match Hashtbl.find_opt t.phases (req_id, name) with
  | Some stale ->
      Hashtbl.remove t.phases (req_id, name);
      finish t ~at:(max at stale.start_ns) stale
  | None -> ());
  let r = start t ~at ~parent:root ~name ~cat () in
  Hashtbl.replace t.phases (req_id, name) r

let phase_stop t ~at ~req_id ~name ?(attrs = []) () =
  match Hashtbl.find_opt t.phases (req_id, name) with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.phases (req_id, name);
      finish t ~at:(max at r.start_ns) ~attrs r

(* -- invariant checking (for tests and CI) -- *)

let check t =
  let by_id = Hashtbl.create (max 16 t.n_records) in
  List.iter (fun r -> Hashtbl.replace by_id r.id r) t.rev_records;
  let rec walk = function
    | [] -> Ok ()
    | r :: rest ->
        if is_open r then Error (Printf.sprintf "span #%d %S never closed" r.id r.name)
        else begin
          match r.parent with
          | None -> walk rest
          | Some pid -> (
              match Hashtbl.find_opt by_id pid with
              | None -> Error (Printf.sprintf "span #%d %S has unknown parent #%d" r.id r.name pid)
              | Some p ->
                  if is_open p then
                    Error (Printf.sprintf "span #%d %S nested under open parent %S" r.id r.name p.name)
                  else if r.start_ns < p.start_ns || r.stop_ns > p.stop_ns then
                    Error
                      (Printf.sprintf
                         "span #%d %S [%d,%d] escapes parent %S [%d,%d]"
                         r.id r.name r.start_ns r.stop_ns p.name p.start_ns p.stop_ns)
                  else walk rest)
        end
  in
  walk t.rev_records

(* -- Chrome trace-event export -- *)

(* The document is appended straight into one buffer; no [Json.t] tree is
   built for it. Strings and the out-of-range timestamps go through
   [Json.to_buffer], so escaping and float formatting are the ones every
   other export uses. *)

let add_string b s = Json.to_buffer b (Json.String s)
let add_digit b d = Buffer.add_char b (Char.unsafe_chr (Char.code '0' + d))

(* Microseconds from nanoseconds, exactly as [Json.Float (ns /. 1000.)]
   prints, without the float. For 0 <= ns < 10^12 the quotient has at
   most nine integer digits and three decimals, which "%.12g" renders
   exactly, and a nonzero remainder can never round to an integer: so the
   text is [ns / 1000], then, if [ns mod 1000 <> 0], a point and the
   remainder's three digits with trailing zeros dropped. Beyond 10^12 the
   float rounds to 12 significant digits, so other values take the float
   path itself. *)
let add_us b ns =
  if ns >= 0 && ns < 1_000_000_000_000 then begin
    Json.add_int b (ns / 1000);
    let frac = ns mod 1000 in
    if frac <> 0 then begin
      Buffer.add_char b '.';
      add_digit b (frac / 100);
      if frac mod 100 <> 0 then begin
        add_digit b (frac / 10 mod 10);
        if frac mod 10 <> 0 then add_digit b (frac mod 10)
      end
    end
  end
  else Json.to_buffer b (Json.Float (float_of_int ns /. 1000.0))

let rec add_attrs b = function
  | [] -> ()
  | (k, v) :: rest ->
      add_string b k;
      Buffer.add_char b ':';
      add_string b v;
      Buffer.add_char b ',';
      add_attrs b rest

let add_thread_row b track =
  Buffer.add_string b {|,{"name":"thread_name","ph":"M","pid":1,"tid":|};
  Json.add_int b track;
  Buffer.add_string b {|,"args":{"name":"request |};
  Json.add_int b track;
  Buffer.add_string b {|"}}|}

let add_event b r =
  Buffer.add_string b {|,{"name":|};
  add_string b r.name;
  Buffer.add_string b {|,"cat":|};
  add_string b r.cat;
  Buffer.add_string b {|,"ph":"X","ts":|};
  add_us b r.start_ns;
  Buffer.add_string b {|,"dur":|};
  add_us b (r.stop_ns - r.start_ns);
  Buffer.add_string b {|,"pid":1,"tid":|};
  Json.add_int b r.track;
  Buffer.add_string b {|,"args":{|};
  add_attrs b r.attrs;
  (match r.parent with
  | Some p ->
      Buffer.add_string b {|"parent_span":|};
      Json.add_int b p;
      Buffer.add_char b ','
  | None -> ());
  Buffer.add_string b {|"span_id":|};
  Json.add_int b r.id;
  Buffer.add_string b "}}"

(* Bytes reserved per record. The stack's events average about 155 bytes
   and the longest is about 220, so 256 a record also covers the thread
   rows and the buffer never regrows on a stack trace; only unusually
   long names or attributes make it grow. Capacity never written is never
   touched, so it costs no resident memory. *)
let bytes_per_record = 256

let chrome_json t =
  let recs = Array.of_list t.rev_records (* newest first *) in
  let tracks = Array.map (fun r -> r.track) recs in
  Array.sort Int.compare tracks;
  let b = Buffer.create (bytes_per_record * (Array.length recs + 1)) in
  Buffer.add_string b
    {|{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"groundhog-sim"}}|};
  Array.iteri (fun i track -> if i = 0 || track <> tracks.(i - 1) then add_thread_row b track) tracks;
  for i = Array.length recs - 1 downto 0 do
    if not (is_open recs.(i)) then add_event b recs.(i)
  done;
  Buffer.add_string b {|],"displayTimeUnit":"ms"}|};
  Buffer.contents b

(* Schema check used by CI and the [trace-validate] subcommand: the
   document must be a Chrome trace-event container whose events Perfetto
   will accept. Returns the number of events. *)
let validate_chrome json =
  let ( let* ) = Result.bind in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> Ok l
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "missing traceEvents"
  in
  let check_event i ev =
    let field name = Json.member name ev in
    let* _ =
      match Option.bind (field "name") Json.to_str with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "event %d: missing string \"name\"" i)
    in
    let* ph =
      match Option.bind (field "ph") Json.to_str with
      | Some ph -> Ok ph
      | None -> Error (Printf.sprintf "event %d: missing string \"ph\"" i)
    in
    let* _ =
      match (Option.bind (field "pid") Json.to_number, Option.bind (field "tid") Json.to_number) with
      | Some _, Some _ -> Ok ()
      | _ -> Error (Printf.sprintf "event %d: missing numeric pid/tid" i)
    in
    match ph with
    | "M" -> Ok ()
    | "X" -> (
        let* ts =
          match Option.bind (field "ts") Json.to_number with
          | Some ts -> Ok ts
          | None -> Error (Printf.sprintf "event %d: missing numeric \"ts\"" i)
        in
        let* dur =
          match Option.bind (field "dur") Json.to_number with
          | Some d -> Ok d
          | None -> Error (Printf.sprintf "event %d: complete event without \"dur\"" i)
        in
        if dur < 0.0 then Error (Printf.sprintf "event %d: negative duration" i)
        else if ts < 0.0 then Error (Printf.sprintf "event %d: negative timestamp" i)
        else Ok ())
    | other -> Error (Printf.sprintf "event %d: unsupported phase %S" i other)
  in
  let rec all i = function
    | [] -> Ok (List.length events)
    | ev :: rest ->
        let* () = check_event i ev in
        all (i + 1) rest
  in
  all 0 events
