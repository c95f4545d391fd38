(* Crash forensics for the simulated fleet: a bounded ring of dumps,
   each freezing the observable past — recent trace events, closed
   spans, and per-window metric deltas — at the moment a failure edge
   fires (container poisoned, node quarantined, breaker opened, scrub
   corruption).

   The recorder holds no copies of anything until a snapshot is taken;
   it reads the attached collectors' rings at that instant. Like every
   observability component it never schedules engine work or draws
   randomness — snapshots happen inside failure handlers that already
   hold the clock, so recording is sim-time neutral. *)

type dump = {
  d_at : Time_ns.t;
  d_reason : string;  (* failure edge: "poisoned", "quarantine", ... *)
  d_detail : string;
  d_node : string;  (* "" when the source has no node identity *)
  d_window_ns : Time_ns.t;
  d_events : Trace.event list;  (* within [d_at - window, d_at], oldest first *)
  d_spans : Span.record list;  (* closed spans overlapping the window *)
  d_series : (string * (int * float) list) list;  (* window-indexed deltas/samples *)
}

type t = {
  name : string;
  capacity : int;
  window_ns : Time_ns.t;
  trace : Trace.t option;
  spans : Span.t option;
  series : Timeseries.t option;
  mutable rev_dumps : dump list;  (* newest first, at most [capacity] *)
  mutable held : int;
  mutable total : int;
}

let create ?(capacity = 16) ?(window_ns = Time_ns.of_ms 500.0) ?trace ?spans ?series ~name
    () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity must be >= 1";
  if window_ns <= 0 then invalid_arg "Flight_recorder.create: window_ns must be positive";
  {
    name;
    capacity;
    window_ns;
    trace;
    spans;
    series;
    rev_dumps = [];
    held = 0;
    total = 0;
  }

let total t = t.total
let dumps t = List.rev t.rev_dumps

let snapshot t ~now ?(node = "") ~reason ~detail () =
  let since = max 0 (now - t.window_ns) in
  let events =
    match t.trace with
    | None -> []
    | Some tr -> List.filter (fun (e : Trace.event) -> e.Trace.at >= since) (Trace.events tr)
  in
  let spans =
    match t.spans with
    | None -> []
    | Some sp ->
        List.filter
          (fun (r : Span.record) ->
            (not (Span.is_open r)) && r.Span.stop_ns >= since && r.Span.start_ns <= now)
          (Span.records sp)
  in
  let series = match t.series with None -> [] | Some ts -> Timeseries.recent ts ~since in
  let d =
    {
      d_at = now;
      d_reason = reason;
      d_detail = detail;
      d_node = node;
      d_window_ns = t.window_ns;
      d_events = events;
      d_spans = spans;
      d_series = series;
    }
  in
  t.rev_dumps <- d :: t.rev_dumps;
  t.total <- t.total + 1;
  if t.held >= t.capacity then
    (* Drop the oldest dump: the ring keeps the most recent failures. *)
    t.rev_dumps <- List.filteri (fun i _ -> i < t.capacity) t.rev_dumps
  else t.held <- t.held + 1;
  d

(* ---- export ----------------------------------------------------------- *)

let dump_to_json d =
  Json.Assoc
    [
      ("at_ns", Json.Int d.d_at);
      ("reason", Json.String d.d_reason);
      ("detail", Json.String d.d_detail);
      ("node", Json.String d.d_node);
      ("window_ns", Json.Int d.d_window_ns);
      ( "events",
        Json.List
          (List.map
             (fun (e : Trace.event) ->
               Json.Assoc
                 [
                   ("at_ns", Json.Int e.Trace.at);
                   ("category", Json.String e.Trace.category);
                   ("what", Json.String e.Trace.what);
                   ("detail", Json.String e.Trace.detail);
                 ])
             d.d_events) );
      ( "spans",
        Json.List
          (List.map
             (fun (r : Span.record) ->
               Json.Assoc
                 [
                   ("name", Json.String r.Span.name);
                   ("cat", Json.String r.Span.cat);
                   ("track", Json.Int r.Span.track);
                   ("start_ns", Json.Int r.Span.start_ns);
                   ("stop_ns", Json.Int r.Span.stop_ns);
                 ])
             d.d_spans) );
      ( "series",
        Json.List
          (List.map
             (fun (name, pts) ->
               Json.Assoc
                 [
                   ("name", Json.String name);
                   ( "points",
                     Json.List
                       (List.map
                          (fun (w, v) -> Json.List [ Json.Int w; Json.Float v ])
                          pts) );
                 ])
             d.d_series) );
    ]

let to_json t =
  Json.Assoc
    [
      ("recorder", Json.String t.name);
      ("window_ns", Json.Int t.window_ns);
      ("total", Json.Int t.total);
      ("dumps", Json.List (List.map dump_to_json (dumps t)));
    ]

(* ---- schema validation (CI, like Span.validate_chrome) ---------------- *)

let ( let* ) = Result.bind

let req_int name j =
  match Option.bind (Json.member name j) Json.to_number with
  | Some v -> Ok (int_of_float v)
  | None -> Error (Printf.sprintf "missing numeric %S" name)

let req_str name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string %S" name)

let req_list name j =
  match Option.bind (Json.member name j) Json.to_list with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "missing array %S" name)

let check_dump i d =
  let ctx msg = Printf.sprintf "dump %d: %s" i msg in
  let* at = Result.map_error ctx (req_int "at_ns" d) in
  let* _ = Result.map_error ctx (req_str "reason" d) in
  let* _ = Result.map_error ctx (req_str "node" d) in
  let* window = Result.map_error ctx (req_int "window_ns" d) in
  if window <= 0 then Error (ctx "window_ns must be positive")
  else begin
    let since = max 0 (at - window) in
    let* events = Result.map_error ctx (req_list "events" d) in
    let* () =
      List.fold_left
        (fun acc ev ->
          let* () = acc in
          let* e_at = Result.map_error ctx (req_int "at_ns" ev) in
          let* _ = Result.map_error ctx (req_str "what" ev) in
          if e_at < since || e_at > at then
            Error (ctx (Printf.sprintf "event at %d outside window [%d, %d]" e_at since at))
          else Ok ())
        (Ok ()) events
    in
    let* spans = Result.map_error ctx (req_list "spans" d) in
    let* () =
      List.fold_left
        (fun acc sp ->
          let* () = acc in
          let* start = Result.map_error ctx (req_int "start_ns" sp) in
          let* stop = Result.map_error ctx (req_int "stop_ns" sp) in
          let* _ = Result.map_error ctx (req_str "name" sp) in
          if stop < start then Error (ctx "span with negative duration")
          else if stop < since || start > at then
            Error (ctx "span does not overlap the dump window")
          else Ok ())
        (Ok ()) spans
    in
    let* series = Result.map_error ctx (req_list "series" d) in
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let* _ = Result.map_error ctx (req_str "name" s) in
        let* points = Result.map_error ctx (req_list "points" s) in
        List.fold_left
          (fun acc p ->
            let* () = acc in
            match p with
            | Json.List [ w; v ] when Json.to_number w <> None && Json.to_number v <> None
              ->
                Ok ()
            | _ -> Error (ctx "series point is not a [window, value] pair"))
          (Ok ()) points)
      (Ok ()) series
  end

let validate json =
  let* _ = req_str "recorder" json in
  let* _ = req_int "window_ns" json in
  let* dumps = req_list "dumps" json in
  let* () =
    List.fold_left
      (fun acc (i, d) ->
        let* () = acc in
        check_dump i d)
      (Ok ())
      (List.mapi (fun i d -> (i, d)) dumps)
  in
  Ok (List.length dumps)
