(* The Chrome trace exporter as it stood before [Span.chrome_json] wrote
   the document straight into one buffer, kept verbatim below this
   comment: it builds the whole [Json.t] tree and leaves the printing to
   [Json.to_string]. It is the oracle of the byte-identity property in
   test_observability.ml and is used nowhere else. *)

module Json = Gh_sim.Json
open Gh_sim.Span

let us_of_ns ns = float_of_int ns /. 1000.0

let chrome_event r =
  let args =
    List.map (fun (k, v) -> (k, Json.String v)) r.attrs
    @ (match r.parent with Some p -> [ ("parent_span", Json.Int p) ] | None -> [])
    @ [ ("span_id", Json.Int r.id) ]
  in
  Json.Assoc
    [
      ("name", Json.String r.name);
      ("cat", Json.String r.cat);
      ("ph", Json.String "X");
      ("ts", Json.Float (us_of_ns r.start_ns));
      ("dur", Json.Float (us_of_ns (r.stop_ns - r.start_ns)));
      ("pid", Json.Int 1);
      ("tid", Json.Int r.track);
      ("args", Json.Assoc args);
    ]

let metadata_events t =
  let tracks = Hashtbl.create 16 in
  List.iter
    (fun r -> if not (Hashtbl.mem tracks r.track) then Hashtbl.replace tracks r.track ())
    (records t);
  let sorted = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tracks []) in
  Json.Assoc
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int 0);
      ("args", Json.Assoc [ ("name", Json.String "groundhog-sim") ]);
    ]
  :: List.map
       (fun track ->
         Json.Assoc
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 1);
             ("tid", Json.Int track);
             ("args", Json.Assoc [ ("name", Json.String (Printf.sprintf "request %d" track)) ]);
           ])
       sorted

let to_chrome t =
  let spans = List.filter (fun r -> not (is_open r)) (records t) in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata_events t @ List.map chrome_event spans));
      ("displayTimeUnit", Json.String "ms");
    ]
