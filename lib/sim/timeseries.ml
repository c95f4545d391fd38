(* Sim-clock-windowed series over a Metrics registry.

   The collector never schedules engine work, draws randomness, or
   charges simulated time: windows roll lazily whenever an instrumented
   component hands it the current clock ([tick]/[observe] at sites that
   already hold [now]). Attaching one is therefore sim-time neutral and
   a run's figures stay bit-identical with collection on or off.

   Three series kinds:
   - counters: per-window deltas of every registry counter (zero deltas
     are dropped, so quiet windows cost nothing);
   - gauges: the registry value sampled at each window close;
   - sketches: caller-observed samples (latencies, restore steps)
     aggregated per window in a mergeable {!Sketch}.

   Window indexes come straight off the sim clock (window [w] covers
   [w * window_ns, (w+1) * window_ns)), so series collected by
   different collectors — per node, per domain — merge by window index:
   counter deltas add, gauge samples union, sketches {!Sketch.merge}.
   Everything exported is sorted (names, window indexes), never in
   hashtable order, so the merge is bit-identical under any sharding. *)

type t = {
  registry : Metrics.t option;  (* None for merge results *)
  window_ns : Time_ns.t;
  alpha : float;
  mutable current : int;  (* window index being filled *)
  mutable rolled : int;  (* closed windows (diagnostic) *)
  last_counts : (string, int) Hashtbl.t;  (* counter -> value at last roll *)
  counters : (string, (int * int) list ref) Hashtbl.t;  (* newest first *)
  gauges : (string, (int * float) list ref) Hashtbl.t;  (* newest first *)
  sketches : (string, (int * Sketch.t) list ref) Hashtbl.t;  (* newest first *)
}

let default_window_ns = Time_ns.of_ms 100.0

let make ?(window_ns = default_window_ns) ?(alpha = 0.01) registry =
  if window_ns <= 0 then invalid_arg "Timeseries.create: window_ns must be positive";
  {
    registry;
    window_ns;
    alpha;
    current = 0;
    rolled = 0;
    last_counts = Hashtbl.create 64;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 64;
    sketches = Hashtbl.create 64;
  }

let create ?window_ns registry = make ?window_ns (Some registry)
let window_of t ~at = at / t.window_ns
let rolled_windows t = t.rolled

let push tbl name point =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := point :: !r
  | None -> Hashtbl.replace tbl name (ref [ point ])

(* Close the window currently being filled: counter deltas since the
   last close and a sample of every gauge, attributed to [t.current].
   Iteration follows the registry's sorted snapshot — never hashtable
   order — so two collectors over equal registries close identically. *)
let close_window t =
  (match t.registry with
  | None -> ()
  | Some reg ->
      List.iter
        (fun (name, metric) ->
          match metric with
          | Metrics.Counter c ->
              let v = Metrics.counter_value c in
              let prev =
                match Hashtbl.find_opt t.last_counts name with Some p -> p | None -> 0
              in
              if v <> prev then begin
                Hashtbl.replace t.last_counts name v;
                push t.counters name (t.current, v - prev)
              end
          | Metrics.Gauge g -> push t.gauges name (t.current, Metrics.gauge_value g)
          | Metrics.Histogram _ -> ())
        (Metrics.snapshot reg));
  t.rolled <- t.rolled + 1

let tick t ~now =
  let w = window_of t ~at:now in
  if w > t.current then begin
    close_window t;
    t.current <- w
  end

let observe t ~now name v =
  tick t ~now;
  let sk =
    match Hashtbl.find_opt t.sketches name with
    | Some r -> (
        match !r with
        | (w, sk) :: _ when w = t.current -> sk
        | _ ->
            let sk = Sketch.create ~alpha:t.alpha () in
            r := (t.current, sk) :: !r;
            sk)
    | None ->
        let sk = Sketch.create ~alpha:t.alpha () in
        Hashtbl.replace t.sketches name (ref [ (t.current, sk) ]);
        sk
  in
  Sketch.observe sk v

(* Force the in-progress window closed (for export at end of run). The
   cursor moves past it so a later [tick] cannot close it twice. *)
let flush t ~now =
  tick t ~now;
  close_window t;
  t.current <- t.current + 1

(* ---- accessors (exported data is always oldest-first, sorted) -------- *)

let sorted_names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let counter_points t name =
  match Hashtbl.find_opt t.counters name with Some r -> List.rev !r | None -> []

let gauge_points t name =
  match Hashtbl.find_opt t.gauges name with Some r -> List.rev !r | None -> []

let sketch_windows t name =
  match Hashtbl.find_opt t.sketches name with Some r -> List.rev !r | None -> []

let names t =
  List.map (fun n -> (n, `Counter)) (sorted_names t.counters)
  @ List.map (fun n -> (n, `Gauge)) (sorted_names t.gauges)
  @ List.map (fun n -> (n, `Sketch)) (sorted_names t.sketches)

(* Counter deltas and gauge samples in windows at or after [since] — the
   flight recorder's "metric deltas over the pre-failure window". *)
let recent t ~since =
  let w0 = since / t.window_ns in
  let cut points = List.filter (fun (w, _) -> w >= w0) points in
  List.filter_map
    (fun name ->
      match cut (List.map (fun (w, d) -> (w, float_of_int d)) (counter_points t name)) with
      | [] -> None
      | pts -> Some (name, pts))
    (sorted_names t.counters)
  @ List.filter_map
      (fun name ->
        match cut (gauge_points t name) with
        | [] -> None
        | pts -> Some (name, pts))
      (sorted_names t.gauges)

(* ---- merge ----------------------------------------------------------- *)

let merge_points combine a b =
  (* Both inputs oldest-first with strictly increasing windows. *)
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (wa, va) :: ta, (wb, vb) :: tb ->
        if wa < wb then go ta b ((wa, va) :: acc)
        else if wb < wa then go a tb ((wb, vb) :: acc)
        else go ta tb ((wa, combine va vb) :: acc)
  in
  go a b []

let merge a b =
  if a.window_ns <> b.window_ns then invalid_arg "Timeseries.merge: window_ns mismatch";
  if a.alpha <> b.alpha then invalid_arg "Timeseries.merge: alpha mismatch";
  let m = make ~window_ns:a.window_ns ~alpha:a.alpha None in
  m.current <- max a.current b.current;
  m.rolled <- a.rolled + b.rolled;
  let union_names tbl_a tbl_b =
    List.sort_uniq compare (sorted_names tbl_a @ sorted_names tbl_b)
  in
  List.iter
    (fun name ->
      let pts = merge_points ( + ) (counter_points a name) (counter_points b name) in
      if pts <> [] then Hashtbl.replace m.counters name (ref (List.rev pts)))
    (union_names a.counters b.counters);
  List.iter
    (fun name ->
      (* Gauge samples from distinct collectors are distinct observations:
         keep both, ordered by (window, value) for determinism. *)
      let pts =
        List.sort compare (gauge_points a name @ gauge_points b name)
      in
      if pts <> [] then Hashtbl.replace m.gauges name (ref (List.rev pts)))
    (union_names a.gauges b.gauges);
  List.iter
    (fun name ->
      let pts =
        merge_points Sketch.merge (sketch_windows a name) (sketch_windows b name)
      in
      if pts <> [] then Hashtbl.replace m.sketches name (ref (List.rev pts)))
    (union_names a.sketches b.sketches);
  m

(* ---- exporters ------------------------------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let window_end_ms t w = Time_ns.to_ms ((w + 1) * t.window_ns)

(* Prometheus text exposition: one sample per closed window, timestamped
   at the window's end (milliseconds). The original (dotted) series name
   rides in a label; the metric name itself is sanitized. *)
let render_prom ppf t =
  let pname name = "gh_" ^ sanitize name in
  List.iter
    (fun name ->
      let p = pname name in
      Format.fprintf ppf "# TYPE %s counter@\n" p;
      List.iter
        (fun (w, d) ->
          Format.fprintf ppf "%s{series=%S} %d %.0f@\n" p name d (window_end_ms t w))
        (counter_points t name))
    (sorted_names t.counters);
  List.iter
    (fun name ->
      let p = pname name in
      Format.fprintf ppf "# TYPE %s gauge@\n" p;
      List.iter
        (fun (w, v) ->
          Format.fprintf ppf "%s{series=%S} %g %.0f@\n" p name v (window_end_ms t w))
        (gauge_points t name))
    (sorted_names t.gauges);
  List.iter
    (fun name ->
      let p = pname name in
      Format.fprintf ppf "# TYPE %s summary@\n" p;
      List.iter
        (fun (w, sk) ->
          let ts = window_end_ms t w in
          List.iter
            (fun q ->
              match Sketch.quantile sk q with
              | Some v ->
                  Format.fprintf ppf "%s{series=%S,quantile=\"%g\"} %g %.0f@\n" p name q v
                    ts
              | None -> ())
            [ 0.5; 0.9; 0.99 ];
          Format.fprintf ppf "%s_count{series=%S} %d %.0f@\n" p name (Sketch.count sk) ts)
        (sketch_windows t name))
    (sorted_names t.sketches)

let to_json t =
  let counters =
    List.map
      (fun name ->
        Json.Assoc
          [
            ("name", Json.String name);
            ( "points",
              Json.List
                (List.map
                   (fun (w, d) -> Json.List [ Json.Int w; Json.Int d ])
                   (counter_points t name)) );
          ])
      (sorted_names t.counters)
  in
  let gauges =
    List.map
      (fun name ->
        Json.Assoc
          [
            ("name", Json.String name);
            ( "points",
              Json.List
                (List.map
                   (fun (w, v) -> Json.List [ Json.Int w; Json.Float v ])
                   (gauge_points t name)) );
          ])
      (sorted_names t.gauges)
  in
  let sketches =
    List.map
      (fun name ->
        Json.Assoc
          [
            ("name", Json.String name);
            ( "windows",
              Json.List
                (List.map
                   (fun (w, sk) ->
                     Json.Assoc [ ("w", Json.Int w); ("sketch", Sketch.to_json sk) ])
                   (sketch_windows t name)) );
          ])
      (sorted_names t.sketches)
  in
  Json.Assoc
    [
      ("window_ns", Json.Int t.window_ns);
      ("alpha", Json.Float t.alpha);
      ("counters", Json.List counters);
      ("gauges", Json.List gauges);
      ("sketches", Json.List sketches);
    ]
