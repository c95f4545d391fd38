(* Process-wide registry of named counters / gauges / histograms.

   One typed API replaces scattered per-component mutable counters: a
   component asks the registry for a handle once (at creation) and bumps
   it on the hot path with a plain field write — no hashing per event.

   Determinism: a histogram's bounded sample is a {!Reservoir} whose seed
   the caller fixes, so code migrated from a raw reservoir stays
   bit-identical; it never depends on wall clocks or shared RNGs. Exact
   count / mean / std are maintained over *all* observations. *)

type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = { res : Reservoir.t; online : Stats.Online.t }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let wrong_kind name got want =
  invalid_arg (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name got) want)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some m -> wrong_kind name m "counter"
  | None ->
      let c = { count = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some m -> wrong_kind name m "gauge"
  | None ->
      let g = { value = 0.0 } in
      Hashtbl.replace t.tbl name (Gauge g);
      g

let histogram ?(capacity = 4096) ?seed t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some m -> wrong_kind name m "histogram"
  | None ->
      let seed = match seed with Some s -> s | None -> Hashtbl.hash name in
      let h = { res = Reservoir.create ~seed capacity; online = Stats.Online.create () } in
      Hashtbl.replace t.tbl name (Histogram h);
      h

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count
let set g v = g.value <- v
let gauge_value g = g.value

let observe h v =
  Stats.Online.add h.online v;
  Reservoir.add h.res v

let values h = Reservoir.to_list h.res
let hist_count h = Stats.Online.count h.online
let hist_mean h = Stats.Online.mean h.online

let find t name = Hashtbl.find_opt t.tbl name

let find_counter t name =
  match find t name with Some (Counter c) -> Some c | _ -> None

let find_histogram t name =
  match find t name with Some (Histogram h) -> Some h | _ -> None

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* -- rendering -- *)

let quantiles h =
  match values h with
  | [] -> None
  | vs -> Some (Stats.summarize (Array.of_list vs))

let render_metric ppf (name, m) =
  match m with
  | Counter c -> Format.fprintf ppf "counter   %-44s %d@." name c.count
  | Gauge g -> Format.fprintf ppf "gauge     %-44s %g@." name g.value
  | Histogram h -> (
      match quantiles h with
      | None -> Format.fprintf ppf "histogram %-44s count=0@." name
      | Some s ->
          Format.fprintf ppf
            "histogram %-44s count=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f (sampled %d)@."
            name (hist_count h) (hist_mean h) s.Stats.median s.Stats.p90 s.Stats.p99 s.Stats.max
            (Reservoir.stored h.res))

let render ppf t = List.iter (render_metric ppf) (snapshot t)
