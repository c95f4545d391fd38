(* Critical-path attribution over request span trees.

   For every completed request the analyzer walks its span tree and
   charges each phase its *self time* (duration minus the duration of its
   children), then aggregates those charges over percentile tail buckets
   of end-to-end latency: the p99 bucket answers "what dominates the
   slowest 1% of requests?" — the question Groundhog's off-path-restore
   claim lives or dies by.

   Off-path work (a restore deferred past the response, marked with the
   ["offpath"] attribute) is excluded together with its subtree: it did
   not contribute to the request's latency. The request total prefers the
   root's ["e2e_ns"] attribute (stamped by whichever component closed the
   request) over the root span's extent, which may include the off-path
   tail. Time under the root no child accounts for is reported as
   ["(unattributed)"]. *)

type phase = { phase_name : string; self_ns : int; share : float }

type bucket = {
  label : string;  (** e.g. ["p99"]. *)
  cutoff_ns : int;  (** Requests with e2e >= cutoff fall in the bucket. *)
  n_requests : int;
  phases : phase list;  (** Largest share first. *)
}

type report = { total_requests : int; buckets : bucket list }

let is_offpath r = List.mem_assoc "offpath" r.Span.attrs

(* (total_ns, phase self-times) for one request tree. *)
let attribute_request children root =
  let total =
    match List.assoc_opt "e2e_ns" root.Span.attrs with
    | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
    | None -> ( match Span.duration_ns root with Some d -> d | None -> 0)
  in
  let phase_ns : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let add name ns =
    Hashtbl.replace phase_ns name (ns + Option.value ~default:0 (Hashtbl.find_opt phase_ns name))
  in
  let kids r =
    List.filter (fun c -> not (is_offpath c)) (Option.value ~default:[] (children r.Span.id))
  in
  let rec walk r =
    let cs = kids r in
    let child_ns =
      List.fold_left
        (fun acc c -> acc + Option.value ~default:0 (Span.duration_ns c))
        0 cs
    in
    (match Span.duration_ns r with
    | Some d when r.Span.id <> root.Span.id -> add r.Span.name (max 0 (d - child_ns))
    | _ -> ());
    List.iter walk cs
  in
  walk root;
  let attributed = Hashtbl.fold (fun _ ns acc -> acc + ns) phase_ns 0 in
  if total > attributed then add "(unattributed)" (total - attributed);
  (total, phase_ns)

let percentiles = [ 50.0; 90.0; 99.0 ]

let analyze spans =
  let records = Span.records spans in
  let by_parent : (int, Span.record list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.Span.parent with
      | Some p -> Hashtbl.replace by_parent p (r :: Option.value ~default:[] (Hashtbl.find_opt by_parent p))
      | None -> ())
    records;
  let children id = Option.map List.rev (Hashtbl.find_opt by_parent id) in
  let roots =
    List.filter
      (fun r -> r.Span.parent = None && r.Span.name = "request" && not (Span.is_open r))
      records
  in
  let attributed = List.map (attribute_request children) roots in
  let totals = Array.of_list (List.map fst attributed) in
  let sorted = Array.copy totals in
  Array.sort compare sorted;
  let bucket q =
    let label = Printf.sprintf "p%g" q in
    if Array.length sorted = 0 then
      { label; cutoff_ns = 0; n_requests = 0; phases = [] }
    else begin
      let cutoff =
        int_of_float (Stats.percentile (Array.map float_of_int sorted) q)
      in
      let members = List.filter (fun (total, _) -> total >= cutoff) attributed in
      let members = if members = [] then [ List.hd attributed ] else members in
      let denom =
        List.fold_left (fun acc (total, _) -> acc + total) 0 members |> max 1
      in
      let sums : (string, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (_, phase_ns) ->
          Hashtbl.iter
            (fun name ns ->
              Hashtbl.replace sums name (ns + Option.value ~default:0 (Hashtbl.find_opt sums name)))
            phase_ns)
        members;
      let phases =
        Hashtbl.fold
          (fun phase_name self_ns acc ->
            { phase_name; self_ns; share = float_of_int self_ns /. float_of_int denom } :: acc)
          sums []
        |> List.sort (fun a b ->
               match compare b.self_ns a.self_ns with
               | 0 -> compare a.phase_name b.phase_name
               | c -> c)
      in
      { label; cutoff_ns = cutoff; n_requests = List.length members; phases }
    end
  in
  { total_requests = List.length roots; buckets = List.map bucket percentiles }

let dominating bucket = match bucket.phases with [] -> None | p :: _ -> Some p

let pp_bucket ppf b =
  match dominating b with
  | None -> Format.fprintf ppf "%-4s (no requests)" b.label
  | Some top ->
      Format.fprintf ppf "%-4s (n=%d, e2e >= %.2f ms) dominated by %s: %.1f%%" b.label
        b.n_requests (Time_ns.to_ms b.cutoff_ns) top.phase_name (100.0 *. top.share);
      let rest = List.filteri (fun i _ -> i > 0 && i <= 4) b.phases in
      if rest <> [] then begin
        Format.fprintf ppf "  [";
        List.iteri
          (fun i p ->
            Format.fprintf ppf "%s%s %.1f%%"
              (if i > 0 then ", " else "")
              p.phase_name (100.0 *. p.share))
          rest;
        Format.fprintf ppf "]"
      end

let pp ppf report =
  Format.fprintf ppf "@[<v>critical path over %d requests:@ " report.total_requests;
  List.iter (fun b -> Format.fprintf ppf "%a@ " pp_bucket b) report.buckets;
  Format.fprintf ppf "@]"
