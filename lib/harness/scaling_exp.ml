module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Stats = Gh_sim.Stats

type result = {
  entry : Catalog.entry;
  by_cores : (int * float) list;
  std_by_cores : (int * float) list;
}

(* The sweep is a triple loop (entry × cores × repeat); every iteration is
   an independent throughput run seeded by (seed + 1000·repeat, entry,
   cores), so the whole product flattens into one cell list for the domain
   pool and regroups by index into the same per-entry points. *)
let repeats = 3

let run ?(max_cores = 4) cfg entries =
  let cells =
    List.concat_map
      (fun entry ->
        List.concat_map
          (fun cores -> List.init repeats (fun r -> (entry, cores, r)))
          (List.init max_cores (fun i -> i + 1)))
      entries
  in
  let samples =
    Array.of_list
      (Gh_sim.Domain_pool.parallel_map ~jobs:(Config.effective_jobs cfg)
         (fun (entry, cores, r) ->
           let cfg = { cfg with Config.seed = cfg.Config.seed + (1000 * r) } in
           match Throughput_exp.run_one ~n_containers:cores cfg Registry.Gh entry with
           | Some m -> Some m.Throughput_exp.tput_rps
           | None -> None)
         cells)
  in
  List.mapi
    (fun i entry ->
      let points =
        List.filter_map
          (fun cores ->
            let base = ((i * max_cores) + (cores - 1)) * repeats in
            let samples =
              List.filter_map (fun r -> samples.(base + r)) (List.init repeats Fun.id)
            in
            match samples with
            | [] -> None
            | _ ->
                let a = Array.of_list samples in
                Some (cores, Stats.mean a, Stats.std a))
          (List.init max_cores (fun i -> i + 1))
      in
      {
        entry;
        by_cores = List.map (fun (c, m, _) -> (c, m)) points;
        std_by_cores = List.map (fun (c, _, sd) -> (c, sd)) points;
      })
    entries

let linearity r =
  match (List.assoc_opt 1 r.by_cores, List.rev r.by_cores) with
  | Some t1, (k, tk) :: _ when t1 > 0.0 && k > 1 -> Some (tk /. (float_of_int k *. t1))
  | _ -> None

let print_fig7 ppf results =
  let cores = match results with { by_cores; _ } :: _ -> List.map fst by_cores | [] -> [] in
  let header =
    "benchmark"
    :: (List.map (fun c -> Printf.sprintf "%d core%s" c (if c > 1 then "s" else "")) cores
       @ [ "linearity" ])
  in
  let rows =
    List.map
      (fun r ->
        r.entry.Catalog.display
        :: (List.map (fun c ->
                match (List.assoc_opt c r.by_cores, List.assoc_opt c r.std_by_cores) with
                | Some t, Some sd -> Printf.sprintf "%s +/-%.2g" (Report.fmt_tput t) sd
                | _ -> "-")
              cores
           @ [
               (match linearity r with Some l -> Printf.sprintf "%.2f" l | None -> "-");
             ]))
      results
  in
  Report.table ppf
    ~title:
      "Fig 7 — GH throughput (req/s) scaling with cores (1 container per core; mean +/- std        over repeated seeded runs)"
    ~header rows
