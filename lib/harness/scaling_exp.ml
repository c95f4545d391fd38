module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Stats = Gh_sim.Stats

type result = {
  entry : Catalog.entry;
  by_cores : (int * float) list;
  std_by_cores : (int * float) list;
}

(* Every (entry, cores, repeat) cell is an independent throughput run
   seeded by (seed + 1000·repeat, entry, cores). *)
let repeats = 3

let run ?(max_cores = 4) cfg entries =
  let cores = List.init max_cores (fun i -> i + 1) in
  let cols = List.concat_map (fun c -> List.init repeats (fun r -> (c, r))) cores in
  Sweep.grid cfg entries cols (fun entry (c, r) ->
      let cfg = { cfg with Config.seed = cfg.Config.seed + (1000 * r) } in
      Throughput_exp.run_one ~n_containers:c cfg Registry.Gh entry
      |> Option.map (fun m -> (c, m.Throughput_exp.tput_rps)))
  |> List.map (fun (entry, samples) ->
      let points =
        List.filter_map
          (fun c ->
            match List.filter_map (fun (c', t) -> if c' = c then Some t else None) samples with
            | [] -> None
            | samples ->
                let a = Array.of_list samples in
                Some (c, Stats.mean a, Stats.std a))
          cores
      in
      {
        entry;
        by_cores = List.map (fun (c, m, _) -> (c, m)) points;
        std_by_cores = List.map (fun (c, _, sd) -> (c, sd)) points;
      })

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
