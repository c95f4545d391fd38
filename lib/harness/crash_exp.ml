module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf

type point = {
  crash_rate : float;
  occupancy_ms : (Registry.id * float) list;
  crashes : (Registry.id * int) list;
}

let strategies = [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork ]

let measure cfg strategy spec ~requests =
  let seed = cfg.Config.seed lxor Hashtbl.hash ("crash", spec.Fm.name, Registry.to_string strategy) in
  match Registry.make strategy ~rng:(Rng.create seed) spec with
  | Error _ -> None
  | Ok strat ->
      let busy = ref 0 and crashes = ref 0 and succeeded = ref 0 in
      for i = 1 to requests do
        let principal = Sweep.principals.((i - 1) land 1) in
        let inv =
          strat.Intf.invoke (Gh_faas.Request.make ~id:i ~principal ~input_kb:spec.Fm.input_kb ())
        in
        (* The container is occupied for the whole episode — including the
           crashed attempt and its recovery — but only completed requests
           count as delivered work, so the mean is occupancy per
           {e successful} request. *)
        busy := !busy + inv.Intf.on_path_ns + inv.Intf.post_ns;
        match inv.Intf.outcome with
        | Intf.Completed -> incr succeeded
        | Intf.Crashed -> incr crashes
        | Intf.Hung | Intf.Poisoned -> ()
      done;
      if !succeeded = 0 then None
      else Some (Time_ns.to_ms (!busy / !succeeded), !crashes)

let run cfg ?(rates = [ 0.0; 0.01; 0.05; 0.2 ]) ?(requests = 80) (entry : Catalog.entry) =
  List.map
    (fun crash_rate ->
      let spec = { entry.Catalog.spec with Fm.crash_rate } in
      let occupancy = ref [] in
      let crashes = ref [] in
      List.iter
        (fun strategy ->
          match measure cfg strategy spec ~requests with
          | Some (ms, n) ->
              occupancy := (strategy, ms) :: !occupancy;
              crashes := (strategy, n) :: !crashes
          | None -> ())
        strategies;
      { crash_rate; occupancy_ms = List.rev !occupancy; crashes = List.rev !crashes })
    rates

let print ppf (entry : Catalog.entry) points =
  let header =
    "crash rate"
    :: (List.map
          (fun s -> String.uppercase_ascii (Registry.to_string s) ^ " ms/req")
          strategies
       @ [ "crashes (per strategy)" ])
  in
  let rows =
    List.map
      (fun p ->
        Printf.sprintf "%.0f%%" (100.0 *. p.crash_rate)
        :: (List.map
              (fun s ->
                match List.assoc_opt s p.occupancy_ms with
                | Some ms -> Report.fmt_ms ms
                | None -> "-")
              strategies
           @ [
               String.concat "/"
                 (List.map
                    (fun s ->
                      match List.assoc_opt s p.crashes with
                      | Some n -> string_of_int n
                      | None -> "-")
                    strategies);
             ]))
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "Crash recovery on %s: container occupancy per successful request vs crash rate — \
          BASE rebuilds the container, snapshot-holders just restore"
         entry.Catalog.display)
    ~header rows
