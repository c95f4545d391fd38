module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Registry = Gh_isolation.Registry
module Microbench = Gh_workloads.Microbench
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf

type point = {
  x : float;
  low_ms : (Registry.id * float) list;
  high_ms : (Registry.id * float) list;
}

let strategies = [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork ]

(* One (strategy, spec) measurement: mean on-path latency (low load) and
   mean on-path + deferred-work latency (high load, back-to-back). *)
let measure cfg strategy spec =
  if not (Registry.supports strategy spec) then None
  else begin
    let seed = cfg.Config.seed lxor Hashtbl.hash ("ubench", spec.Fm.name, Registry.to_string strategy) in
    let rng = Rng.create seed in
    (* Verified restores (tallied off the timeline): timings identical. *)
    match Registry.make strategy ~verify:Groundhog_core.Manager.Verify_full ~rng spec with
    | Error _ -> None
    | Ok strat ->
        let n = cfg.Config.microbench_requests in
        let discard = 2 in
        let low = ref 0.0 and high = ref 0.0 in
        for i = -discard to n - 1 do
          let req =
            Gh_faas.Request.make ~id:(i + discard + 1)
              ~principal:Sweep.principals.((i + discard) mod 2)
              ~input_kb:spec.Fm.input_kb ()
          in
          let inv = strat.Intf.invoke req in
          if i >= 0 then begin
            low := !low +. Time_ns.to_ms inv.Intf.on_path_ns;
            high := !high +. Time_ns.to_ms (inv.Intf.on_path_ns + inv.Intf.post_ns)
          end
        done;
        let n = float_of_int n in
        Some (!low /. n, !high /. n)
  end

(* One cell per (sweep point, strategy); [measure] seeds from the spec's
   name and the strategy. *)
let run_points cfg specs =
  Sweep.grid cfg specs strategies (fun (_, spec) s ->
      Option.map (fun lh -> (s, lh)) (measure cfg s spec))
  |> List.map (fun ((x, _), row) ->
         {
           x;
           low_ms = List.map (fun (s, (l, _)) -> (s, l)) row;
           high_ms = List.map (fun (s, (_, h)) -> (s, h)) row;
         })

let run_left cfg =
  run_points cfg
    (List.map
       (fun fraction -> (100.0 *. fraction, Microbench.fig3_left_spec fraction))
       Microbench.fig3_left_fractions)

let run_right cfg =
  run_points cfg
    (List.map
       (fun pages -> (float_of_int pages, Microbench.fig3_right_spec pages))
       Microbench.fig3_right_sizes)

let print ppf ~title ~x_label points =
  let columns =
    List.concat_map
      (fun s ->
        let name = String.uppercase_ascii (Registry.to_string s) in
        [ name ^ " low"; name ^ " high" ])
      strategies
  in
  let rows =
    List.map
      (fun p ->
        ( p.x,
          List.concat_map
            (fun s ->
              [
                List.assoc_opt s p.low_ms;
                List.assoc_opt s p.high_ms;
              ])
            strategies ))
      points
  in
  Report.series ppf ~title ~x_label ~columns rows
