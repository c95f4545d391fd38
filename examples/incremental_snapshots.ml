(* The §5.5 optimization, demonstrated: eager snapshots copy the whole
   paged-in footprint into the manager; incremental (CoW-salvage) snapshots
   start empty and save each page's original contents the first time it is
   ever modified — so manager memory tracks the working set, capture is
   near-instant, and the price is a one-time CoW fault per unique page.

   Run with: dune exec examples/incremental_snapshots.exe *)

module Fm = Gh_faas.Function_model
module Manager = Groundhog_core.Manager
module Account = Gh_sim.Account
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng

let spec =
  (* A Node.js-sized function: big footprint, modest per-request dirty set. *)
  match Gh_workloads.Catalog.find "json (n)" with
  | Some e -> e.Gh_workloads.Catalog.spec
  | None -> failwith "catalog"

let alice = Gh_faas.Principal.make ~id:1 ~name:"alice"
let bob = Gh_faas.Principal.make ~id:2 ~name:"bob"

let mb pages = float_of_int pages *. 4096.0 /. 1048576.0

let build_and_warm rng_seed =
  let inst = Fm.build spec in
  let rng = Rng.create rng_seed in
  ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
  (inst, rng)

let serve inst rng mgr n =
  let on_path = ref 0 in
  for i = 1 to n do
    let acct = Account.create () in
    let principal = if i land 1 = 1 then alice else bob in
    ignore
      (Fm.invoke inst acct rng ~post_restore:(i > 1)
         (Gh_faas.Request.make ~id:i ~principal ~input_kb:spec.Fm.input_kb ()));
    Manager.mark_dirty mgr;
    ignore (Manager.restore_exn mgr);
    on_path := !on_path + Account.total acct
  done;
  Time_ns.to_ms (!on_path / n)

let () =
  Format.printf "Function: %s — %d mapped pages (%.0f MB), ~%d dirtied per request@.@."
    spec.Fm.name spec.Fm.mapped_pages (mb spec.Fm.mapped_pages) spec.Fm.dirtied_pages;

  (* Eager (the paper's evaluated configuration). *)
  let inst, rng = build_and_warm 1 in
  let mgr = Manager.create (Fm.proc inst) in
  let capture_ns = Manager.take_snapshot_exn mgr in
  let mean_on_path = serve inst rng mgr 10 in
  Format.printf "EAGER:       capture %8.2f ms   manager buffer %7.1f MB   mean on-path %6.2f ms@."
    (Time_ns.to_ms capture_ns)
    (mb (Manager.buffer_pages mgr))
    mean_on_path;

  (* Incremental (§5.5's proposed optimization). *)
  let inst, rng = build_and_warm 1 in
  let mgr = Manager.create ~mode:Manager.Incremental (Fm.proc inst) in
  let capture_ns = Manager.take_snapshot_exn mgr in
  let first_req =
    let acct = Account.create () in
    ignore
      (Fm.invoke inst acct rng ~post_restore:false
         (Gh_faas.Request.make ~id:1 ~principal:alice ~input_kb:spec.Fm.input_kb ()));
    Manager.mark_dirty mgr;
    ignore (Manager.restore_exn mgr);
    Time_ns.to_ms (Account.total acct)
  in
  let mean_on_path = serve inst rng mgr 9 in
  Format.printf
    "INCREMENTAL: capture %8.2f ms   manager buffer %7.1f MB   mean on-path %6.2f ms@."
    (Time_ns.to_ms capture_ns)
    (mb (Manager.buffer_pages mgr))
    mean_on_path;
  Format.printf
    "             (first request paid the salvage CoW faults: %.2f ms on-path)@.@."
    first_req;
  Format.printf
    "Same isolation guarantee, ~%.0fx less manager memory, near-zero capture —@.\
     at the cost of one CoW fault per unique modified page, once per container.@."
    (mb spec.Fm.mapped_pages /. Float.max 0.1 (mb (Manager.buffer_pages mgr)))
