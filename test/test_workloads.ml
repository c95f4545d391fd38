(* Unit tests for the benchmark catalog, the microbenchmark specs and the
   representative subset. *)

module Fm = Gh_faas.Function_model
module Runtime = Gh_faas.Runtime
open Gh_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_catalog_counts () =
  check_int "58 benchmarks" 58 (List.length Catalog.all);
  check_int "22 pyperformance" 22 (List.length (Catalog.by_suite Catalog.Pyperformance));
  check_int "23 polybench" 23 (List.length (Catalog.by_suite Catalog.Polybench));
  check_int "13 faasprofiler" 13 (List.length (Catalog.by_suite Catalog.Faasprofiler));
  check_int "23 C functions" 23 (List.length (Catalog.by_lang Runtime.C));
  check_int "28 python functions" 28 (List.length (Catalog.by_lang Runtime.Python));
  check_int "7 node functions" 7 (List.length (Catalog.by_lang Runtime.Nodejs))

let test_catalog_names_unique () =
  let names = Catalog.names () in
  check_int "display names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_catalog_find () =
  (match Catalog.find "chaos (p)" with
  | Some e -> check_bool "display lookup" true (e.Catalog.spec.Fm.name = "chaos")
  | None -> Alcotest.fail "chaos (p) missing");
  (match Catalog.find "chaos" with
  | Some _ -> ()
  | None -> Alcotest.fail "bare-name lookup failed");
  match Catalog.find "no-such-benchmark" with
  | None -> ()
  | Some _ -> Alcotest.fail "phantom benchmark"

let test_wasm_ported_subset () =
  (* pyperformance + PolyBench compile to wasm; FaaSProfiler doesn't. *)
  check_int "45 wasm ports" 45 (List.length Catalog.wasm_ported);
  List.iter
    (fun (e : Catalog.entry) ->
      check_bool "no faasprofiler wasm" true (e.Catalog.suite <> Catalog.Faasprofiler))
    Catalog.wasm_ported

let test_spec_derivation () =
  let e = Option.get (Catalog.find "json (n)") in
  let spec = e.Catalog.spec in
  let reference = e.Catalog.reference in
  check_int "mapped pages from table"
    (int_of_float (reference.Paper_ref.pages_k *. 1000.0))
    spec.Fm.mapped_pages;
  check_int "dirtied from restored column"
    (int_of_float (reference.Paper_ref.restored_k *. 1000.0))
    spec.Fm.dirtied_pages;
  check_bool "exec matches base invoker latency" true
    (Float.abs (Gh_sim.Time_ns.to_ms spec.Fm.exec_ns -. reference.Paper_ref.base_invoker_ms)
    < 0.01);
  check_int "json takes a 200 kB payload" 200 spec.Fm.input_kb;
  check_bool "read set covers working set" true (spec.Fm.read_pages >= spec.Fm.dirtied_pages)

let test_thp_granularity_derivation () =
  (* primes(n) restores 34.2K pages from only 1.27K faults: THP-backed. *)
  let e =
    List.find
      (fun (e : Catalog.entry) -> e.Catalog.display = "primes (n)")
      Catalog.all
  in
  check_bool "fault granularity > 20" true (e.Catalog.spec.Fm.fault_gran > 20);
  (* base64(n) faults roughly per page. *)
  let e2 =
    List.find
      (fun (e : Catalog.entry) -> e.Catalog.display = "base64 (n)")
      Catalog.all
  in
  check_bool "base-page granularity" true (e2.Catalog.spec.Fm.fault_gran <= 2)

let test_logging_models_the_leak () =
  let e = Option.get (Catalog.find "logging (p)") in
  check_bool "leaks pages" true (e.Catalog.spec.Fm.memleak_pages > 0);
  check_bool "slowdown per leaked page" true (e.Catalog.spec.Fm.leak_slowdown_ns > 0);
  (* Its exec time comes from the GH column (leak-free). *)
  check_bool "exec is the leak-free latency" true
    (Float.abs (Gh_sim.Time_ns.to_ms e.Catalog.spec.Fm.exec_ns -. 227.9) < 0.01)

let test_node_gc_penalties () =
  let penalty name =
    (Option.get (Catalog.find name)).Catalog.spec.Fm.gc_exec_penalty
  in
  check_bool "img-resize worst" true (penalty "img-resize (n)" > 0.5);
  check_bool "C has none" true (penalty "heat-3d (c)" = 0.0)

let test_paper_ref_computations () =
  let e = Option.get (Catalog.find "version (p)") in
  let r = e.Catalog.reference in
  (* 3.1 -> 4.0 ms is a +29% overhead. *)
  check_bool "latency overhead ~29%" true
    (Float.abs (Paper_ref.gh_latency_overhead_pct r -. 29.0) < 1.0);
  check_bool "tput drop ~43%" true (Float.abs (Paper_ref.gh_tput_drop_pct r -. 43.2) < 1.0);
  let logging = Option.get (Catalog.find "logging (p)") in
  check_bool "zero base tput yields nan" true
    (Float.is_nan (Paper_ref.gh_tput_drop_pct logging.Catalog.reference))

let test_microbench_specs () =
  let s = Microbench.fig3_left_spec 0.5 in
  check_int "100K mapped" 100_000 s.Fm.mapped_pages;
  check_int "half dirtied" 50_000 s.Fm.dirtied_pages;
  check_int "reads every page" 100_000 s.Fm.read_pages;
  check_bool "scattered pattern" true s.Fm.scattered_writes;
  let s = Microbench.fig3_right_spec 20_000 in
  check_int "fixed 1K dirtied" 1_000 s.Fm.dirtied_pages;
  check_int "mapped as asked" 20_000 s.Fm.mapped_pages;
  (try
     ignore (Microbench.fig3_left_spec 1.5);
     Alcotest.fail "fraction must be in [0,1]"
   with Invalid_argument _ -> ());
  check_int "11 left sweep points" 11 (List.length Microbench.fig3_left_fractions);
  check_int "8 right sweep points" 8 (List.length Microbench.fig3_right_sizes)

let test_representative_subset () =
  check_int "14 benchmarks" 14 (List.length Representative.names);
  check_int "all resolvable" 14 (List.length Representative.entries);
  let langs =
    List.sort_uniq compare
      (List.map (fun (e : Catalog.entry) -> e.Catalog.spec.Fm.lang) Representative.entries)
  in
  check_int "covers all three languages" 3 (List.length langs)

let test_catalog_specs_buildable () =
  (* Every catalog spec must build and warm without raising. The heaviest
     Node entries take a moment; sample across languages instead. *)
  let sample = [ "jacobi-1d (c)"; "version (p)"; "sentiment (p)"; "get-time (n)" ] in
  List.iter
    (fun name ->
      let e = Option.get (Catalog.find name) in
      let inst = Fm.build e.Catalog.spec in
      let rng = Gh_sim.Rng.create 1 in
      ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
      let req = Gh_faas.Request.make ~id:1 ~principal:(Gh_faas.Principal.make ~id:1 ~name:"a") () in
      ignore (Fm.invoke inst (Gh_sim.Account.create ()) rng ~post_restore:false req))
    sample

let test_synthetic_specs_valid () =
  let rng = Gh_sim.Rng.create 123 in
  let specs = Synthetic.draw_many rng 50 in
  check_int "drew 50" 50 (List.length specs);
  List.iter
    (fun (s : Fm.spec) ->
      check_bool "positive exec" true (s.Fm.exec_ns > 0);
      check_bool "dirtied within footprint" true (s.Fm.dirtied_pages <= s.Fm.mapped_pages);
      check_bool "reads within footprint" true (s.Fm.read_pages <= s.Fm.mapped_pages);
      check_bool "gran sane" true (s.Fm.fault_gran >= 1 && s.Fm.fault_gran <= 512))
    specs

let test_synthetic_deterministic () =
  (* The name carries a process-wide uniqueness counter, so it differs
     between draws; every field actually drawn from the RNG must still
     replay identically for the same seed. *)
  let anon (s : Fm.spec) = { s with Fm.name = "" } in
  let a = Synthetic.draw (Gh_sim.Rng.create 9) in
  let b = Synthetic.draw (Gh_sim.Rng.create 9) in
  check_bool "same seed, same spec up to name" true (anon a = anon b);
  check_bool "names never repeat" true (a.Fm.name <> b.Fm.name);
  let c = Synthetic.draw (Gh_sim.Rng.create 10) in
  check_bool "different seed, different spec" true (anon a <> anon c)

let test_synthetic_names_collision_free () =
  (* 24-bit random tags alone birthday-collide well before the
     thousands-of-functions scale; the counter suffix must keep every name
     distinct even across draws from identical RNG states. *)
  let rng_a = Gh_sim.Rng.create 77 and rng_b = Gh_sim.Rng.create 77 in
  let specs =
    Synthetic.draw_many ~profile:Synthetic.tiny_profile rng_a 2_000
    @ Synthetic.draw_many ~profile:Synthetic.tiny_profile rng_b 2_000
  in
  let names = List.map (fun (s : Fm.spec) -> s.Fm.name) specs in
  check_int "all names distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_synthetic_buildable () =
  let rng = Gh_sim.Rng.create 321 in
  let specs = Synthetic.draw_many ~profile:Synthetic.tiny_profile rng 10 in
  List.iter
    (fun spec ->
      let inst = Fm.build spec in
      ignore (Fm.boot inst ~fault:Gh_sim.Fault.none (Gh_sim.Rng.create 1)))
    specs

let () =
  Alcotest.run "gh_workloads"
    [
      ( "catalog",
        [
          Alcotest.test_case "counts" `Quick test_catalog_counts;
          Alcotest.test_case "names unique" `Quick test_catalog_names_unique;
          Alcotest.test_case "find" `Quick test_catalog_find;
          Alcotest.test_case "wasm subset" `Quick test_wasm_ported_subset;
          Alcotest.test_case "spec derivation" `Quick test_spec_derivation;
          Alcotest.test_case "THP granularity" `Quick test_thp_granularity_derivation;
          Alcotest.test_case "logging leak" `Quick test_logging_models_the_leak;
          Alcotest.test_case "node GC penalties" `Quick test_node_gc_penalties;
          Alcotest.test_case "paper-ref computations" `Quick test_paper_ref_computations;
          Alcotest.test_case "specs buildable" `Quick test_catalog_specs_buildable;
        ] );
      ( "microbench",
        [ Alcotest.test_case "specs" `Quick test_microbench_specs ] );
      ( "representative",
        [ Alcotest.test_case "subset" `Quick test_representative_subset ] );
      ( "synthetic",
        [
          Alcotest.test_case "specs valid" `Quick test_synthetic_specs_valid;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "names collision-free" `Quick test_synthetic_names_collision_free;
          Alcotest.test_case "buildable" `Quick test_synthetic_buildable;
        ] );
    ]
