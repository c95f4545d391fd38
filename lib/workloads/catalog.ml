module Fm = Gh_faas.Function_model
module Runtime = Gh_faas.Runtime
module Time_ns = Gh_sim.Time_ns

type suite = Pyperformance | Polybench | Faasprofiler

type entry = {
  display : string;
  suite : suite;
  reference : Paper_ref.t;
  spec : Fm.spec;
}

(* One row of Appendix A, Table 3 (with the FAASM column joined in from
   Table 1): name, language, suite, BASE invoker ms (mean, std), BASE
   throughput, GH invoker ms, GH throughput, restore ms, mapped pages (K),
   faults per invocation (K), restored pages (K), FAASM invoker ms. *)
type row = {
  r_name : string;
  r_lang : Runtime.lang;
  r_suite : suite;
  r_base_ms : float;
  r_base_std : float;
  r_base_tput : float;
  r_gh_ms : float;
  r_gh_tput : float;
  r_restore_ms : float;
  r_pages_k : float;
  r_faults_k : float;
  r_restored_k : float;
  r_faasm_ms : float option;
}

let c = Runtime.C
and p = Runtime.Python
and n = Runtime.Nodejs

let pb = Polybench
and pf = Pyperformance
and fp = Faasprofiler

let row r_name r_lang r_suite r_base_ms r_base_std r_base_tput r_gh_ms r_gh_tput r_restore_ms
    r_pages_k r_faults_k r_restored_k r_faasm_ms =
  {
    r_name;
    r_lang;
    r_suite;
    r_base_ms;
    r_base_std;
    r_base_tput;
    r_gh_ms;
    r_gh_tput;
    r_restore_ms;
    r_pages_k;
    r_faults_k;
    r_restored_k;
    r_faasm_ms;
  }

(* Table 3 of the paper, ascending restore time. *)
let rows =
  [
    row "cholesky" c pb 166182.8 9208.7 0.02 175691.9 0.02 0.57 0.98 0.02 0.01 (Some 112430.0);
    row "jacobi-1d" c pb 3.8 1.25 671.34 4.2 578.99 0.62 0.98 0.03 0.02 (Some 4.01);
    row "durbin" c pb 7.6 1.35 314.68 8.0 295.98 0.62 0.98 0.03 0.02 (Some 5.43);
    row "jacobi-2d" c pb 2329.3 17.0 1.05 2343.4 1.05 0.69 0.98 0.02 0.01 (Some 4971.0);
    row "lu" c pb 196555.8 11445.0 0.02 207603.5 0.02 0.74 0.98 0.02 0.01 (Some 138303.0);
    row "seidel-2d" c pb 23140.1 22.0 0.16 23139.0 0.16 0.75 0.98 0.02 0.02 (Some 18836.0);
    row "deriche" c pb 1115.0 86.2 4.47 1115.0 4.43 0.75 0.98 0.02 0.01 (Some 674.0);
    row "adi" c pb 28311.1 923.2 0.12 28857.6 0.12 0.77 0.98 0.02 0.02 (Some 19504.0);
    row "floyd-warshall" c pb 21151.4 39.4 0.17 21171.3 0.17 0.78 0.98 0.02 0.01 (Some 21840.0);
    row "bicg" c pb 42.8 1.9 81.05 43.2 79.87 0.93 0.98 0.03 0.03 (Some 25.9);
    row "fdtd-2d" c pb 2179.1 23.9 0.89 2182.6 0.89 0.97 0.98 0.02 0.02 (Some 2695.0);
    row "trisolv" c pb 23.1 1.5 138.18 23.2 134.92 0.97 0.98 0.03 0.02 (Some 11.4);
    row "atax" c pb 36.4 1.6 93.55 36.8 91.99 0.99 0.98 0.03 0.03 (Some 22.2);
    row "nussinov" c pb 39122.6 4053.1 0.09 38323.5 0.09 1.02 0.98 0.02 0.02 (Some 30232.0);
    row "ludcmp" c pb 193545.9 6456.0 0.02 199550.2 0.02 1.02 0.98 0.03 0.02 (Some 138991.0);
    row "mvt" c pb 140.3 3.1 28.78 144.3 28.28 1.16 0.98 0.04 0.03 (Some 76.7);
    row "doitgen" c pb 650.5 14.6 5.98 650.0 5.96 1.31 0.98 0.04 0.02 (Some 662.0);
    row "version" p pf 3.1 1.55 990.38 4.0 562.89 1.66 3.14 0.17 0.17 (Some 3.89);
    row "get-time" p fp 2.9 1.19 1038.74 4.1 552.09 1.66 3.19 0.18 0.18 None;
    row "covariance" c pb 33020.6 494.9 0.10 34971.3 0.10 1.97 0.98 0.04 0.02 (Some 17964.0);
    row "correlation" c pb 32429.6 692.9 0.10 34328.9 0.09 2.00 0.98 0.04 0.02 (Some 19377.0);
    row "3mm" c pb 45729.0 1717.4 0.07 46824.4 0.06 2.32 0.98 0.04 0.02 (Some 31627.0);
    row "gramschmidt" c pb 60899.8 6020.3 0.06 64980.4 0.05 2.53 0.98 0.04 0.02 (Some 44627.0);
    row "pickle" p pf 105.6 1.9 35.49 105.7 34.98 2.90 3.45 0.23 0.23 (Some 184.0);
    row "2mm" c pb 27236.2 1544.4 0.12 28887.4 0.10 3.12 0.98 0.04 0.02 (Some 20590.0);
    row "fannkuch" p pf 4.6 1.24 572.32 6.1 350.22 3.14 6.12 0.19 0.19 (Some 105.0);
    row "unpack_seq" p pf 3.3 1.22 801.86 5.0 398.15 3.17 6.12 0.20 0.20 (Some 103.0);
    row "primes" p fp 1829.7 53.5 2.04 1830.7 1.99 3.24 3.22 0.51 0.53 None;
    row "json" p fp 9.9 3.4 150.00 13.0 135.34 3.71 3.33 0.64 0.87 None;
    row "scimark" p pf 1812.6 30.7 2.12 1806.6 2.12 3.77 3.26 0.51 0.52 (Some 3482.0);
    row "telco" p pf 155.6 3.8 25.01 158.0 23.77 3.91 3.29 0.53 0.53 (Some 315.0);
    row "json_loads" p pf 102.0 2.0 36.46 103.3 35.29 4.04 6.12 0.22 0.22 (Some 252.0);
    row "nbody" p pf 2823.7 69.0 1.34 2845.0 1.34 4.08 6.12 0.21 0.21 (Some 5361.0);
    row "richards" p pf 353.1 4.6 10.68 351.1 10.85 4.16 6.18 0.23 0.23 (Some 607.0);
    row "md2html" p fp 31.0 2.0 93.94 32.7 88.50 4.25 4.93 0.63 0.62 None;
    row "spectral" p pf 592.8 9.9 6.45 605.2 6.40 4.29 6.12 0.03 0.02 (Some 1323.0);
    row "hexiom" p pf 218.2 4.2 17.45 219.2 17.28 4.35 6.18 0.28 0.21 (Some 467.0);
    row "raytrace" p pf 2459.2 67.3 1.58 2463.9 1.57 4.42 6.25 0.26 0.25 (Some 4001.0);
    row "deltablue" p pf 20.4 1.6 157.63 21.3 140.26 4.42 6.18 0.30 0.33 (Some 129.0);
    row "logging" p pf 1249.4 652.6 0.00 227.9 16.34 4.77 6.12 0.23 0.33 (Some 345.0);
    row "json_dumps" p pf 533.1 6.0 7.19 551.5 6.95 4.77 6.37 0.42 0.41 (Some 900.0);
    row "chaos" p pf 648.5 86.1 6.03 652.0 5.94 4.92 6.32 0.31 0.31 (Some 1201.0);
    row "float" p pf 27.1 1.9 125.98 27.8 109.09 4.93 6.26 0.47 0.47 (Some 141.0);
    row "pidigits" p pf 2347.6 5.8 1.64 2349.1 1.63 5.40 6.14 0.81 0.81 (Some 6994.0);
    row "sentiment" p fp 6.5 1.8 385.07 8.9 230.39 6.00 16.86 0.57 0.57 None;
    row "pyaes" p pf 4672.0 63.7 0.82 4751.3 0.80 6.02 6.21 0.83 0.84 (Some 8559.0);
    row "go" p pf 593.0 6.6 6.48 596.6 6.42 6.90 6.25 0.84 0.95 (Some 982.0);
    row "base64" p fp 743.2 7.1 5.18 761.5 5.10 7.67 5.13 1.86 1.66 None;
    row "mdp" p pf 6345.5 64.0 0.59 6412.3 0.58 9.55 7.33 2.22 2.85 (Some 12295.0);
    row "pyflate" p pf 1599.8 16.4 2.39 1622.5 2.34 11.67 8.25 3.01 2.33 (Some 2644.0);
    row "get-time" n fp 3.7 1.29 942.07 6.4 133.45 12.58 156.76 0.59 0.64 None;
    row "json" n fp 9.4 3.55 159.09 16.1 86.58 13.02 156.78 0.67 0.85 None;
    row "autocomplete" n fp 3.8 1.41 922.59 6.3 121.98 13.52 156.98 0.69 0.92 None;
    row "ocr-img" n fp 2491.7 10.6 1.53 2508.5 1.52 13.95 156.80 0.89 1.08 None;
    row "heat-3d" c pb 3059.5 81.6 1.02 3272.0 0.98 16.09 4.35 0.02 3.39 (Some 8645.0);
    row "img-resize" n fp 445.3 74.3 6.57 721.7 4.10 61.83 179.43 9.58 18.05 None;
    row "primes" n fp 274.6 20.1 11.79 287.1 8.16 84.74 201.35 1.27 34.20 None;
    row "base64" n fp 644.0 20.2 5.62 715.1 4.34 161.93 208.42 47.98 53.83 None;
  ]

(* Payload sizes the paper states or implies: json parses a 200 kB
   document, img-resize a 76 kB image; the rest take small inputs. *)
let input_kb_of name =
  match name with
  | "json" -> 200
  | "img-resize" -> 76
  | "ocr-img" -> 64
  | "base64" -> 24
  | _ -> 4

(* Per-benchmark pathologies reported in §5.3.1. *)
let memleak_of name lang =
  (* logging(p) leaks memory and slows down run over run under BASE;
     Groundhog's rollback erases the leak. *)
  if name = "logging" && lang = Runtime.Python then Some (200, 8_000) else None

let gc_penalty_of name lang =
  if lang <> Runtime.Nodejs then 0.0
  else
    match name with
    | "img-resize" -> 0.55  (* restore reverts GC state; collections re-run *)
    | "base64" -> 0.055
    | "primes" -> 0.03
    | "ocr-img" -> 0.005
    | _ -> 0.0

let spec_of_row r =
  let mapped = int_of_float (r.r_pages_k *. 1000.0) in
  let dirtied = max 10 (int_of_float (r.r_restored_k *. 1000.0)) in
  let faults = max 1 (int_of_float (r.r_faults_k *. 1000.0)) in
  let fault_gran = max 1 (min 512 ((dirtied + faults - 1) / faults)) in
  let leak = memleak_of r.r_name r.r_lang in
  let exec_ms =
    (* logging(p)'s catalogued BASE latency is inflated by its own leak;
       the leak-free execution time is what GH measured. *)
    match leak with Some _ -> r.r_gh_ms | None -> r.r_base_ms
  in
  let jitter = Float.min 0.30 (Float.max 0.005 (r.r_base_std /. Float.max 1e-6 r.r_base_ms)) in
  let wasm_factor =
    Option.map (fun faasm_ms -> faasm_ms /. Float.max 1e-6 r.r_base_ms) r.r_faasm_ms
  in
  {
    Fm.name = r.r_name;
    lang = r.r_lang;
    exec_ns = Time_ns.of_ms exec_ms;
    exec_jitter = (match leak with Some _ -> 0.02 | None -> jitter);
    mapped_pages = mapped;
    dirtied_pages = dirtied;
    read_pages = max dirtied (mapped * 9 / 100);
    input_kb = input_kb_of r.r_name;
    output_kb = 2;
    memleak_pages = (match leak with Some (pages, _) -> pages | None -> 0);
    leak_slowdown_ns = (match leak with Some (_, ns) -> ns | None -> 0);
    buggy_residue_leak = false;
    gc_extra_dirty = 0;
    gc_exec_penalty = gc_penalty_of r.r_name r.r_lang;
    wasm_factor;
    fault_gran;
    scattered_writes = false;
    crash_rate = 0.0;
    hang_rate = 0.0;
  }

let entry_of_row r =
  {
    display = Printf.sprintf "%s %s" r.r_name (Runtime.lang_suffix r.r_lang);
    suite = r.r_suite;
    reference =
      {
        Paper_ref.base_invoker_ms = r.r_base_ms;
        base_invoker_std_ms = r.r_base_std;
        base_tput = r.r_base_tput;
        gh_invoker_ms = r.r_gh_ms;
        gh_tput = r.r_gh_tput;
        restore_ms = r.r_restore_ms;
        pages_k = r.r_pages_k;
        faults_k = r.r_faults_k;
        restored_k = r.r_restored_k;
        faasm_invoker_ms = r.r_faasm_ms;
      };
    spec = spec_of_row r;
  }

let all = List.map entry_of_row rows

let find name =
  List.find_opt
    (fun e -> e.display = name || e.spec.Fm.name = name)
    all

let by_suite suite = List.filter (fun e -> e.suite = suite) all
let by_lang lang = List.filter (fun e -> e.spec.Fm.lang = lang) all
let wasm_ported = List.filter (fun e -> e.spec.Fm.wasm_factor <> None) all

let suite_to_string = function
  | Pyperformance -> "pyperformance"
  | Polybench -> "polybench"
  | Faasprofiler -> "faasprofiler"

let names () = List.map (fun e -> e.display) all
