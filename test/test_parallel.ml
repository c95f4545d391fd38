(* The Domain_pool determinism contract (DESIGN §15): [parallel_map] is
   observationally [List.map] — same results, same order, same exception —
   for any job count, so fanning pure experiment cells across domains
   cannot change a report byte. [Sweep.grid], the harnesses' runner on
   top of it, must regroup its cells into the same rows as the serial
   nested loop.

   GH_JOBS (an integer) pins the job count used by the example-based
   tests; the properties draw job counts randomly regardless. *)

module Domain_pool = Gh_sim.Domain_pool
module Rng = Gh_sim.Rng
module Sweep = Gh_harness.Sweep
module Config = Gh_harness.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let env_jobs =
  match Sys.getenv_opt "GH_JOBS" with
  | Some s -> int_of_string s
  | None -> 4

(* -- properties -- *)

let input_gen =
  QCheck2.Gen.(
    pair (int_range 1 8) (list_size (int_range 0 50) (int_range (-1000) 1000)))

let print_input (jobs, xs) =
  Printf.sprintf "jobs=%d [%s]" jobs (String.concat ";" (List.map string_of_int xs))

(* A job expensive enough that workers interleave, cheap enough for qcheck. *)
let work x =
  let acc = ref x in
  for i = 1 to 100 do
    acc := (!acc * 31) + i
  done;
  !acc

let matches_list_map =
  QCheck2.Test.make ~name:"parallel_map = List.map (order and contents)" ~count:200
    ~print:print_input input_gen (fun (jobs, xs) ->
      Domain_pool.parallel_map ~jobs work xs = List.map work xs)

exception Boom of int

(* List.map's exception semantics: the raiser earliest in input order wins,
   no matter which domain hits its cell first. *)
let raises_like_list_map =
  QCheck2.Test.make ~name:"parallel_map raises the lowest-index exception" ~count:200
    ~print:print_input input_gen (fun (jobs, xs) ->
      let f x = if x mod 7 = 3 then raise (Boom x) else work x in
      let serial = try Ok (List.map f xs) with Boom v -> Error v in
      let parallel = try Ok (Domain_pool.parallel_map ~jobs f xs) with Boom v -> Error v in
      serial = parallel)

(* Rows and columns of 0-6 cells each, and which cells yield a value: a
   cell's value names its row and column, so a result regrouped into the
   wrong row or column shows. *)
let grid_matches_nested_loop =
  QCheck2.Test.make ~name:"Sweep.grid = nested List.map at jobs 1 and 4" ~count:200
    ~print:QCheck2.Print.(triple int int (list bool))
    QCheck2.Gen.(triple (int_range 0 6) (int_range 0 6) (list_repeat 36 bool))
    (fun (n_rows, n_cols, pattern) ->
      let keep = Array.of_list pattern in
      let rows = List.init n_rows (fun i -> 100 + i) and cols = List.init n_cols Fun.id in
      let f r c = if keep.((6 * (r - 100)) + c) then Some ((r * 10) + c) else None in
      let serial = List.map (fun r -> (r, List.filter_map (f r) cols)) rows in
      List.for_all
        (fun jobs -> Sweep.grid { Config.default with jobs } rows cols f = serial)
        [ 1; 4 ])

(* Sibling split streams are independent: draining one does not shift the
   other, so per-cell RNGs derived before a sweep are unaffected by how
   much randomness other cells consume. *)
let split_streams_independent =
  QCheck2.Test.make ~name:"Rng.split streams are independent" ~count:200
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 200))
    (fun (seed, n_draws) ->
      let drain rng = List.init n_draws (fun _ -> Rng.int rng 1_000_000) in
      (* First parent: split a, drain it, then split b. *)
      let p1 = Rng.create seed in
      let a1 = Rng.split p1 in
      let a1_draws = drain a1 in
      let b1 = Rng.split p1 in
      let b1_draws = drain b1 in
      (* Second parent: split both before draining either. *)
      let p2 = Rng.create seed in
      let a2 = Rng.split p2 in
      let b2 = Rng.split p2 in
      let b2_draws = drain b2 in
      let a2_draws = drain a2 in
      a1_draws = a2_draws && b1_draws = b2_draws)

(* -- examples -- *)

let test_order_preserved () =
  let xs = List.init 500 Fun.id in
  check_bool "identity map returns the input in order" true
    (Domain_pool.parallel_map ~jobs:env_jobs Fun.id xs = xs)

let test_empty_and_singleton () =
  check_int "empty" 0 (List.length (Domain_pool.parallel_map ~jobs:env_jobs work []));
  check_bool "singleton" true
    (Domain_pool.parallel_map ~jobs:env_jobs work [ 9 ] = [ work 9 ])

let test_nested_degrades_to_serial () =
  let xs = List.init 8 Fun.id in
  let nested =
    Domain_pool.parallel_map ~jobs:env_jobs
      (fun i -> Domain_pool.parallel_map ~jobs:env_jobs (fun j -> work ((10 * i) + j)) xs)
      xs
  in
  let serial = List.map (fun i -> List.map (fun j -> work ((10 * i) + j)) xs) xs in
  check_bool "nested parallel_map matches nested List.map" true (nested = serial)

let test_all_jobs_run_after_failure () =
  (* Even when an early cell raises, later cells still execute (List.map
     evaluates every element too); observe it via a counter. *)
  let ran = Atomic.make 0 in
  let f x =
    Atomic.incr ran;
    if x = 0 then raise (Boom x) else x
  in
  (match Domain_pool.parallel_map ~jobs:env_jobs f (List.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 0 -> ());
  check_int "every cell ran" 20 (Atomic.get ran)

(* Gc.quick_stat sums every domain, joined pool workers included, so the
   calling domain reads a sweep's whole allocation at any job count — the
   figure `gh-bench run --gc-stats` prints. Each domain's count can be off
   by up to one minor heap (256K words by default), so the sweep allocates
   ~96M short-lived words to hold the 1% bound at 3 spawned domains. *)
let test_gc_words_independent_of_jobs () =
  let alloc x =
    for _ = 1 to 25 do
      ignore (List.length (List.init 20_000 (fun i -> i + x)))
    done
  in
  let xs = List.init 64 Fun.id in
  let minor_words jobs =
    let before = (Gc.quick_stat ()).Gc.minor_words in
    ignore (Domain_pool.parallel_map ~jobs alloc xs);
    (Gc.quick_stat ()).Gc.minor_words -. before
  in
  let serial = minor_words 1 in
  List.iter
    (fun jobs ->
      let w = minor_words jobs in
      check_bool
        (Printf.sprintf "jobs %d: %.0f minor words within 1%% of jobs 1 (%.0f)" jobs w serial)
        true
        (Float.abs (w -. serial) <= 0.01 *. serial))
    [ 2; 4 ]

let test_recommended_jobs_positive () =
  check_bool "recommended_jobs >= 1" true (Domain_pool.recommended_jobs () >= 1)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "domain-pool",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "nested degrades to serial" `Quick test_nested_degrades_to_serial;
          Alcotest.test_case "all jobs run after a failure" `Quick test_all_jobs_run_after_failure;
          Alcotest.test_case "recommended jobs positive" `Quick test_recommended_jobs_positive;
          Alcotest.test_case "gc words independent of jobs" `Quick
            test_gc_words_independent_of_jobs;
        ] );
      ( "properties",
        [
          to_alcotest matches_list_map;
          to_alcotest raises_like_list_map;
          to_alcotest grid_matches_nested_loop;
          to_alcotest split_streams_independent;
        ] );
    ]
