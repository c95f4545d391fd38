(* Unit tests for the simulation kernel: time, RNG, statistics, heap,
   engine, accounts. *)

open Gh_sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Time_ns -- *)

let test_time_conversions () =
  check_int "1ms" 1_000_000 (Time_ns.of_ms 1.0);
  check_int "1us" 1_000 (Time_ns.of_us 1.0);
  check_int "1s" 1_000_000_000 (Time_ns.of_sec 1.0);
  check_float "roundtrip ms" 3.7 (Time_ns.to_ms (Time_ns.of_ms 3.7));
  check_float "roundtrip us" 12.0 (Time_ns.to_us (Time_ns.of_us 12.0));
  check_int "zero" 0 Time_ns.zero

let test_time_pp () =
  let s v = Format.asprintf "%a" Time_ns.pp v in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.25ms" (s 2_250_000);
  Alcotest.(check string) "s" "1.500s" (s 1_500_000_000)

(* -- Rng -- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create 42 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng 5 9 in
    check_bool "in [5,9]" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 1_000 do
    let v = Rng.float rng 2.5 in
    check_bool "float in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independence () =
  let root = Rng.create 11 in
  let a = Rng.split root in
  let a_vals = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  (* Splitting another child must not perturb [a]'s past. *)
  let root2 = Rng.create 11 in
  let a2 = Rng.split root2 in
  let _b2 = Rng.split root2 in
  let a2_vals = List.init 20 (fun _ -> Rng.int a2 1_000_000) in
  Alcotest.(check (list int)) "child stream stable" a_vals a2_vals

let test_rng_named_split () =
  let root = Rng.create 3 in
  let x1 = Rng.int (Rng.named_split root "x") 1000 in
  let x2 = Rng.int (Rng.named_split root "x") 1000 in
  check_int "same name, same stream" x1 x2;
  let y = Rng.int (Rng.named_split root "y") 1000 in
  (* Not a strict guarantee, but astronomically unlikely to collide. *)
  check_bool "distinct names usually differ" true (x1 <> y || x1 = y && Rng.int root 2 >= 0)

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let acc = Stats.Online.create () in
  for _ = 1 to n do
    Stats.Online.add acc (Rng.gaussian rng ~mu:10.0 ~sigma:2.0)
  done;
  check_bool "mean ~10" true (Float.abs (Stats.Online.mean acc -. 10.0) < 0.1);
  check_bool "std ~2" true (Float.abs (Stats.Online.std acc -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create 6 in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.exponential rng ~mean:4.0)
  done;
  check_bool "mean ~4" true (Float.abs (Stats.Online.mean acc -. 4.0) < 0.2)

(* -- Stats -- *)

let test_stats_known_values () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "mean" 3.0 s.Stats.mean;
  check_float "median" 3.0 s.Stats.median;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_float "std" (sqrt 2.5) s.Stats.std;
  check_int "n" 5 s.Stats.n

let test_stats_percentile_interpolation () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile sorted 0.0);
  check_float "p100" 40.0 (Stats.percentile sorted 100.0);
  check_float "p50" 25.0 (Stats.percentile sorted 50.0);
  check_float "p25" 17.5 (Stats.percentile sorted 25.0)

let test_stats_single_sample () =
  let s = Stats.summarize [| 42.0 |] in
  check_float "mean" 42.0 s.Stats.mean;
  check_float "p95" 42.0 s.Stats.p95;
  check_float "std" 0.0 s.Stats.std

let test_stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize [||]))

let test_online_matches_direct () =
  let rng = Rng.create 77 in
  let data = Array.init 500 (fun _ -> Rng.float rng 100.0) in
  let acc = Stats.Online.create () in
  Array.iter (Stats.Online.add acc) data;
  let s = Stats.summarize data in
  check_bool "mean close" true (Float.abs (Stats.Online.mean acc -. s.Stats.mean) < 1e-9);
  check_bool "std close" true (Float.abs (Stats.Online.std acc -. s.Stats.std) < 1e-9)

(* -- Event_queue -- *)

(* A drained queue must not pin the closures it dispatched: watch the
   payloads each closure captures through weak pointers and demand they are
   collected once everything is popped. A heap that only decrements its
   length fails this: vacated slots beyond [len] keep every entry
   reachable. *)
let check_drained_releases name ~push ~pop =
  let n = 16 in
  let w = Weak.create n in
  let sink = ref 0 in
  for i = 0 to n - 1 do
    let payload = ref (Array.make 64 i) in
    Weak.set w i (Some payload);
    (* The closure writes through [sink] so the capture of [payload] cannot
       be optimized away. *)
    push ~key:(i * 17 mod 5) (fun () -> sink := !sink + Array.length !payload)
  done;
  let rec drain () = match pop () with Some _ -> drain () | None -> () in
  drain ();
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to n - 1 do
    check_bool (Printf.sprintf "%s payload %d collected" name i) false (Weak.check w i)
  done;
  (* Touch the queue again so it stays live across the majors above — the
     point is that the *drained structure* no longer pins the closures, not
     that the structure itself became garbage. *)
  match pop () with
  | Some _ -> Alcotest.fail (name ^ ": expected drained")
  | None -> ()

let test_event_queue_ordering () =
  let q = Event_queue.create ~dummy:0 in
  List.iter (fun k -> Event_queue.push q ~key:k k) [ 5; 1; 9; 3; 7; 2; 8 ];
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create ~dummy:"" in
  Event_queue.push q ~key:5 "a";
  Event_queue.push q ~key:5 "b";
  Event_queue.push q ~key:5 "c";
  Event_queue.push q ~key:1 "z";
  let next () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  (* Popping the earlier key sifts the ties down from the root. *)
  Alcotest.(check string) "earlier key first" "z" (next ());
  Event_queue.push q ~key:5 "d";
  (* Evaluate in sequence: OCaml list literals evaluate right-to-left. *)
  let first = next () in
  let second = next () in
  let third = next () in
  let fourth = next () in
  Alcotest.(check (list string)) "insertion order among ties" [ "a"; "b"; "c"; "d" ]
    [ first; second; third; fourth ]

let test_event_queue_peek_and_size () =
  let q = Event_queue.create ~dummy:0 in
  check_bool "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option int)) "peek empty" None (Event_queue.peek_key q);
  Event_queue.push q ~key:3 0;
  Event_queue.push q ~key:1 0;
  Alcotest.(check (option int)) "peek min" (Some 1) (Event_queue.peek_key q);
  check_int "size" 2 (Event_queue.size q);
  Event_queue.clear q;
  check_bool "cleared" true (Event_queue.is_empty q)

let test_event_queue_wide_spread () =
  (* 20K keys spanning ten orders of magnitude grow the arrays many times
     and sift through deep levels; the pop order must still be exact. *)
  let q = Event_queue.create ~dummy:0 in
  let rng = Rng.create 4242 in
  let keys = Array.init 20_000 (fun _ -> Rng.int rng (1 lsl (1 + Rng.int rng 34))) in
  Array.iter (fun k -> Event_queue.push q ~key:k k) keys;
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  let expect = List.sort compare (Array.to_list keys) in
  Alcotest.(check (list int)) "exact sorted order" expect (List.rev !popped)

let test_event_queue_below_window () =
  (* A push below every pending key, made after a peek at a far key, must
     become the new minimum and pop first. *)
  let q = Event_queue.create ~dummy:0 in
  Event_queue.push q ~key:1_000_000_000 1;
  Alcotest.(check (option int)) "peek far" (Some 1_000_000_000) (Event_queue.peek_key q);
  Event_queue.push q ~key:7 2;
  Alcotest.(check (option int)) "peek near" (Some 7) (Event_queue.peek_key q);
  (match Event_queue.pop q with
  | Some (k, v) ->
      check_int "near key first" 7 k;
      check_int "near value" 2 v
  | None -> Alcotest.fail "expected an element");
  (match Event_queue.pop q with
  | Some (k, _) -> check_int "far key second" 1_000_000_000 k
  | None -> Alcotest.fail "expected an element");
  check_bool "drained" true (Event_queue.is_empty q)

let test_event_queue_pop_releases () =
  let q = Event_queue.create ~dummy:(fun () -> ()) in
  check_drained_releases "event_queue"
    ~push:(fun ~key f -> Event_queue.push q ~key f)
    ~pop:(fun () -> Event_queue.pop q)

(* -- Engine -- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~after:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~after:20 (fun () -> log := 20 :: !log);
  Engine.run_all e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  check_int "clock at last event" 30 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:5 (fun () ->
      log := ("a", Engine.now e) :: !log;
      Engine.schedule e ~after:5 (fun () -> log := ("b", Engine.now e) :: !log));
  Engine.run_all e;
  Alcotest.(check (list (pair string int))) "nested" [ ("a", 5); ("b", 10) ] (List.rev !log)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~after:10 (fun () -> incr fired);
  Engine.schedule e ~after:100 (fun () -> incr fired);
  Engine.run e ~until:50;
  check_int "only first fired" 1 !fired;
  check_int "clock advanced to until" 50 (Engine.now e);
  check_int "one pending" 1 (Engine.pending e);
  Engine.run_all e;
  check_int "all fired" 2 !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~after:10 (fun () -> ());
  Engine.run_all e;
  Alcotest.check_raises "past instant"
    (Invalid_argument "Engine.at: instant in the simulated past") (fun () ->
      Engine.at e ~time:5 (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~after:(-1) (fun () -> ()))

let test_engine_stress_ordering () =
  let e = Engine.create () in
  let rng = Rng.create 99 in
  let fired = ref [] in
  for _ = 1 to 50_000 do
    let at = Rng.int rng 1_000_000 in
    Engine.at e ~time:at (fun () -> fired := at :: !fired)
  done;
  Engine.run_all e;
  check_int "all fired" 50_000 (List.length !fired);
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
    | _ -> true
  in
  (* [fired] is newest-first, so it must be nonincreasing. *)
  check_bool "globally time-ordered" true (nonincreasing !fired)

let test_engine_at_batch () =
  (* A batch admission must replay exactly like the per-event loop it
     replaces: same times, same FIFO ties, validated up front. *)
  let fire log tag at = (at, fun () -> log := (tag, at) :: !log) in
  let times = [ 30; 10; 10; 50; 10; 30 ] in
  let log_a = ref [] and log_b = ref [] in
  let a = Engine.create () in
  List.iteri (fun i at -> Engine.at a ~time:at (snd (fire log_a i at))) times;
  Engine.run_all a;
  let b = Engine.create () in
  Engine.at_batch b (List.mapi (fun i at -> fire log_b i at) times);
  Engine.run_all b;
  Alcotest.(check (list (pair int int))) "batch replays the loop" (List.rev !log_a)
    (List.rev !log_b);
  let c = Engine.create () in
  Engine.schedule c ~after:10 (fun () -> ());
  Engine.run_all c;
  Alcotest.check_raises "whole batch rejected on one past instant"
    (Invalid_argument "Engine.at_batch: instant in the simulated past") (fun () ->
      Engine.at_batch c [ (20, (fun () -> ())); (5, fun () -> ()) ]);
  check_int "nothing admitted" 0 (Engine.pending c)

let test_engine_replays_time_seq_order () =
  (* Determinism contract: the engine dispatches in exactly (time, seq)
     order, including callbacks that schedule more work mid-run. *)
  let rng = Rng.create 12345 in
  let engine = Engine.create () in
  let planted = ref [] and fired = ref [] in
  let uid = ref 0 in
  let rec plant depth ~time =
    let id = !uid in
    incr uid;
    planted := (time, id) :: !planted;
    Engine.at engine ~time (fun () ->
        fired := (time, id) :: !fired;
        if depth > 0 && Rng.int rng 3 = 0 then
          plant (depth - 1) ~time:(time + Rng.int rng 1_000))
  in
  (* Duplicate-heavy initial schedule so ties are common. *)
  for _ = 1 to 5_000 do
    plant 2 ~time:(Rng.int rng 200)
  done;
  Engine.run_all engine;
  (* Ids number the [at] calls in order, so sorting (time, id) pairs gives
     the (time, seq) order the engine must have dispatched in. *)
  Alcotest.(check (list (pair int int))) "engine replays the (time, seq) order"
    (List.sort compare !planted) (List.rev !fired)

(* -- Trace -- *)

let test_trace_ring () =
  let t = Trace.create ~capacity:4 () in
  check_int "empty" 0 (Trace.length t);
  for i = 1 to 6 do
    Trace.emit t ~at:i ~category:"c" ~what:"e" (string_of_int i)
  done;
  check_int "capped at capacity" 4 (Trace.length t);
  check_int "dropped the overflow" 2 (Trace.dropped t);
  let details = List.map (fun e -> e.Trace.detail) (Trace.events t) in
  Alcotest.(check (list string)) "keeps the newest, oldest first" [ "3"; "4"; "5"; "6" ] details;
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t)

let test_trace_find_and_render () =
  let t = Trace.create () in
  Trace.emit t ~at:1 ~category:"a" ~what:"x" "";
  Trace.emitf t ~at:2 ~category:"b" ~what:"y" "n=%d" 7;
  Trace.emit t ~at:3 ~category:"a" ~what:"z" "";
  check_int "find by category" 2 (List.length (Trace.find t ~category:"a"));
  let out = Format.asprintf "%a" Trace.render t in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "render mentions the formatted detail" true (contains out "n=7")

(* -- Account -- *)

let test_account_charging () =
  let a = Account.create () in
  Account.charge a 100;
  Account.charge a 50;
  check_int "total" 150 (Account.total a);
  let m = Account.mark a in
  Account.charge a 25;
  check_int "since mark" 25 (Account.since a m);
  Account.reset a;
  check_int "reset" 0 (Account.total a)

let test_account_transfer () =
  let a = Account.create () and b = Account.create () in
  Account.charge a 70;
  Account.charge b 30;
  Account.transfer ~from:a ~into:b;
  check_int "b has all" 100 (Account.total b);
  check_int "a empty" 0 (Account.total a)

let test_account_rejects_negative () =
  let a = Account.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Account.charge: negative duration")
    (fun () -> Account.charge a (-1))

let () =
  Alcotest.run "gh_sim"
    [
      ( "time_ns",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "different seeds differ" `Quick test_rng_different_seeds;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "named split" `Quick test_rng_named_split;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "single sample" `Quick test_stats_single_sample;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "online matches direct" `Quick test_online_matches_direct;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "peek and size" `Quick test_event_queue_peek_and_size;
          Alcotest.test_case "wide key spread" `Quick test_event_queue_wide_spread;
          Alcotest.test_case "below-window pushes" `Quick test_event_queue_below_window;
          Alcotest.test_case "drained queue releases closures" `Quick
            test_event_queue_pop_releases;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "stress ordering (50k events)" `Quick test_engine_stress_ordering;
          Alcotest.test_case "batch admission" `Quick test_engine_at_batch;
          Alcotest.test_case "replays the (time, seq) order" `Quick
            test_engine_replays_time_seq_order;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring;
          Alcotest.test_case "find and render" `Quick test_trace_find_and_render;
        ] );
      ( "account",
        [
          Alcotest.test_case "charging" `Quick test_account_charging;
          Alcotest.test_case "transfer" `Quick test_account_transfer;
          Alcotest.test_case "rejects negative" `Quick test_account_rejects_negative;
        ] );
    ]
