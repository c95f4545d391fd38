module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Fm = Gh_faas.Function_model
module Runtime = Gh_faas.Runtime

type profile = {
  min_exec_ms : float;
  max_exec_ms : float;
  min_mapped : int;
  max_mapped : int;
  max_dirty_fraction : float;
  allow_pathologies : bool;
}

let default_profile =
  {
    min_exec_ms = 0.5;
    max_exec_ms = 5_000.0;
    min_mapped = 1_000;
    max_mapped = 200_000;
    max_dirty_fraction = 0.3;
    allow_pathologies = true;
  }

let tiny_profile =
  {
    min_exec_ms = 0.1;
    max_exec_ms = 20.0;
    min_mapped = 800;
    max_mapped = 6_000;
    max_dirty_fraction = 0.2;
    allow_pathologies = true;
  }

let languages = [| Runtime.C; Runtime.Python; Runtime.Nodejs |]

(* Log-uniform draw: FaaS durations and footprints span orders of
   magnitude, so uniform draws would oversample the big end. *)
let log_uniform rng lo hi =
  let lo = Float.max 1e-9 lo in
  exp (Rng.float rng (log hi -. log lo) +. log lo)

(* Names key per-function tallies (fn_stats, the capacity planner), so two
   specs sharing one silently merges their stats — and 24-bit random tags
   birthday-collide with ~50% odds by ~4800 draws. A process-wide counter
   mixed into the formatted name makes them collision-free; the RNG stream
   is consumed exactly as before, so every other field of a draw is
   unchanged for existing seeds. *)
(* Atomic: arrival schedules can be generated from Domain_pool workers.
   Uniqueness is all that matters; the counter consumes no randomness. *)
let draw_counter = Atomic.make 0

let draw ?(profile = default_profile) rng =
  let lang = languages.(Rng.int rng (Array.length languages)) in
  let rt = Runtime.for_lang lang in
  let fixed = rt.Runtime.text_pages + rt.Runtime.data_pages + rt.Runtime.stack_pages in
  let mapped =
    max (fixed + 128)
      (int_of_float (log_uniform rng (float_of_int profile.min_mapped) (float_of_int profile.max_mapped)))
  in
  let pool = mapped - fixed in
  let dirtied =
    max 1 (int_of_float (Rng.float rng (profile.max_dirty_fraction *. float_of_int pool)))
  in
  let read_pages = min pool (max dirtied (mapped * Rng.int_in rng 5 15 / 100)) in
  let exec_ms = log_uniform rng profile.min_exec_ms profile.max_exec_ms in
  let pathological k = profile.allow_pathologies && Rng.int rng k = 0 in
  {
    Fm.default_spec with
    Fm.name =
      (let tag = Rng.int rng 0xFFFFFF in
       let uniq = Atomic.fetch_and_add draw_counter 1 in
       Printf.sprintf "synthetic-%x-%x" tag uniq);
    lang;
    exec_ns = Time_ns.of_ms exec_ms;
    exec_jitter = Rng.float rng 0.1;
    mapped_pages = mapped;
    dirtied_pages = dirtied;
    read_pages;
    input_kb = 1 + Rng.int rng 64;
    output_kb = 1 + Rng.int rng 8;
    memleak_pages = (if pathological 8 then Rng.int_in rng 10 100 else 0);
    leak_slowdown_ns = (if pathological 8 then Rng.int_in rng 1_000 10_000 else 0);
    buggy_residue_leak = pathological 4;
    gc_exec_penalty =
      (if lang = Runtime.Nodejs && pathological 3 then Rng.float rng 0.3 else 0.0);
    wasm_factor = (if Rng.bool rng then Some (0.5 +. Rng.float rng 2.5) else None);
    fault_gran = (if pathological 5 then Rng.int_in rng 2 64 else 1);
  }

let draw_many ?profile rng n = List.init n (fun _ -> draw ?profile rng)

(* Open-loop bursty arrivals: a two-state (ON/OFF) modulated Poisson
   process. The long-run offered rate is [rate_rps], but arrivals bunch
   into ON windows covering a [duty] fraction of each (exponentially
   distributed) cycle, so the instantaneous rate inside a burst is
   [rate_rps / duty] — the surge regime overload protection exists for.
   Deterministic per RNG state; returns absolute arrival instants. *)
let burst ?(duty = 0.3) ?(cycle_s = 2.0) rng ~rate_rps ~n =
  if rate_rps <= 0.0 then invalid_arg "Synthetic.burst: rate_rps must be positive";
  if duty <= 0.0 || duty > 1.0 then invalid_arg "Synthetic.burst: duty outside (0,1]";
  if cycle_s <= 0.0 then invalid_arg "Synthetic.burst: cycle_s must be positive";
  if n < 0 then invalid_arg "Synthetic.burst: negative n";
  let gap_mean_ns = 1.0e9 /. (rate_rps /. duty) in
  let on_mean_ns = duty *. cycle_s *. 1.0e9 in
  let off_mean_ns = (1.0 -. duty) *. cycle_s *. 1.0e9 in
  let draw_len mean = max 1 (int_of_float (Rng.exponential rng ~mean)) in
  let rec go acc k t on_end =
    if k >= n then List.rev acc
    else begin
      let t' = t + draw_len gap_mean_ns in
      if t' <= on_end then go (t' :: acc) (k + 1) t' on_end
      else
        (* The burst ended before the next arrival: skip the OFF period and
           restart the clock at the head of a fresh ON window. *)
        let start = on_end + draw_len off_mean_ns in
        go acc k start (start + draw_len on_mean_ns)
    end
  in
  go [] 0 0 (draw_len on_mean_ns)
