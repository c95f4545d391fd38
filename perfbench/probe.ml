(* probe: a fixed amount of CPU work shaped like the simulator's hot loops
   (dirty-page bitmaps, page copies, an allocating event queue, hash
   tables), with no dependency on the simulator, so no change to the
   simulator changes it. Its CPU time measures how fast the host runs
   this kind of code at the moment. perfbench/run.py runs it at idle
   priority for the whole of a run, so it samples the host's speed on
   whichever vCPU the workload leaves free.

     probe.exe [MAX_SECONDS]

   works in rounds until SIGTERM, or until MAX_SECONDS (default 1) of wall
   time have passed, and prints {"probe_s": CPU seconds of the rounds
   that count, "rounds": how many count, "all_rounds": rounds done,
   "restored": a checksum}. *)

module Q = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type event = { id : int; due : int; payload : int list }

let pages = 16384
let page_words = 8
let bitmap_bits = 63

let round rng ~mem ~snap ~dirty ~tbl ~n =
  (* Dirty random pages, then restore every dirty page from the snapshot,
     found by scanning the bitmap word by word. *)
  for _ = 1 to 1500 do
    let p = Random.State.int rng pages in
    dirty.(p / bitmap_bits) <- dirty.(p / bitmap_bits) lor (1 lsl (p mod bitmap_bits));
    mem.(p * page_words) <- n
  done;
  let restored = ref 0 in
  Array.iteri
    (fun i w ->
      if w <> 0 then begin
        for b = 0 to bitmap_bits - 1 do
          if w land (1 lsl b) <> 0 then begin
            let p = (i * bitmap_bits) + b in
            Array.blit snap (p * page_words) mem (p * page_words) page_words;
            incr restored
          end
        done;
        dirty.(i) <- 0
      end)
    dirty;
  (* An event queue: allocate, order, drain into a hash table. *)
  let q = ref Q.empty in
  for k = 1 to 1500 do
    let due = Random.State.int rng 1_000_000 in
    q := Q.add (due, k) { id = k; due; payload = [ k; due; n ] } !q
  done;
  Q.iter
    (fun _ e ->
      let key = e.id land 1023 in
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0 in
      Hashtbl.replace tbl key (prev + e.due + List.length e.payload))
    !q;
  !restored

(* A round counts only if it ran without losing its vCPU, and did not
   follow a round that lost it: a round whose wall time exceeds its CPU
   time was interrupted, and the round after an interruption starts with
   caches another process used. So the count measures the host's speed,
   not how often the probe was preempted. *)
let interrupted ~cpu ~wall = wall > (cpu *. 1.05) +. 20e-6

let () =
  let max_s = match Sys.argv with [| _; s |] -> float_of_string s | _ -> 1.0 in
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let deadline = Unix.gettimeofday () +. max_s in
  let rng = Random.State.make [| 20231031 |] in
  let mem = Array.make (pages * page_words) 0 in
  let snap = Array.init (pages * page_words) (fun i -> i land 255) in
  let dirty = Array.make ((pages / bitmap_bits) + 1) 0 in
  let tbl = Hashtbl.create 1024 in
  let restored = ref 0 and n = ref 0 and counted = ref 0 and cpu_s = ref 0.0 in
  let after_interruption = ref true in
  while not !stop do
    incr n;
    let c0 = Sys.time () and w0 = Unix.gettimeofday () in
    restored := !restored + round rng ~mem ~snap ~dirty ~tbl ~n:!n;
    let c1 = Sys.time () and w1 = Unix.gettimeofday () in
    let cpu = c1 -. c0 and wall = w1 -. w0 in
    let lost = interrupted ~cpu ~wall in
    if not (lost || !after_interruption) then begin
      incr counted;
      cpu_s := !cpu_s +. cpu
    end;
    after_interruption := lost;
    if w1 > deadline then stop := true
  done;
  Printf.printf "{\"probe_s\": %.6f, \"rounds\": %d, \"all_rounds\": %d, \"restored\": %d}\n"
    !cpu_s !counted !n !restored
