(* A self-balancing pool of OCaml 5 domains for embarrassingly parallel
   experiment sweeps.

   The scheduling discipline is a shared pile: every worker (the calling
   domain included) repeatedly steals the next unclaimed job index from one
   atomic counter, so a domain that lands a cheap cell immediately comes
   back for another while a domain stuck on a 196-second PolyBench cell
   keeps crunching — dynamic load balancing without per-worker deques,
   which is all a workload of independent, side-effect-free cells needs.

   Determinism contract: [parallel_map f xs] returns results in input
   order (each worker writes slot [i] of a pre-sized array), and since
   every job seeds its own RNG from its cell key, the merged output is
   byte-identical to [List.map f xs] no matter how the jobs interleave.
   Exceptions replay List.map's semantics too: every job runs to
   completion regardless of other jobs failing, and the exception of the
   *lowest* raising index is re-raised (with its backtrace) — exactly the
   one [List.map] would have surfaced first.

   Nested calls run serially on the calling worker: the pool already owns
   the machine's parallelism, so a sweep spawned from inside a cell must
   not multiply domains. *)

type error = { index : int; exn : exn; bt : Printexc.raw_backtrace }

let recommended_jobs () = Domain.recommended_domain_count ()

(* True while the current domain is executing pool jobs; nested
   [parallel_map] calls observe it and degrade to [List.map]. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

let serial_map f xs = List.map f xs

let parallel_map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  let n = List.length xs in
  if jobs <= 1 || n <= 1 || Domain.DLS.get inside_pool then serial_map f xs
  else begin
    let tasks = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let err_mutex = Mutex.create () in
    let errors = ref ([] : error list) in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match f tasks.(i) with
          | v -> results.(i) <- Some v
          | exception exn ->
              let bt = Printexc.get_raw_backtrace () in
              Mutex.protect err_mutex (fun () -> errors := { index = i; exn; bt } :: !errors)
      done
    in
    let worker () =
      Domain.DLS.set inside_pool true;
      work ()
    in
    let domains = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is a worker too; flag it so f's own nested
       sweeps serialize, and restore the flag whatever happens. *)
    Domain.DLS.set inside_pool true;
    Fun.protect work ~finally:(fun () -> Domain.DLS.set inside_pool false);
    List.iter Domain.join domains;
    match List.sort (fun a b -> compare a.index b.index) !errors with
    | [] ->
        Array.to_list
          (Array.map (function Some v -> v | None -> assert false) results)
    | first :: _ -> Printexc.raise_with_backtrace first.exn first.bt
  end
