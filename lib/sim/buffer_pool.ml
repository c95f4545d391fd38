(* Per-domain reuse pools for the big page-data arrays.

   The simulator's memory model churns through multi-hundred-KB int
   arrays: every fork-isolation request clones the whole address space
   (one array per VMA, discarded when the child is reaped), a brk or
   mremap growth past a VMA's spare capacity swaps its backing array, and
   every snapshot capture copies each region. Fresh [Array.make] for each
   of these puts megabytes per request on the major heap; recycling the
   arrays through a free list caps that churn at the working set.

   One pool per domain, reached through [Domain.DLS]: acquire/release
   never synchronize, so pooling costs nothing on the experiment hot path
   and is trivially safe under {!Domain_pool} sharding. An array released
   on one domain is reused only by that domain — cross-domain traffic
   would need locks and buys nothing for per-cell lifetimes.

   Arrays are pooled by *exact* length, so [acquire_raw n] returns
   exactly [n] words: a caller that wants spare capacity (a VMA keeps
   zeroed slack past its page count) asks for it and zeroes it itself.
   They are handed back either zeroed — indistinguishable from
   [Array.make n 0] — or raw for callers that overwrite every slot.
   Each pool holds at most [max_held_words] (64 M words, 512 MB) and
   drops releases beyond that on the floor for the GC to take. *)

let max_held_words = 64 * 1024 * 1024

(* Arrays below a cache line are cheaper to allocate than to look up. *)
let min_pooled_len = 64

type pool = {
  by_len : (int, int array list) Hashtbl.t;
  mutable held_words : int;
  mutable hits : int;
  mutable misses : int;
  mutable released : int;
}

let key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { by_len = Hashtbl.create 64; held_words = 0; hits = 0; misses = 0; released = 0 })

let pool () = Domain.DLS.get key

(* Contents unspecified: the caller promises to overwrite every slot. *)
let acquire_raw n =
  if n < min_pooled_len then Array.make n 0
  else begin
    let p = pool () in
    match Hashtbl.find_opt p.by_len n with
    | Some (arr :: rest) ->
        (if rest = [] then Hashtbl.remove p.by_len n else Hashtbl.replace p.by_len n rest);
        p.held_words <- p.held_words - n;
        p.hits <- p.hits + 1;
        arr
    | Some [] | None ->
        p.misses <- p.misses + 1;
        Array.make n 0
  end

(* Indistinguishable from [Array.make n 0]. *)
let acquire_zeroed n =
  if n < min_pooled_len then Array.make n 0
  else begin
    let arr = acquire_raw n in
    Array.fill arr 0 n 0;
    arr
  end

let release arr =
  let n = Array.length arr in
  if n >= min_pooled_len then begin
    let p = pool () in
    if p.held_words + n <= max_held_words then begin
      let tail = Option.value (Hashtbl.find_opt p.by_len n) ~default:[] in
      Hashtbl.replace p.by_len n (arr :: tail);
      p.held_words <- p.held_words + n;
      p.released <- p.released + 1
    end
  end

type stats = { hits : int; misses : int; releases : int; held_words : int }

let stats () =
  let p = pool () in
  { hits = p.hits; misses = p.misses; releases = p.released; held_words = p.held_words }
