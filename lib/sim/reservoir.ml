(* Bounded uniform sample of a float stream (Vitter's Algorithm R).

   Below capacity the reservoir stores every value exactly, in arrival
   order, and never touches its RNG — so short runs report the same
   quantiles as an unbounded list and stay bit-identical to code that
   kept one. Past capacity each new value replaces a uniformly chosen
   slot with probability capacity/seen. *)

type t = {
  capacity : int;
  rng : Rng.t;
  buf : float array;
  mutable seen : int;
}

let create ?(seed = 0) capacity =
  if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be positive";
  { capacity; rng = Rng.create seed; buf = Array.make capacity 0.0; seen = 0 }

let seen t = t.seen
let stored t = min t.seen t.capacity

let add t v =
  if t.seen < t.capacity then t.buf.(t.seen) <- v
  else begin
    let j = Rng.int t.rng (t.seen + 1) in
    if j < t.capacity then t.buf.(j) <- v
  end;
  t.seen <- t.seen + 1

(* Newest-first, matching the accumulator-list convention (`v :: acc`)
   this module replaces. Only exact below capacity; past it the sample
   retains slot order, which is good enough for quantiles. *)
let to_list t =
  let n = stored t in
  List.init n (fun i -> t.buf.(n - 1 - i))
