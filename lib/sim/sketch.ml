(* A log-bucketed quantile sketch (DDSketch-style) with integer bucket
   counts, built for deterministic merging.

   Values are mapped to geometric buckets: bucket [i] covers
   (gamma^(i-1), gamma^i] with gamma = (1 + alpha) / (1 - alpha), so the
   bucket midpoint estimates any contained value within relative error
   [alpha]. Every piece of mutable state is an integer count or a
   min/max of observed values, so [merge] is a bucket-wise integer
   addition: associative, commutative, and bit-identical regardless of
   how observations were sharded — the property the Domain_pool
   discipline needs to combine per-domain series without breaking the
   byte-identity gate.

   Deliberately absent: a floating-point running sum (float addition is
   order-dependent, which would break exact merge equality). *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  buckets : (int, int) Hashtbl.t;  (* bucket index -> count *)
  mutable zero : int;  (* observations below [min_indexable] *)
  mutable count : int;
  mutable min_v : float;  (* +inf while empty *)
  mutable max_v : float;  (* -inf while empty *)
}

(* Values below this collapse into the zero bucket: the relative-error
   guarantee is meaningless at sub-nanosecond float dust, and bounding
   the index range keeps bucket indexes small ints. *)
let min_indexable = 1e-9

let create ?(alpha = 0.01) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = Float.log gamma;
    buckets = Hashtbl.create 64;
    zero = 0;
    count = 0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
  }

let alpha t = t.alpha
let count t = t.count
let zero_count t = t.zero
let is_empty t = t.count = 0
let min_value t = if t.count = 0 then None else Some t.min_v
let max_value t = if t.count = 0 then None else Some t.max_v

let bucket_index t v = int_of_float (Float.ceil (Float.log v /. t.log_gamma))

let observe t v =
  if Float.is_nan v || v < 0.0 then
    invalid_arg "Sketch.observe: value must be a non-negative number";
  t.count <- t.count + 1;
  t.min_v <- Float.min t.min_v v;
  t.max_v <- Float.max t.max_v v;
  if v < min_indexable then t.zero <- t.zero + 1
  else begin
    let i = bucket_index t v in
    let n = match Hashtbl.find_opt t.buckets i with Some n -> n | None -> 0 in
    Hashtbl.replace t.buckets i (n + 1)
  end

let buckets t =
  Hashtbl.fold (fun i n acc -> (i, n) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge a b =
  if a.alpha <> b.alpha then invalid_arg "Sketch.merge: alpha mismatch";
  let m = create ~alpha:a.alpha () in
  let add (i, n) =
    let prev = match Hashtbl.find_opt m.buckets i with Some p -> p | None -> 0 in
    Hashtbl.replace m.buckets i (prev + n)
  in
  List.iter add (buckets a);
  List.iter add (buckets b);
  m.zero <- a.zero + b.zero;
  m.count <- a.count + b.count;
  m.min_v <- Float.min a.min_v b.min_v;
  m.max_v <- Float.max a.max_v b.max_v;
  m

let equal a b =
  a.alpha = b.alpha && a.count = b.count && a.zero = b.zero
  && (a.count = 0 || (a.min_v = b.min_v && a.max_v = b.max_v))
  && buckets a = buckets b

(* The value whose rank is floor(q * (count - 1)) in the sorted stream,
   estimated from the bucket walk. Bucket [i]'s midpoint
   2 * gamma^i / (gamma + 1) is within [alpha] relative error of every
   value the bucket can hold; clamping to the observed min/max tightens
   the extremes (and makes q = 0 / q = 1 exact). *)
let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Sketch.quantile: q must be in [0, 1]";
  if t.count = 0 then None
  else begin
    let rank = int_of_float (q *. float_of_int (t.count - 1)) in
    let est =
      if rank < t.zero then 0.0
      else begin
        let rec walk cum = function
          | [] -> t.max_v
          | (i, n) :: rest ->
              let cum = cum + n in
              if cum > rank then 2.0 *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.0)
              else walk cum rest
        in
        walk t.zero (buckets t)
      end
    in
    Some (Float.max t.min_v (Float.min t.max_v est))
  end

let to_json t =
  Json.Assoc
    [
      ("alpha", Json.Float t.alpha);
      ("count", Json.Int t.count);
      ("zero", Json.Int t.zero);
      ("min", if t.count = 0 then Json.Null else Json.Float t.min_v);
      ("max", if t.count = 0 then Json.Null else Json.Float t.max_v);
      ( "buckets",
        Json.List
          (List.map (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ]) (buckets t)) );
    ]
