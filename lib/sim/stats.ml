type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p10 : float;
  p25 : float;
  median : float;
  p75 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let std a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if n = 1 then sorted.(0)
  else begin
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end
  end

let summarize a =
  if Array.length a = 0 then invalid_arg "Stats.summarize: empty sample";
  if Array.exists Float.is_nan a then invalid_arg "Stats.summarize: NaN in sample";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let p q = percentile sorted q in
  {
    n = Array.length a;
    mean = mean a;
    std = std a;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    p10 = p 10.0;
    p25 = p 25.0;
    median = p 50.0;
    p75 = p 75.0;
    p90 = p 90.0;
    p95 = p 95.0;
    p99 = p 99.0;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f +/-%.3f median=%.3f p95=%.3f [%.3f, %.3f]"
    s.n s.mean s.std s.median s.p95 s.min s.max

module Online = struct
  type t = { mutable n : int; mutable mu : float; mutable m2 : float }

  let create () = { n = 0; mu = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mu in
    t.mu <- t.mu +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mu))

  let count t = t.n
  let mean t = t.mu
  let std t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))
end
