type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64's output mixer: a strong 64-bit finalizer. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let named_split t name =
  { state = mix64 (Int64.logxor t.state (Int64.of_int (Hashtbl.hash name))) }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit native int positively. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let exponential t ~mean =
  assert (mean > 0.0);
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.mean *. log (nonzero ())
