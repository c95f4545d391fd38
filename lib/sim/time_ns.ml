type t = int

let zero = 0
let of_us x = int_of_float (x *. 1e3 +. 0.5)
let of_ms x = int_of_float (x *. 1e6 +. 0.5)
let of_sec x = int_of_float (x *. 1e9 +. 0.5)
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let pp ppf t =
  let a = abs t in
  if a < 1_000 then Format.fprintf ppf "%dns" t
  else if a < 1_000_000 then Format.fprintf ppf "%.2fus" (to_us t)
  else if a < 1_000_000_000 then Format.fprintf ppf "%.2fms" (to_ms t)
  else Format.fprintf ppf "%.3fs" (to_sec t)
