type t = { mutable rip : int; mutable rsp : int; gpr : int array }

let n_gpr = 14
let create () = { rip = 0; rsp = 0; gpr = Array.make n_gpr 0 }
let copy t = { rip = t.rip; rsp = t.rsp; gpr = Array.copy t.gpr }

let assign t ~from =
  t.rip <- from.rip;
  t.rsp <- from.rsp;
  Array.blit from.gpr 0 t.gpr 0 n_gpr

let equal a b = a.rip = b.rip && a.rsp = b.rsp && a.gpr = b.gpr

let scramble t rng =
  t.rip <- Gh_sim.Rng.int rng max_int;
  t.rsp <- Gh_sim.Rng.int rng max_int;
  for i = 0 to n_gpr - 1 do
    t.gpr.(i) <- Gh_sim.Rng.int rng max_int
  done
