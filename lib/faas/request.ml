module Time_ns = Gh_sim.Time_ns

type t = {
  id : int;
  principal : Principal.t;
  nonce : int;
  input_kb : int;
  deadline : Time_ns.t option;
}

let make ~id ~principal ?(input_kb = 4) ?deadline () =
  { id; principal; nonce = id; input_kb; deadline }

let with_deadline t deadline = { t with deadline = Some deadline }
let deadline t = t.deadline

let expired t ~now =
  match t.deadline with None -> false | Some d -> now >= d

let secret t = Principal.secret_word t.principal ~nonce:t.nonce
