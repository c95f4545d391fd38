(* Events fire in (time, insertion seq) order, which [Event_queue] keeps
   by construction, so every experiment replays event for event. *)

let nop () = ()

type t = { mutable clock : Time_ns.t; queue : (unit -> unit) Event_queue.t }

let create () = { clock = 0; queue = Event_queue.create ~dummy:nop }
let now t = t.clock

let at t ~time f =
  if time < t.clock then invalid_arg "Engine.at: instant in the simulated past";
  Event_queue.push t.queue ~key:time f

let at_batch t events =
  (* Validate everything up front so a bad instant raises before any event
     is admitted, then admit in list order. *)
  List.iter
    (fun (time, _) ->
      if time < t.clock then invalid_arg "Engine.at_batch: instant in the simulated past")
    events;
  List.iter (fun (time, f) -> Event_queue.push t.queue ~key:time f) events

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(t.clock + after) f

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
      t.clock <- time;
      f ();
      true

let run t ~until =
  let continue = ref true in
  while !continue do
    match Event_queue.peek_key t.queue with
    | Some key when key <= until -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  if t.clock < until then t.clock <- until

(* Generous enough that every legitimate experiment stays far below it: the
   full-profile sweeps dispatch a few million events, so two hundred million
   means a self-sustaining chain, not a big workload. *)
let default_max_events = 200_000_000

let run_all ?(max_events = default_max_events) t =
  if max_events <= 0 then invalid_arg "Engine.run_all: max_events must be positive";
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    if !fired >= max_events && Event_queue.size t.queue > 0 then
      failwith
        (Printf.sprintf
           "Engine.run_all: dispatched %d events without draining (clock=%dns, %d still \
            pending) — likely a self-sustaining event chain; pass ~max_events to raise \
            the guard"
           !fired t.clock (Event_queue.size t.queue))
    else if step t then incr fired
    else continue := false
  done

let pending t = Event_queue.size t.queue
