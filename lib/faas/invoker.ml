module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Span = Gh_sim.Span
module Obs = Gh_sim.Obs
module Time_ns = Gh_sim.Time_ns

type recovery = {
  container : Container.recovery;
  max_attempts : int;
  retry_backoff : Backoff.t;
}

type recovery_stats = {
  timeouts : int;
  retries : int;
  failed_requests : int;
  quarantined : int;
  replacements : int;
  mttr_ns : Time_ns.t list;
}

type t = {
  engine : Engine.t;
  obs : Obs.t;
  containers : Container.t array;
  (* Payload: the request's response callback. *)
  queue : (Request.t -> Strategy_intf.invocation -> unit) Admission.t;
  dispatch_ns : Gh_sim.Time_ns.t;
  recovery : recovery option;
  rng : Rng.t option;
  (* Request-retry bookkeeping, only populated when recovery is on. *)
  attempts : (int, int) Hashtbl.t;  (* req id -> tries so far *)
  inflight : (int, Request.t -> Strategy_intf.invocation -> unit) Hashtbl.t;
  mutable timeouts : int;
  mutable retries : int;
  mutable failed_requests : int;
  mutable quarantined : int;
  mutable on_failed : Request.t -> unit;
}

(* A cold container pays its one-time initialization (runtime boot,
   warm-up, snapshot) on the first request's critical path. *)
let with_cold_start (s : Strategy_intf.t) =
  let started = ref false in
  {
    s with
    Strategy_intf.invoke =
      (fun req ->
        let inv = s.Strategy_intf.invoke req in
        if !started then inv
        else begin
          started := true;
          {
            inv with
            Strategy_intf.on_path_ns =
              inv.Strategy_intf.on_path_ns + s.Strategy_intf.init_ns;
            cold_ns = inv.Strategy_intf.cold_ns + s.Strategy_intf.init_ns;
          }
        end);
  }

let rec submit t req ~on_response =
  (match t.recovery with
  | Some _ -> Hashtbl.replace t.inflight req.Request.id on_response
  | None -> ());
  let now = Engine.now t.engine in
  (match t.obs.Obs.spans with
  | Some sp ->
      ignore
        (Span.ensure_root sp ~at:now ~req_id:req.Request.id
           ~attrs:[ ("principal", req.Request.principal.Principal.name) ]
           ())
  | None -> ());
  if Request.expired req ~now then
    (* Dead on arrival: [admit] rejects it at the door (never enqueued) and
       fires the shed hooks — the cheapest possible rejection. *)
    ignore (Admission.admit t.queue ~now req on_response)
  else
    match find_idle t with
    | Some c -> Container.submit ~dispatch_ns:t.dispatch_ns c req ~on_response
    | None ->
        let enqueued = Admission.admit t.queue ~now req on_response in
        (match t.obs.Obs.spans with
        | Some sp when enqueued ->
            Span.phase_start sp ~at:now ~req_id:req.Request.id ~name:"invoker-queue"
              ~cat:"queue" ()
        | _ -> ())

and find_idle t = Array.find_opt Container.is_idle t.containers

let handle_failure t r c failure =
  match failure with
  | Container.Poisoned_restore _ ->
      (* The response was already delivered; the container replaces or
         quarantines itself — nothing to retry. *)
      ()
  | Container.Corrupt_snapshot _ ->
      (* Caught by the idle scrubber before any request touched the bad
         snapshot: no request is in flight, the container recovers
         itself. *)
      ()
  | Container.Timed_out (req : Request.t) ->
      t.timeouts <- t.timeouts + 1;
      ignore c;
      let tries =
        match Hashtbl.find_opt t.attempts req.Request.id with Some n -> n | None -> 1
      in
      if tries >= r.max_attempts then begin
        Hashtbl.remove t.attempts req.Request.id;
        (match Hashtbl.find_opt t.inflight req.Request.id with
        | Some _ -> Hashtbl.remove t.inflight req.Request.id
        | None -> ());
        t.failed_requests <- t.failed_requests + 1;
        (match t.obs.Obs.spans with
        | Some sp ->
            Span.finish_root sp ~at:(Engine.now t.engine)
              ~attrs:[ ("outcome", "failed") ]
              ~req_id:req.Request.id ()
        | None -> ());
        t.on_failed req
      end
      else begin
        Hashtbl.replace t.attempts req.Request.id (tries + 1);
        t.retries <- t.retries + 1;
        let delay = Backoff.delay r.retry_backoff ?rng:t.rng ~attempt:tries in
        Engine.schedule t.engine ~after:delay (fun () ->
            match Hashtbl.find_opt t.inflight req.Request.id with
            | Some on_response -> submit t req ~on_response
            | None -> ())
      end

let create ?(obs = Obs.none) ?recovery ?rng ?scrub engine ~n_containers ~dispatch_ns
    ~make_strategy =
  if n_containers < 1 then invalid_arg "Invoker.create: need at least one container";
  let strategies = Array.init n_containers make_strategy in
  (* Without recovery, containers get no rebuild path and no hang timeout:
     a hang wedges its container (the pre-recovery behaviour) and a
     poisoned restore retires it — fail closed either way. *)
  let container_recovery =
    match recovery with Some r -> r.container | None -> Container.passive_recovery
  in
  let rebuild_for i =
    match recovery with
    | None -> None
    | Some _ ->
        Some
          (fun () ->
            match make_strategy i with
            | s -> Ok s
            | exception Failure msg -> Error msg)
  in
  let containers =
    Array.mapi
      (fun i strategy ->
        Container.create ~obs ~recovery:container_recovery
          ?rebuild:(rebuild_for i) ?rng ?scrub engine ~id:i strategy)
      strategies
  in
  (* The shed hook needs [t], which needs the queue: tie the knot via a
     forward reference. *)
  let shed_hook = ref (fun (_ : Admission.reason) (_ : Request.t) _ -> ()) in
  let t =
    {
      engine;
      obs;
      containers;
      queue =
        Admission.create ?trace:obs.Obs.trace ~label:"invoker"
          ~on_shed:(fun r rq p -> !shed_hook r rq p)
          Admission.unbounded;
      dispatch_ns;
      recovery;
      rng;
      attempts = Hashtbl.create 64;
      inflight = Hashtbl.create 64;
      timeouts = 0;
      retries = 0;
      failed_requests = 0;
      quarantined = 0;
      on_failed = ignore;
    }
  in
  (shed_hook :=
     fun reason req _on_response ->
       (* A shed request will never be dispatched again: drop its retry
          bookkeeping so the tables don't leak. *)
       Hashtbl.remove t.attempts req.Request.id;
       Hashtbl.remove t.inflight req.Request.id;
       (match t.obs.Obs.spans with
       | Some sp ->
           let now = Engine.now t.engine in
           Span.phase_stop sp ~at:now ~req_id:req.Request.id ~name:"invoker-queue" ();
           Span.finish_root sp ~at:now
             ~attrs:[ ("outcome", "shed"); ("reason", Admission.reason_name reason) ]
             ~req_id:req.Request.id ()
       | None -> ()));
  Array.iter
    (fun c ->
      Container.set_on_idle c (fun c ->
          let now = Engine.now t.engine in
          match Admission.take t.queue ~now with
          | Some (req, on_response) ->
              (match t.obs.Obs.spans with
              | Some sp ->
                  Span.phase_stop sp ~at:now ~req_id:req.Request.id ~name:"invoker-queue" ()
              | None -> ());
              Container.submit ~dispatch_ns:t.dispatch_ns c req ~on_response
          | None -> ());
      (match recovery with
      | Some r -> Container.set_on_failure c (fun c failure -> handle_failure t r c failure)
      | None -> ());
      Container.set_on_retired c (fun _ -> t.quarantined <- t.quarantined + 1))
    containers;
  t

let set_on_failed t f = t.on_failed <- f
let queue_length t = Admission.length t.queue
let containers t = t.containers

let recovery_stats t =
  {
    timeouts = t.timeouts;
    retries = t.retries;
    failed_requests = t.failed_requests;
    quarantined = t.quarantined;
    replacements =
      Array.fold_left (fun n c -> n + Container.replacements c) 0 t.containers;
    mttr_ns =
      Array.fold_left (fun acc c -> Container.recovery_ns c @ acc) [] t.containers;
  }
