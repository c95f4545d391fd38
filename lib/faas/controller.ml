module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Span = Gh_sim.Span
module Time_ns = Gh_sim.Time_ns
module Obs = Gh_sim.Obs

type overhead_model = {
  base_ns : Time_ns.t;
  jitter_mu_ns : float;
  jitter_sigma : float;
}

(* Calibrated against Appendix A: e2e − invoker ≈ 28–43 ms. *)
let default_overhead =
  { base_ns = Time_ns.of_ms 24.0; jitter_mu_ns = Float.log 8.0e6; jitter_sigma = 0.65 }

let sample_overhead m rng =
  m.base_ns + int_of_float (Rng.lognormal rng ~mu:m.jitter_mu_ns ~sigma:m.jitter_sigma)

(* What sits behind the front door. The classic shape is a single
   [Invoker]; a [Sink] is any request consumer with the same response
   contract — the cluster plugs in here without the controller knowing
   about nodes, placement, or failover. *)
type sink = Request.t -> on_response:(Request.t -> Strategy_intf.invocation -> unit) -> unit

type t = {
  engine : Engine.t;
  rng : Rng.t;
  obs : Obs.t;
  sink : sink;
  overhead : overhead_model;
  ttl_ns : Time_ns.t option;
  mutable completions : int;
  mutable shed : int;
  mutable on_shed : Request.t -> unit;
}

type completion = {
  request : Request.t;
  invocation : Strategy_intf.invocation;
  e2e_ns : Time_ns.t;
  invoker_ns : Time_ns.t;
}

let create_sink ?(overhead = default_overhead) ?ttl_ns ?(obs = Obs.none) engine ~rng sink =
  (match ttl_ns with
  | Some ttl when ttl <= 0 -> invalid_arg "Controller.create: ttl_ns must be positive"
  | _ -> ());
  {
    engine;
    rng = Rng.split rng;
    obs;
    sink;
    overhead;
    ttl_ns;
    completions = 0;
    shed = 0;
    on_shed = ignore;
  }

let create ?overhead ?obs engine ~rng invoker =
  create_sink ?overhead ?obs engine ~rng (fun req ~on_response ->
      Invoker.submit invoker req ~on_response)

let submit t req ~on_complete =
  let t0 = Engine.now t.engine in
  (* The deadline is stamped exactly once, at the front door; requests
     arriving with one already set keep it. *)
  let req =
    match (t.ttl_ns, req.Request.deadline) with
    | Some ttl, None -> Request.with_deadline req (t0 + ttl)
    | _ -> req
  in
  (* Authentication, routing and the trip to the invoker VM. *)
  let front = sample_overhead t.overhead t.rng * 6 / 10 in
  let back = sample_overhead t.overhead t.rng * 4 / 10 in
  (match t.obs.Obs.spans with
  | Some sp ->
      let root =
        Span.ensure_root sp ~at:t0 ~req_id:req.Request.id
          ~attrs:[ ("principal", req.Request.principal.Principal.name) ]
          ()
      in
      ignore
        (Span.complete sp ~start:t0 ~stop:(t0 + front) ~parent:root ~name:"controller-front"
           ~cat:"controller" ())
  | None -> ());
  Engine.schedule t.engine ~after:front (fun () ->
      (* The front-door overhead alone can kill a tight deadline: shed here
         rather than ship a dead request to the invoker. *)
      if Request.expired req ~now:(Engine.now t.engine) then begin
        t.shed <- t.shed + 1;
        let now = Engine.now t.engine in
        Obs.failure t.obs ~now;
        (match t.obs.Obs.spans with
        | Some sp ->
            Span.finish_root sp ~at:now
              ~attrs:[ ("outcome", "shed"); ("reason", "expired") ]
              ~req_id:req.Request.id ()
        | None -> ());
        t.on_shed req
      end
      else
        t.sink req ~on_response:(fun request invocation ->
          let respond_at = Engine.now t.engine in
          (match t.obs.Obs.spans with
          | Some sp -> (
              match Span.find_root sp ~req_id:request.Request.id with
              | Some root ->
                  ignore
                    (Span.complete sp ~start:respond_at ~stop:(respond_at + back)
                       ~parent:root ~name:"controller-return" ~cat:"controller" ())
              | None -> ())
          | None -> ());
          Engine.schedule t.engine ~after:back (fun () ->
              t.completions <- t.completions + 1;
              let now = Engine.now t.engine in
              let ok =
                match invocation.Strategy_intf.outcome with
                | Strategy_intf.Completed | Strategy_intf.Poisoned -> true
                | Strategy_intf.Crashed | Strategy_intf.Hung -> false
              in
              Obs.completion t.obs ~now "controller.e2e_ms" ~e2e_ns:(now - t0) ~ok
                ~cold:(invocation.Strategy_intf.cold_ns > 0);
              (match t.obs.Obs.spans with
              | Some sp ->
                  Span.finish_root sp ~at:now
                    ~attrs:
                      [
                        ( "outcome",
                          Strategy_intf.outcome_name invocation.Strategy_intf.outcome );
                        ("e2e_ns", string_of_int (now - t0));
                      ]
                    ~req_id:request.Request.id ()
              | None -> ());
              on_complete
                {
                  request;
                  invocation;
                  e2e_ns = now - t0;
                  invoker_ns = invocation.Strategy_intf.on_path_ns;
                })))

let completions t = t.completions
let shed t = t.shed
let set_on_shed t f = t.on_shed <- f
