(* Bounded admission queue with pluggable shedding policy.

   Every queue in the platform used to be a raw unbounded [Queue.t]; under
   sustained overload that means silent latency collapse. This module is the
   shared replacement: a bounded buffer that sheds deterministically — no
   randomness, so a fixed seed replays every drop decision — and counts what
   it drops so experiments can report shed/expired distinctly from work that
   is merely still queued.

   The [unbounded] configuration (capacity = max_int, Fifo) is the
   compatibility default: admit always succeeds, take is FIFO, and no
   expiry purge runs for requests without deadlines, so pre-existing
   experiments are bit-identical. *)

module Time_ns = Gh_sim.Time_ns
module Trace = Gh_sim.Trace

type policy =
  | Fifo  (** Drop-tail: reject the newcomer when full. *)
  | Edf_drop
      (** Serve FIFO but, when full, drop whichever entry (newcomer included)
          has the earliest deadline — it is the least likely to make it.
          Entries without deadlines never expire and are dropped last. *)

type reason =
  | Capacity  (** The queue was full. *)
  | Expired  (** The deadline passed while waiting (or on arrival). *)
  | Brownout  (** Dropped by the overload controller's priority shed. *)

let reason_name = function
  | Capacity -> "capacity"
  | Expired -> "expired"
  | Brownout -> "brownout"

let policy_name = function Fifo -> "fifo" | Edf_drop -> "edf-drop"

type config = { capacity : int; policy : policy }

let unbounded = { capacity = max_int; policy = Fifo }

let bounded ?(policy = Fifo) capacity =
  if capacity <= 0 then invalid_arg "Admission.bounded: capacity must be positive";
  { capacity; policy }

type 'a entry = { req : Request.t; payload : 'a; seq : int }

type 'a t = {
  cfg : config;
  trace : Trace.t option;
  label : string;  (* names this queue in trace events *)
  (* Oldest first (ascending [seq]). Queues are short (bounded) so list
     surgery is fine; the unbounded default only ever appends and pops
     the head. *)
  mutable items : 'a entry list;
  mutable next_seq : int;
  mutable length : int;
  mutable high_water : int;
  mutable shed : int;
  mutable expired : int;
  on_shed : reason -> Request.t -> 'a -> unit;
}

let create ?trace ?(label = "queue") ?(on_shed = fun _ _ _ -> ()) cfg =
  {
    cfg;
    trace;
    label;
    items = [];
    next_seq = 0;
    length = 0;
    high_water = 0;
    shed = 0;
    expired = 0;
    on_shed;
  }

let length t = t.length
let is_empty t = t.length = 0
let high_water t = t.high_water
let shed_count t = t.shed
let expired_count t = t.expired
let config t = t.cfg

let drop t ~now reason e =
  t.length <- t.length - 1;
  (match reason with Expired -> t.expired <- t.expired + 1 | _ -> t.shed <- t.shed + 1);
  Trace.emitf_opt t.trace ~at:now ~category:"admission" ~what:(reason_name reason)
    "%s req#%d dropped (%s, depth %d)" t.label e.req.Request.id (policy_name t.cfg.policy)
    t.length;
  t.on_shed reason e.req e.payload

(* Shed every queued entry whose deadline has passed: none of them can
   complete in time, so spending a core (or a restore) on them is waste. *)
let purge_expired t ~now =
  if t.length > 0 then begin
    let live, dead = List.partition (fun e -> not (Request.expired e.req ~now)) t.items in
    if dead <> [] then begin
      t.items <- live;
      List.iter (fun e -> drop t ~now Expired e) dead
    end
  end

let append t req payload =
  let e = { req; payload; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  t.items <- t.items @ [ e ];
  t.length <- t.length + 1;
  if t.length > t.high_water then t.high_water <- t.length;
  e

let remove t victim = t.items <- List.filter (fun e -> e.seq <> victim.seq) t.items

(* The queue-full victim under each policy. [newcomer] is already appended,
   so the choice ranges over the whole over-full queue; returning the
   newcomer means "reject the arrival". All tie-breaks use [seq], so shed
   decisions are a pure function of arrival order — deterministic replay. *)
let pick_victim t newcomer =
  match t.cfg.policy with
  | Fifo -> newcomer
  | Edf_drop ->
      let key e = match e.req.Request.deadline with None -> max_int | Some d -> d in
      List.fold_left
        (fun v e ->
          (* Earliest deadline loses; among equals the newest entry does,
             which favors work that has already waited. *)
          if key e < key v || (key e = key v && e.seq > v.seq) then e else v)
        newcomer t.items

let admit t ~now req payload =
  purge_expired t ~now;
  if Request.expired req ~now then begin
    (* Dead on arrival: reject at the door, cheapest possible shed. *)
    t.expired <- t.expired + 1;
    Trace.emitf_opt t.trace ~at:now ~category:"admission" ~what:(reason_name Expired)
      "%s req#%d dead on arrival" t.label req.Request.id;
    t.on_shed Expired req payload;
    false
  end
  else begin
    let e = append t req payload in
    if t.length <= t.cfg.capacity then true
    else begin
      let victim = pick_victim t e in
      remove t victim;
      drop t ~now Capacity victim;
      victim.seq <> e.seq
    end
  end

let take t ~now =
  purge_expired t ~now;
  match t.items with
  | [] -> None
  | e :: rest ->
      t.items <- rest;
      t.length <- t.length - 1;
      Some (e.req, e.payload)

(* Silent removal for hedge-loser cancellation: the request was (or will
   be) served elsewhere, so this copy must vanish without counting as shed
   or expired and without firing the shed hooks — no metrics residue. *)
let cancel t ~req_id =
  match List.find_opt (fun e -> e.req.Request.id = req_id) t.items with
  | None -> None
  | Some e ->
      remove t e;
      t.length <- t.length - 1;
      Some e.payload
