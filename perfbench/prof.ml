(* Host-cost tracing for the traced twin: in-memory spans at layer
   boundaries, per-domain, plus GC phase times read back from the
   runtime's own event ring (runtime_events).

   A span records monotonic start/end times and the words the domain
   allocated while it was open. Spans on one domain nest strictly (a
   stack), so a span's self time is its duration minus its children's;
   summing self times over a domain's spans telescopes to its root. The
   untraced runs never touch this module. *)

module Registry = Gh_isolation.Registry
module Intf = Gh_faas.Strategy_intf
module Breakdown = Groundhog_core.Breakdown

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer =
  | Root  (** The timed section. Its self time is [unattributed_s]. *)
  | Sweep  (** One harness sweep ([tag] = sweep index). *)
  | Pool  (** One {!Gh_sim.Domain_pool.parallel_map} call ([tag] = call index). *)
  | Cell  (** One sweep cell; its self time is harness glue. *)
  | Init  (** [Registry.make] / [Gh.make_with_state]. *)
  | Invoke of Registry.id  (** [Strategy_intf.t.invoke]. *)
  | Scrub  (** [Strategy_intf.t.scrub]. *)
  | Platform  (** [Openwhisk.deploy] and [Client.*]. *)
  | Render  (** Report printing. *)
  | Check  (** Digests and gates. *)
  | Export  (** Observability exporters. *)
  | Poll  (** The twin's own GC-event polling. *)

let layer_name = function
  | Root -> "root"
  | Sweep -> "harness.sweep"
  | Pool -> "pool"
  | Cell -> "harness.cell"
  | Init -> "isolation.init"
  | Invoke id -> "isolation.invoke." ^ Registry.to_string id
  | Scrub -> "isolation.scrub"
  | Platform -> "platform"
  | Render -> "render"
  | Check -> "check"
  | Export -> "obs.export"
  | Poll -> "trace.poll"

let sweeps =
  [| "microbench"; "latency"; "tput"; "scaling"; "breakdown"; "fault"; "overload";
     "cluster"; "scrub"; "slo" |]

let sweep_index name =
  let rec go i =
    if i >= Array.length sweeps then invalid_arg ("Prof: unknown sweep " ^ name)
    else if sweeps.(i) = name then i
    else go (i + 1)
  in
  go 0

type span = {
  dom : int;
  layer : layer;
  tag : int;
  t0 : int;
  t1 : int;
  self_ns : int;
  words : float;
  self_words : float;
}

type frame = {
  f_t0 : int;
  f_w0 : float;
  mutable child_ns : int;
  mutable child_w : float;
}

(* Everything one domain records; merged by the main domain after the
   pool has joined. *)
type dom = {
  id : int;
  mutable stack : frame list;
  mutable spans : span list;
  mutable pages_scanned : int;
  mutable pages_restored : int;
  mutable syscalls_injected : int;
  mutable blocks_verified : int;
  mutable requests : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
}

let doms = ref []
let doms_m = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          id = (Domain.self () :> int);
          stack = [];
          spans = [];
          pages_scanned = 0;
          pages_restored = 0;
          syscalls_injected = 0;
          blocks_verified = 0;
          requests = 0;
          pool_hits = 0;
          pool_misses = 0;
        }
      in
      Mutex.protect doms_m (fun () -> doms := d :: !doms);
      d)

(* Words this domain allocated so far: minor-heap words plus words
   allocated directly in the major heap (large arrays). *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let span ?(tag = 0) layer f =
  let d = Domain.DLS.get key in
  let fr = { f_w0 = words (); f_t0 = now_ns (); child_ns = 0; child_w = 0.0 } in
  d.stack <- fr :: d.stack;
  let close () =
    let t1 = now_ns () in
    let w1 = words () in
    (match d.stack with _ :: rest -> d.stack <- rest | [] -> ());
    let dur = t1 - fr.f_t0 and dw = w1 -. fr.f_w0 in
    (match d.stack with
    | p :: _ ->
        p.child_ns <- p.child_ns + dur;
        p.child_w <- p.child_w +. dw
    | [] -> ());
    d.spans <-
      {
        dom = d.id;
        layer;
        tag;
        t0 = fr.f_t0;
        t1;
        self_ns = dur - fr.child_ns;
        words = dw;
        self_words = dw -. fr.child_w;
      }
      :: d.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close ();
      Printexc.raise_with_backtrace e bt

(* -- GC phases from runtime_events -- *)

module Gc_events = struct
  type ring = {
    mutable stack : Runtime_events.runtime_phase list;
    mutable major_t0 : int;
    mutable minor_t0 : int;
  }

  let rings : (int, ring) Hashtbl.t = Hashtbl.create 8
  let minor_ns = ref 0
  let major_ns = ref 0
  let lost = ref 0
  let cursor = ref None

  let ring i =
    match Hashtbl.find_opt rings i with
    | Some r -> r
    | None ->
        let r = { stack = []; major_t0 = 0; minor_t0 = 0 } in
        Hashtbl.replace rings i r;
        r

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)
  let in_major r = List.mem Runtime_events.EV_MAJOR r.stack

  (* Minor collections also run nested inside a major cycle; their time
     counts as minor and is taken out of the enclosing major span, so the
     two totals never overlap. *)
  let runtime_begin i t phase =
    let r = ring i in
    (match phase with
    | Runtime_events.EV_MAJOR when not (in_major r) -> r.major_t0 <- ts t
    | Runtime_events.EV_MINOR -> r.minor_t0 <- ts t
    | _ -> ());
    r.stack <- phase :: r.stack

  let runtime_end i t phase =
    let r = ring i in
    (match r.stack with _ :: rest -> r.stack <- rest | [] -> ());
    match phase with
    | Runtime_events.EV_MAJOR when not (in_major r) ->
        major_ns := !major_ns + (ts t - r.major_t0)
    | Runtime_events.EV_MINOR ->
        let d = ts t - r.minor_t0 in
        minor_ns := !minor_ns + d;
        if in_major r then major_ns := !major_ns - d
    | _ -> ()

  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  (* Only the main domain polls; the rings are sized so that the longest
     cell cannot wrap them (lost events are counted and gated anyway). *)
  let poll () =
    match !cursor with
    | Some c when Domain.is_main_domain () ->
        span Poll (fun () -> ignore (Runtime_events.read_poll c callbacks None))
    | _ -> ()
end

(* -- Layer wrappers used by the twin -- *)

let current_sweep = ref (-1)
let pool_calls = ref [] (* (call, sweep, domains) *)

let sweep name f =
  let tag = sweep_index name in
  let saved = !current_sweep in
  current_sweep := tag;
  Fun.protect
    ~finally:(fun () -> current_sweep := saved)
    (fun () -> span ~tag Sweep f)

let cell f =
  let r = span ~tag:(-1) Cell f in
  Gc_events.poll ();
  r

(* [Domain_pool.parallel_map] with every job in a [Cell] span tagged by
   the call, and each domain's buffer-pool counters tallied around its
   cells (the pools are per-domain and die with the workers). *)
let pmap ~jobs f xs =
  let n = List.length xs in
  let domains = if jobs <= 1 || n <= 1 then 1 else min jobs n in
  let call = List.length !pool_calls in
  pool_calls := (call, !current_sweep, domains) :: !pool_calls;
  span ~tag:call Pool (fun () ->
      Gh_sim.Domain_pool.parallel_map ~jobs
        (fun x ->
          let d = Domain.DLS.get key in
          let s0 = Gh_sim.Buffer_pool.stats () in
          let r =
            Fun.protect
              ~finally:(fun () ->
                let s1 = Gh_sim.Buffer_pool.stats () in
                d.pool_hits <- d.pool_hits + s1.hits - s0.hits;
                d.pool_misses <- d.pool_misses + s1.misses - s0.misses)
              (fun () -> span ~tag:call Cell (fun () -> f x))
          in
          Gc_events.poll ();
          r)
        xs)

let count_invocation (inv : Intf.invocation) =
  let d = Domain.DLS.get key in
  (match inv.Intf.breakdown with
  | Some b ->
      d.pages_scanned <- d.pages_scanned + b.Breakdown.pages_scanned;
      d.pages_restored <- d.pages_restored + b.Breakdown.pages_restored;
      d.syscalls_injected <- d.syscalls_injected + b.Breakdown.syscalls_injected
  | None -> ());
  match inv.Intf.verify with
  | Intf.Verified n -> d.blocks_verified <- d.blocks_verified + n
  | Intf.Unverified | Intf.Verify_failed _ -> ()

let wrap_strategy id (s : Intf.t) =
  {
    s with
    Intf.invoke =
      (fun req ->
        let inv = span (Invoke id) (fun () -> s.Intf.invoke req) in
        count_invocation inv;
        inv);
    scrub = (fun blocks -> span Scrub (fun () -> s.Intf.scrub blocks));
  }

let init f = span Init f
let platform f = span Platform f

let count_requests n =
  let d = Domain.DLS.get key in
  d.requests <- d.requests + n

let render f = span Render f
let check f = span Check f
let export f = span Export f

(* -- Aggregation -- *)

let all_doms () = Mutex.protect doms_m (fun () -> !doms)
let all_spans () = List.concat_map (fun d -> d.spans) (all_doms ())
let sum f = List.fold_left (fun acc d -> acc + f d) 0 (all_doms ())
let seconds ns = float_of_int ns /. 1e9

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Nearest-rank quantile of a sorted array; 0 when it is empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type summary = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  domain_s : float;  (** Domain-seconds the twin's timeline covers. *)
  residual_s : float;  (** domain_s minus (layer self + idle + unattributed). *)
  lost_events : int;
}

let summarize () =
  let spans = all_spans () in
  let main = (Domain.self () :> int) in
  let by_layer = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let name = layer_name s.layer in
      let calls, self, w = Option.value (Hashtbl.find_opt by_layer name) ~default:(0, 0, 0.0) in
      Hashtbl.replace by_layer name (calls + 1, self + s.self_ns, w +. s.self_words))
    spans;
  let layer name = Option.value (Hashtbl.find_opt by_layer name) ~default:(0, 0, 0.0) in
  let dur s = s.t1 - s.t0 in
  let root = List.filter (fun s -> s.layer = Root) spans in
  let unattributed_ns = List.fold_left (fun a s -> a + s.self_ns) 0 root in
  let root_ns = List.fold_left (fun a s -> a + dur s) 0 root in
  (* Pool accounting in domain-seconds: a call on k domains offers
     k x its duration; what its cells do not use is idle. *)
  let calls = !pool_calls in
  let pool_span call = List.find (fun s -> s.layer = Pool && s.tag = call) spans in
  let cells = List.filter (fun s -> s.layer = Cell && s.tag >= 0) spans in
  let extra_ns, idle_ns =
    List.fold_left
      (fun (extra, idle) (call, _, k) ->
        let p = pool_span call in
        let worker_cells =
          List.fold_left
            (fun a s -> if s.tag = call && s.dom <> main then a + dur s else a)
            0 cells
        in
        let offered = (k - 1) * dur p in
        (extra + offered, idle + p.self_ns + offered - worker_cells))
      (0, 0) calls
  in
  let domain_ns = root_ns + extra_ns in
  let attributed_ns =
    Hashtbl.fold
      (fun name (_, self, _) a -> if name = "root" || name = "pool" then a else a + self)
      by_layer 0
  in
  let residual_ns = domain_ns - (attributed_ns + idle_ns + unattributed_ns) in
  let m = ref [] in
  let add name v unit = m := (name, v, unit) :: !m in
  (* Harness: sweep walls, render, cell glue. *)
  let sweep_ns = Array.make (Array.length sweeps) 0 in
  let sweep_cell_ns = Array.make (Array.length sweeps) 0 in
  List.iter
    (fun s -> if s.layer = Sweep then sweep_ns.(s.tag) <- sweep_ns.(s.tag) + dur s)
    spans;
  List.iter
    (fun s ->
      match List.find_opt (fun (c, _, _) -> c = s.tag) calls with
      | Some (_, sw, _) when sw >= 0 -> sweep_cell_ns.(sw) <- sweep_cell_ns.(sw) + dur s
      | _ -> ())
    cells;
  Array.iteri
    (fun i name -> add (Printf.sprintf "harness.%s_s" name) (seconds sweep_ns.(i)) "s")
    sweeps;
  (* Cell-seconds over wall: what the sweep would take serially (its
     cells back to back) against what it took. *)
  List.iter
    (fun name ->
      let i = sweep_index name in
      add
        (Printf.sprintf "harness.%s_speedup" name)
        (ratio (float_of_int sweep_cell_ns.(i)) (float_of_int sweep_ns.(i)))
        "x")
    [ "microbench"; "latency"; "tput"; "scaling"; "breakdown" ];
  let _, render_ns, _ = layer "render" in
  add "harness.render_s" (seconds render_ns) "s";
  (* Domain pool. *)
  add "pool.cells" (float_of_int (List.length cells)) "count";
  add "pool.max_cell_s" (seconds (List.fold_left (fun a s -> max a (dur s)) 0 cells)) "s";
  add "pool.idle_s" (seconds idle_ns) "s";
  (* Isolation. *)
  let calls_s_mw prefix name =
    let c, self, w = layer name in
    add (prefix ^ ".calls") (float_of_int c) "count";
    add (prefix ^ ".s") (seconds self) "s";
    add (prefix ^ ".mwords") (w /. 1e6) "mwords"
  in
  calls_s_mw "isolation.init" "isolation.init";
  List.iter
    (fun id ->
      let name = layer_name (Invoke id) in
      calls_s_mw name name)
    Registry.[ Gh; Gh_nop; Base; Fork; Faasm ];
  let gh =
    List.filter_map
      (fun s -> if s.layer = Invoke Registry.Gh then Some (float_of_int (dur s) /. 1e3) else None)
      spans
    |> Array.of_list
  in
  Array.sort Float.compare gh;
  add "isolation.invoke.gh.p50_us" (quantile gh 0.50) "us";
  add "isolation.invoke.gh.p99_us" (quantile gh 0.99) "us";
  let c, self, _ = layer "isolation.scrub" in
  add "isolation.scrub.calls" (float_of_int c) "count";
  add "isolation.scrub.s" (seconds self) "s";
  (* Core work counts from the invocation records. *)
  add "core.pages_scanned" (float_of_int (sum (fun d -> d.pages_scanned))) "count";
  add "core.pages_restored" (float_of_int (sum (fun d -> d.pages_restored))) "count";
  add "core.syscalls_injected" (float_of_int (sum (fun d -> d.syscalls_injected))) "count";
  add "core.blocks_verified" (float_of_int (sum (fun d -> d.blocks_verified))) "count";
  (* Platform. *)
  let _, pself, pw = layer "platform" in
  let requests = sum (fun d -> d.requests) in
  add "platform.s" (seconds pself) "s";
  add "platform.mwords" (pw /. 1e6) "mwords";
  add "platform.us_per_request" (ratio (float_of_int pself /. 1e3) (float_of_int requests)) "us";
  let _, eself, _ = layer "obs.export" in
  add "obs.export_s" (seconds eself) "s";
  (* GC. *)
  let st = Gc.quick_stat () in
  add "gc.minor_collections" (float_of_int st.Gc.minor_collections) "count";
  add "gc.major_collections" (float_of_int st.Gc.major_collections) "count";
  add "gc.minor_s" (seconds !Gc_events.minor_ns) "s";
  add "gc.major_s" (seconds !Gc_events.major_ns) "s";
  add "gc.promoted_mwords" (st.Gc.promoted_words /. 1e6) "mwords";
  let hits = sum (fun d -> d.pool_hits) and misses = sum (fun d -> d.pool_misses) in
  add "buffer_pool.hit_rate" (ratio (float_of_int hits) (float_of_int (hits + misses))) "ratio";
  add "unattributed_s" (seconds unattributed_ns) "s";
  {
    metrics = List.rev !m;
    domain_s = seconds domain_ns;
    residual_s = seconds residual_ns;
    lost_events = !Gc_events.lost;
  }

(* One line per span, for offline inspection of the twin. *)
let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "dom\tlayer\ttag\tt0_ns\tt1_ns\tself_ns\twords\tself_words\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%.0f\t%.0f\n" s.dom (layer_name s.layer)
            s.tag s.t0 s.t1 s.self_ns s.words s.self_words)
        (List.sort (fun a b -> compare (a.dom, a.t0) (b.dom, b.t0)) (all_spans ())))
