type event = { at : Time_ns.t; category : string; what : string; detail : string }

type t = {
  buf : event option array;
  mutable next : int;  (* total events ever emitted *)
  (* Per-category sequence numbers, newest first. Maintained at emit time
     so [find] touches only its own category instead of rescanning the
     whole ring; sequences evicted by the ring are pruned lazily on the
     next lookup. *)
  index : (string, int list ref) Hashtbl.t;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity None; next = 0; index = Hashtbl.create 16 }

let emit t ~at ~category ~what detail =
  t.buf.(t.next mod Array.length t.buf) <- Some { at; category; what; detail };
  (match Hashtbl.find_opt t.index category with
  | Some seqs -> seqs := t.next :: !seqs
  | None -> Hashtbl.replace t.index category (ref [ t.next ]));
  t.next <- t.next + 1

let emitf t ~at ~category ~what fmt =
  Printf.ksprintf (fun detail -> emit t ~at ~category ~what detail) fmt

(* The common call-site shape is "emit if a trace is attached". Routing
   the format through [ikfprintf] when none is means the detail string is
   never built: the format arguments are consumed, at the cost of one
   small closure per conversion. *)
let emitf_opt t ~at ~category ~what fmt =
  match t with
  | Some tr -> Printf.ksprintf (fun detail -> emit tr ~at ~category ~what detail) fmt
  | None -> Printf.ikfprintf ignore () fmt

let length t = min t.next (Array.length t.buf)
let dropped t = max 0 (t.next - Array.length t.buf)

let events t =
  let cap = Array.length t.buf in
  let n = length t in
  let start = if t.next > cap then t.next mod cap else 0 in
  List.init n (fun i ->
      match t.buf.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false (* slots below [length] are always filled *))

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.next <- 0;
  Hashtbl.reset t.index

let find t ~category =
  match Hashtbl.find_opt t.index category with
  | None -> []
  | Some seqs ->
      let oldest_live = t.next - Array.length t.buf in
      (* Prune ring-evicted sequence numbers (they are a suffix of the
         newest-first list), then write the trimmed list back so later
         lookups stay proportional to the live entries. *)
      let live = List.filter (fun seq -> seq >= oldest_live) !seqs in
      seqs := live;
      List.rev_map
        (fun seq ->
          match t.buf.(seq mod Array.length t.buf) with
          | Some e -> e
          | None -> assert false (* live sequences point at filled slots *))
        live

let pp_event ppf e =
  Format.fprintf ppf "[%a] %-10s %-18s %s" Time_ns.pp e.at e.category e.what e.detail

let render ppf t =
  if dropped t > 0 then Format.fprintf ppf "... (%d earlier events dropped)@." (dropped t);
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)
