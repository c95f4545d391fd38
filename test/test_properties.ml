(* Property-based tests (qcheck): the restore-exactness invariant under
   randomized mutation sequences, plus invariants of the core data
   structures. *)

module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Prot = Gh_mem.Prot
module Process = Gh_proc.Process
module Registers = Gh_proc.Registers
module Thread = Gh_proc.Thread
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Stats = Gh_sim.Stats
open Groundhog_core

let cost = Gh_kernel.Cost.default

(* ---------------------------------------------------------------- *)
(* The big one: any sequence of process mutations is fully reverted. *)
(* ---------------------------------------------------------------- *)

type op =
  | Write of int * int * int  (* heap pos, len, value *)
  | Read of int * int
  | Mmap of int  (* pages *)
  | Munmap_last
  | Brk_grow of int  (* pages *)
  | Brk_shrink of int
  | Mprotect_heap_r
  | Madvise of int * int
  | Stack_write of int * int
  | Scramble_regs of int  (* seed *)
  | Spawn_thread
  | Mmap_and_write of int

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (6, map3 (fun a b c -> Write (a, b, c)) (int_bound 200) (int_range 1 40) (int_range 1 1000));
      (3, map2 (fun a b -> Read (a, b)) (int_bound 220) (int_range 1 30));
      (2, map (fun n -> Mmap (n + 1)) (int_bound 30));
      (2, return Munmap_last);
      (2, map (fun n -> Brk_grow (n + 1)) (int_bound 32));
      (1, map (fun n -> Brk_shrink (n + 1)) (int_bound 8));
      (1, return Mprotect_heap_r);
      (2, map2 (fun a b -> Madvise (a, b + 1)) (int_bound 100) (int_bound 20));
      (2, map2 (fun a b -> Stack_write (a, b + 1)) (int_bound 20) (int_bound 6));
      (2, map (fun s -> Scramble_regs s) (int_bound 1000));
      (1, return Spawn_thread);
      (2, map (fun n -> Mmap_and_write (n + 1)) (int_bound 20));
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 0 40) op_gen)

let rec print_op = function
  | Write (a, b, c) -> Printf.sprintf "Write(%d,%d,%d)" a b c
  | Read (a, b) -> Printf.sprintf "Read(%d,%d)" a b
  | Mmap n -> Printf.sprintf "Mmap(%d)" n
  | Munmap_last -> "Munmap_last"
  | Brk_grow n -> Printf.sprintf "Brk_grow(%d)" n
  | Brk_shrink n -> Printf.sprintf "Brk_shrink(%d)" n
  | Mprotect_heap_r -> "Mprotect_heap_r"
  | Madvise (a, b) -> Printf.sprintf "Madvise(%d,%d)" a b
  | Stack_write (a, b) -> Printf.sprintf "Stack_write(%d,%d)" a b
  | Scramble_regs s -> Printf.sprintf "Scramble_regs(%d)" s
  | Spawn_thread -> "Spawn_thread"
  | Mmap_and_write n -> Printf.sprintf "Mmap_and_write(%d)" n

and print_ops ops = String.concat "; " (List.map print_op ops)

let apply_op p mapped op =
  let a = Account.create () in
  let m = p.Process.mem in
  let clamp_range vma pos len =
    let pos = min pos (max 0 (vma.Vma.n_pages - 1)) in
    let len = min len (vma.Vma.n_pages - pos) in
    (pos, max 0 len)
  in
  match op with
  | Write (pos, len, value) ->
      let heap = As.heap m in
      let pos, len = clamp_range heap pos len in
      if len > 0 && heap.Vma.prot.Prot.write then
        As.dirty_range m a heap ~pos ~len ~value
  | Read (pos, len) ->
      let heap = As.heap m in
      let pos, len = clamp_range heap pos len in
      if len > 0 && heap.Vma.prot.Prot.read then As.read_range m a heap ~pos ~len
  | Mmap n -> mapped := Process.sys_mmap p a ~n_pages:n ~prot:Prot.rw Vma.Anon :: !mapped
  | Munmap_last -> begin
      match !mapped with
      | v :: rest ->
          Process.sys_munmap p a v;
          mapped := rest
      | [] -> ()
    end
  | Brk_grow n -> Process.sys_brk p a (As.brk m + (n * Vma.page_size))
  | Brk_shrink n ->
      let target = As.brk m - (n * Vma.page_size) in
      let heap = As.heap m in
      if target > heap.Vma.start_addr then Process.sys_brk p a target
  | Mprotect_heap_r -> Process.sys_mprotect p a (As.heap m) Prot.r
  | Madvise (pos, len) ->
      let heap = As.heap m in
      let pos, len = clamp_range heap pos len in
      if len > 0 then Process.sys_madvise_dontneed p a heap ~pos ~len
  | Stack_write (pos, len) ->
      let stack = As.stack m in
      let pos, len = clamp_range stack pos len in
      if len > 0 then As.dirty_range m a stack ~pos ~len ~value:4242
  | Scramble_regs seed ->
      let rng = Rng.create seed in
      List.iter (fun th -> Registers.scramble th.Thread.regs rng) p.Process.threads
  | Spawn_thread -> ignore (Process.spawn_thread p a)
  | Mmap_and_write n ->
      let v = Process.sys_mmap p a ~n_pages:n ~prot:Prot.rw Vma.Anon in
      As.dirty_range m a v ~pos:0 ~len:n ~value:777;
      mapped := v :: !mapped

let restore_exactness_prop ops =
  let mem = As.create ~heap_pages:256 ~stack_pages:32 ~cost () in
  let p = Process.create ~mem ~n_threads:2 () in
  (* Warm a little, then snapshot. *)
  let a = Account.create () in
  As.dirty_range mem a (As.heap mem) ~pos:0 ~len:64 ~value:7;
  let warm_map = As.map mem ~n_pages:8 ~prot:Prot.rw Vma.Anon in
  As.dirty_range mem a warm_map ~pos:0 ~len:8 ~value:8;
  let snap = Snapshot.capture_exn (Account.create ()) p in
  (* Random mutations, then restore. *)
  let mapped = ref [] in
  List.iter (apply_op p mapped) ops;
  ignore (Restore.run_exn (Account.create ()) snap p);
  match Verify.state_matches snap p with
  | Ok () -> true
  | Error m ->
      QCheck2.Test.fail_reportf "restore diverged (%a) after ops: %s" Verify.pp_mismatch m
        (print_ops ops)

let restore_exactness =
  QCheck2.Test.make ~name:"restore reverts any mutation sequence exactly" ~count:150
    ~print:print_ops ops_gen restore_exactness_prop

(* Incremental (CoW-salvage) snapshots restore bit-identically to eager
   ones: capture both over the same clean state, mutate randomly, restore
   from the incremental one, verify against the eager one. *)
let incremental_matches_eager =
  QCheck2.Test.make ~name:"incremental restore matches the eager snapshot" ~count:120
    ~print:print_ops ops_gen (fun ops ->
      let mem = As.create ~heap_pages:256 ~stack_pages:32 ~cost () in
      let p = Process.create ~mem ~n_threads:2 () in
      let a = Account.create () in
      As.dirty_range mem a (As.heap mem) ~pos:0 ~len:64 ~value:7;
      let warm_map = As.map mem ~n_pages:8 ~prot:Prot.rw Vma.Anon in
      As.dirty_range mem a warm_map ~pos:0 ~len:8 ~value:8;
      (* Eager reference first (it arms nothing persistent), then the
         incremental capture installs the salvage hook. *)
      let reference = Snapshot.capture_exn (Account.create ()) p in
      let incr = Result.get_ok (Incremental.capture (Account.create ()) p) in
      let mapped = ref [] in
      List.iter (apply_op p mapped) ops;
      ignore (Restore.run (Account.create ()) (Incremental.snapshot incr) p);
      match Verify.state_matches reference p with
      | Ok () -> true
      | Error m ->
          QCheck2.Test.fail_reportf "incremental restore diverged (%a) after ops: %s"
            Verify.pp_mismatch m (print_ops ops))

(* Restoring twice in a row from the same snapshot also holds. *)
let restore_twice =
  QCheck2.Test.make ~name:"second restore is exact too" ~count:50 ~print:print_ops ops_gen
    (fun ops ->
      let mem = As.create ~heap_pages:200 ~cost () in
      let p = Process.create ~mem ~n_threads:1 () in
      let snap = Snapshot.capture_exn (Account.create ()) p in
      let mapped = ref [] in
      List.iter (apply_op p mapped) ops;
      ignore (Restore.run_exn (Account.create ()) snap p);
      let mapped = ref [] in
      List.iter (apply_op p mapped) ops;
      ignore (Restore.run_exn (Account.create ()) snap p);
      Verify.state_matches snap p = Ok ())

(* After a restore, no page anywhere holds a request's secret. *)
let no_residue_after_restore =
  let open QCheck2 in
  Test.make ~name:"no secret survives a restore" ~count:60
    Gen.(pair (int_range 1 400) (int_range 1 1000))
    (fun (dirtied, nonce) ->
      let spec =
        {
          Gh_faas.Function_model.default_spec with
          Gh_faas.Function_model.name = "prop";
          mapped_pages = 2_000;
          dirtied_pages = dirtied;
          read_pages = 500;
        }
      in
      let inst = Gh_faas.Function_model.build spec in
      let rng = Rng.create nonce in
      ignore (Gh_faas.Function_model.boot inst ~fault:Gh_sim.Fault.none rng);
      let mgr = Manager.create (Gh_faas.Function_model.proc inst) in
      ignore (Manager.take_snapshot mgr);
      let alice = Gh_faas.Principal.make ~id:7 ~name:"alice" in
      let req = Gh_faas.Request.make ~id:nonce ~principal:alice () in
      ignore
        (Gh_faas.Function_model.invoke inst (Account.create ()) rng ~post_restore:false req);
      Manager.mark_dirty mgr;
      ignore (Manager.restore mgr);
      let bob = Gh_faas.Principal.make ~id:8 ~name:"bob" in
      Gh_faas.Function_model.residue_oracle inst bob = 0)

(* ------------------------------ *)
(* Data-structure property tests. *)
(* ------------------------------ *)

let bitmap_runs_cover_set_bits =
  let open QCheck2 in
  Test.make ~name:"fold_runs covers exactly the set bits" ~count:200
    Gen.(list_size (int_range 0 200) bool)
    (fun bits ->
      let b = Bitmap.create (List.length bits) in
      List.iteri (fun i v -> Bitmap.set b i v) bits;
      let covered = Array.make (List.length bits) false in
      Bitmap.fold_runs b ~init:() ~f:(fun () ~pos ~len ->
          for i = pos to pos + len - 1 do
            covered.(i) <- true
          done);
      List.for_all2 (fun bit cov -> bit = cov) bits (Array.to_list covered))

let bitmap_runs_are_maximal =
  let open QCheck2 in
  Test.make ~name:"fold_runs yields maximal, disjoint, ascending runs" ~count:200
    Gen.(list_size (int_range 0 200) bool)
    (fun bits ->
      let n = List.length bits in
      let b = Bitmap.create n in
      List.iteri (fun i v -> Bitmap.set b i v) bits;
      let runs = List.rev (Bitmap.fold_runs b ~init:[] ~f:(fun acc ~pos ~len -> (pos, len) :: acc)) in
      let ok_run (pos, len) =
        len > 0
        && (pos = 0 || not (Bitmap.get b (pos - 1)))
        && (pos + len >= n || not (Bitmap.get b (pos + len)))
      in
      let rec disjoint = function
        | (p1, l1) :: ((p2, _) :: _ as rest) -> p1 + l1 < p2 && disjoint rest
        | _ -> true
      in
      List.for_all ok_run runs && disjoint runs)

(* The event queue against a sorted-list model: random interleaved
   push/pop/peek sequences, with a narrow key range so duplicate keys (and
   hence seq tie-breaks) are common, must agree with the model on every
   observation — popped (key, value) pairs, peeked keys, and sizes. Values
   number the pushes, so a pop mismatch pinpoints a broken (key, seq) order,
   the engine's determinism contract. *)
type queue_op = Qpush of int | Qpop | Qpeek

(* [(key, seq, value)] entries sorted by (key, seq). A push's seq is the
   largest yet, so it goes after every entry whose key is no greater. *)
let rec model_insert ((key, _, _) as e) = function
  | ((k, _, _) as x) :: rest when k <= key -> x :: model_insert e rest
  | rest -> e :: rest

let event_queue_matches_model =
  let open QCheck2 in
  let gen_op =
    Gen.(
      frequency
        [
          (5, map (fun k -> Qpush k) (int_bound 40));
          (3, map (fun k -> Qpush (k * 100_003)) (int_bound 10_000));
          (4, return Qpop);
          (2, return Qpeek);
        ])
  in
  Test.make ~name:"event queue matches a sorted-list model on random op sequences"
    ~count:500
    Gen.(list_size (int_range 0 400) gen_op)
    (fun ops ->
      let model = ref [] in
      let q = Gh_sim.Event_queue.create ~dummy:(-1) in
      let counter = ref 0 in
      let model_pop () =
        match !model with
        | [] -> None
        | (k, _, v) :: rest ->
            model := rest;
            Some (k, v)
      in
      List.for_all
        (fun op ->
          match op with
          | Qpush key ->
              let v = !counter in
              incr counter;
              model := model_insert (key, v, v) !model;
              Gh_sim.Event_queue.push q ~key v;
              true
          | Qpop -> model_pop () = Gh_sim.Event_queue.pop q
          | Qpeek ->
              (match !model with [] -> None | (k, _, _) :: _ -> Some k)
              = Gh_sim.Event_queue.peek_key q
              && List.length !model = Gh_sim.Event_queue.size q)
        ops
      &&
      (* Both must then drain identically to empty. *)
      let rec drain () =
        match (model_pop (), Gh_sim.Event_queue.pop q) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

let at_batch_matches_at_loop =
  let open QCheck2 in
  Test.make ~name:"at_batch fires in the order of an at loop, ties included" ~count:300
    Gen.(
      pair (list_size (int_range 0 50) (int_bound 30)) (list_size (int_range 0 200) (int_bound 30)))
    (fun (pending, batch) ->
      (* Both engines hold the same pending events, so batch entries also tie
         with events admitted before them. *)
      let fire admit =
        let e = Gh_sim.Engine.create () in
        let log = ref [] in
        let event tag time = (time, fun () -> log := (time, tag) :: !log) in
        List.iteri (fun i time -> Gh_sim.Engine.at e ~time (snd (event (-1 - i) time))) pending;
        admit e (List.mapi (fun i time -> event i time) batch);
        Gh_sim.Engine.run_all e;
        List.rev !log
      in
      fire (fun e -> List.iter (fun (time, f) -> Gh_sim.Engine.at e ~time f))
      = fire Gh_sim.Engine.at_batch)

let percentile_bounds =
  let open QCheck2 in
  Test.make ~name:"percentiles lie within [min,max] and grow with q" ~count:200
    Gen.(list_size (int_range 1 100) (float_bound_inclusive 1000.0))
    (fun samples ->
      let a = Array.of_list samples in
      let s = Stats.summarize a in
      s.Stats.p10 >= s.Stats.min -. 1e-9
      && s.Stats.p10 <= s.Stats.p25 +. 1e-9
      && s.Stats.p25 <= s.Stats.median +. 1e-9
      && s.Stats.median <= s.Stats.p75 +. 1e-9
      && s.Stats.p75 <= s.Stats.p90 +. 1e-9
      && s.Stats.p90 <= s.Stats.p95 +. 1e-9
      && s.Stats.p95 <= s.Stats.max +. 1e-9)

let rng_int_bounds =
  let open QCheck2 in
  Test.make ~name:"Rng.int respects bounds" ~count:500
    Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let online_stats_match =
  let open QCheck2 in
  Test.make ~name:"online mean/std match direct computation" ~count:100
    Gen.(list_size (int_range 2 200) (float_bound_inclusive 1000.0))
    (fun samples ->
      let a = Array.of_list samples in
      let acc = Stats.Online.create () in
      Array.iter (Stats.Online.add acc) a;
      Float.abs (Stats.Online.mean acc -. Stats.mean a) < 1e-6
      && Float.abs (Stats.Online.std acc -. Stats.std a) < 1e-6)

let dirty_range_sets_exactly =
  let open QCheck2 in
  Test.make ~name:"dirty_range dirties exactly the range" ~count:200
    Gen.(pair (int_bound 100) (int_range 1 50))
    (fun (pos, len) ->
      let mem = As.create ~heap_pages:200 ~cost () in
      let heap = As.heap mem in
      let len = min len (heap.Vma.n_pages - pos) in
      QCheck2.assume (len > 0);
      As.clear_refs mem;
      As.dirty_range mem (Account.create ()) heap ~pos ~len ~value:1;
      let ok = ref true in
      for i = 0 to heap.Vma.n_pages - 1 do
        let expected = i >= pos && i < pos + len in
        if Bitmap.get heap.Vma.soft_dirty i <> expected then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Differential: the word-batched bulk kernels vs the scalar reference. *)
(* ------------------------------------------------------------------ *)

(* Two address spaces are built identically from a seed (random resident
   stripes, madvise holes, an extra anon mapping, optional CoW arming and
   fork-style untouched marks), then the same accesses run batched on one
   and through [As.Scalar] on the other. Bitmaps, data, charged ns, and
   CoW-salvage hook logs must be identical. *)

let print_bulk (seed, arm, hook, ops) =
  Printf.sprintf "seed=%d arm=%b hook=%b ops=[%s]" seed arm hook
    (String.concat "; "
       (List.map
          (fun (anon, rd, pos, len, v) ->
            Printf.sprintf "%s %s pos=%d len=%d v=%d"
              (if anon then "anon" else "heap")
              (if rd then "read" else "write")
              pos len v)
          ops))

(* Same geometry, page data and all four page maps. *)
let same_vma (x : Vma.t) (y : Vma.t) =
  x.Vma.start_addr = y.Vma.start_addr
  && x.Vma.n_pages = y.Vma.n_pages
  && x.Vma.data = y.Vma.data
  && Bitmap.equal x.Vma.present y.Vma.present
  && Bitmap.equal x.Vma.soft_dirty y.Vma.soft_dirty
  && Bitmap.equal x.Vma.cow_pending y.Vma.cow_pending
  && Bitmap.equal x.Vma.untouched y.Vma.untouched

let bulk_gen =
  let open QCheck2.Gen in
  let op = tup5 bool bool (int_bound 210) (int_bound 220) (int_range 1 1000) in
  tup4 (int_bound 1_000_000) bool bool (list_size (int_range 1 25) op)

let bulk_matches_scalar =
  QCheck2.Test.make ~name:"bulk kernels match the scalar reference" ~count:300
    ~print:print_bulk bulk_gen (fun (seed, arm, hook, ops) ->
      let build () =
        let rng = Rng.create seed in
        let m = As.create ~heap_pages:200 ~stack_pages:32 ~cost () in
        let a = Account.create () in
        let heap = As.heap m in
        for _ = 1 to 1 + Rng.int rng 5 do
          let pos = Rng.int rng 190 in
          let len = 1 + Rng.int rng (200 - pos) in
          As.dirty_range m a heap ~pos ~len ~value:(1 + Rng.int rng 100)
        done;
        for _ = 1 to Rng.int rng 3 do
          let pos = Rng.int rng 160 in
          let len = 1 + Rng.int rng (min 40 (200 - pos)) in
          As.madvise_dontneed m heap ~pos ~len
        done;
        let anon = As.map m ~n_pages:80 ~prot:Prot.rw Vma.Anon in
        As.dirty_range m a anon ~pos:0 ~len:(1 + Rng.int rng 80) ~value:9;
        if arm then begin
          As.arm_cow_all m;
          As.clear_refs m
        end;
        for _ = 1 to Rng.int rng 8 do
          Bitmap.set heap.Vma.untouched (Rng.int rng 200) true
        done;
        (m, heap, anon)
      in
      let m1, h1, an1 = build () in
      let m2, h2, an2 = build () in
      let log1 = ref [] and log2 = ref [] in
      if hook then begin
        As.set_cow_hook m1
          (Some (fun v i -> log1 := (v.Vma.id, i, As.peek v i) :: !log1));
        As.set_cow_hook m2
          (Some (fun v i -> log2 := (v.Vma.id, i, As.peek v i) :: !log2))
      end;
      let a1 = Account.create () and a2 = Account.create () in
      List.iter
        (fun (use_anon, is_read, pos, len, value) ->
          let v1 = if use_anon then an1 else h1 in
          let v2 = if use_anon then an2 else h2 in
          let pos = if v1.Vma.n_pages = 0 then 0 else pos mod v1.Vma.n_pages in
          let len = min len (v1.Vma.n_pages - pos) in
          if is_read then begin
            As.read_range m1 a1 v1 ~pos ~len;
            As.Scalar.read_range m2 a2 v2 ~pos ~len
          end
          else begin
            As.dirty_range m1 a1 v1 ~pos ~len ~value;
            As.Scalar.dirty_range m2 a2 v2 ~pos ~len ~value
          end)
        ops;
      List.for_all2 same_vma (As.vmas m1) (As.vmas m2)
      && Account.total a1 = Account.total a2
      && !log1 = !log2)

(* Differential: the range-list kernels ([As.dirty_ranges] /
   [As.read_ranges]) against the same ranges applied one at a time
   through the scalar reference. The heap starts in a random state —
   each of the four maps at its own density (empty, sparse, half, full),
   random data, soft-dirty tracking on or off — under one of the three
   tracking cost modes, a random [fault_gran] and protection, with or
   without a logging CoW-salvage hook. Range lists mix overlaps,
   zero-length ranges, ranges ending at [n_pages] and out-of-bounds ones;
   each call applies a random slice [first, stop) of its list. The first
   exception ends both sides, which must agree on it, on the account
   total, on data over [0, n_pages), on all four maps and on the hook
   log. *)

type kernel_case = {
  kseed : int;
  tracking : Gh_kernel.Cost.tracking;
  sd_on : bool;
  hooked : bool;
  gran : int;
  prot : Prot.t;
  n : int;
  calls : (bool * (int * int) list * int * int) list;  (* read?, ranges, first, stop *)
}

let print_kernel_case c =
  Printf.sprintf "seed=%d tracking=%s sd=%b hook=%b gran=%d prot=%s n=%d calls=[%s]" c.kseed
    (match c.tracking with
    | Gh_kernel.Cost.Soft_dirty -> "sd"
    | Gh_kernel.Cost.Uffd -> "uffd"
    | Gh_kernel.Cost.Kernel_list -> "klist")
    c.sd_on c.hooked c.gran (Prot.to_string c.prot) c.n
    (String.concat "; "
       (List.map
          (fun (rd, ranges, first, stop) ->
            Printf.sprintf "%s [%s] %d..%d" (if rd then "read" else "write")
              (String.concat " " (List.map (fun (p, l) -> Printf.sprintf "%d+%d" p l) ranges))
              first stop)
          c.calls))

let kernel_case_gen =
  let open QCheck2.Gen in
  let* kseed = int_bound 1_000_000 in
  let* tracking =
    oneofl Gh_kernel.Cost.[ Soft_dirty; Uffd; Kernel_list ]
  in
  let* sd_on = bool and* hooked = bool in
  let* gran = frequency [ (2, return 1); (3, int_range 1 64) ] in
  let* prot = frequency [ (8, return Prot.rw); (1, return Prot.r); (1, return Prot.none) ] in
  let* n = frequency [ (3, int_range 1 200); (1, oneofl [ 62; 63; 64; 126; 127 ]) ] in
  let range =
    frequency
      [
        (6, let* pos = int_bound n in
            let* len = int_bound (min 24 (n - pos)) in
            return (pos, len));
        (2, let* len = int_bound (min 24 n) in
            return (n - len, len));
        (1, let* pos = int_bound n in
            return (pos, 0));
        (1, let* pos = int_bound n in
            let* over = int_range 1 8 in
            return (pos, n - pos + over));
        (1, return (-1, 1));
      ]
  in
  let call =
    let* rd = bool in
    let* ranges = list_size (int_range 0 12) range in
    let k = List.length ranges in
    let* first = int_bound k in
    let* stop = int_range first k in
    return (rd, ranges, first, stop)
  in
  let* calls = list_size (int_range 1 4) call in
  return { kseed; tracking; sd_on; hooked; gran; prot; n; calls }

let range_kernels_match_scalar =
  QCheck2.Test.make ~name:"range kernels match per-range scalar calls" ~count:1000
    ~print:print_kernel_case kernel_case_gen (fun c ->
      let build () =
        let cost = { Gh_kernel.Cost.default with Gh_kernel.Cost.tracking = c.tracking } in
        let m = As.create ~heap_pages:c.n ~cost () in
        let v = As.heap m in
        if c.sd_on then As.clear_refs m;
        let rng = Rng.create c.kseed in
        let density () = [| 0.0; 0.1; 0.5; 1.0 |].(Rng.int rng 4) in
        List.iter
          (fun map ->
            let d = density () in
            for i = 0 to c.n - 1 do
              Bitmap.set map i (Rng.float rng 1.0 < d)
            done)
          [ v.Vma.present; v.Vma.soft_dirty; v.Vma.cow_pending; v.Vma.untouched ];
        for i = 0 to c.n - 1 do
          if Rng.int rng 2 = 0 then v.Vma.data.(i) <- 1 + Rng.int rng 1000
        done;
        v.Vma.fault_gran <- c.gran;
        v.Vma.prot <- c.prot;
        let log = ref [] in
        if c.hooked then
          As.set_cow_hook m (Some (fun v i -> log := (v.Vma.id, i, As.peek v i) :: !log));
        (m, v, log)
      in
      let m1, v1, log1 = build () and m2, v2, log2 = build () in
      let a1 = Account.create () and a2 = Account.create () in
      let outcome f = match f () with () -> None | exception e -> Some (Printexc.to_string e) in
      let rec run apply = function
        | [] -> None
        | call :: rest -> ( match outcome (fun () -> apply call) with None -> run apply rest | e -> e)
      in
      let value = 0xBEEF in
      let e1 =
        run
          (fun (rd, ranges, first, stop) ->
            let arr = Array.of_list (List.concat_map (fun (p, l) -> [ p; l ]) ranges) in
            if rd then As.read_ranges m1 a1 v1 arr ~first ~stop
            else As.dirty_ranges m1 a1 v1 arr ~first ~stop ~value)
          c.calls
      in
      let e2 =
        run
          (fun (rd, ranges, first, stop) ->
            List.iteri
              (fun r (pos, len) ->
                if r >= first && r < stop then
                  if rd then As.Scalar.read_range m2 a2 v2 ~pos ~len
                  else As.Scalar.dirty_range m2 a2 v2 ~pos ~len ~value)
              ranges)
          c.calls
      in
      e1 = e2
      && Account.total a1 = Account.total a2
      && Array.sub v1.Vma.data 0 c.n = Array.sub v2.Vma.data 0 c.n
      && Bitmap.equal v1.Vma.present v2.Vma.present
      && Bitmap.equal v1.Vma.soft_dirty v2.Vma.soft_dirty
      && Bitmap.equal v1.Vma.cow_pending v2.Vma.cow_pending
      && Bitmap.equal v1.Vma.untouched v2.Vma.untouched
      && !log1 = !log2)

(* The zero-elided snapshot copy stores exactly the source contents, with
   a [zeros] map that marks precisely the zero pages — on any layout a
   random mutation sequence can produce. A VMA's array may run past its
   page count; the copy covers [0, n_pages), and the slack must be zero. *)
let slack_is_zero (v : Vma.t) =
  let ok = ref true in
  for i = v.Vma.n_pages to Array.length v.Vma.data - 1 do
    if v.Vma.data.(i) <> 0 then ok := false
  done;
  !ok

let snapshot_zeros_faithful =
  QCheck2.Test.make ~name:"snapshot copy is faithful with an exact zeros map" ~count:100
    ~print:print_ops ops_gen (fun ops ->
      let mem = As.create ~heap_pages:256 ~stack_pages:32 ~cost () in
      let p = Process.create ~mem ~n_threads:1 () in
      let mapped = ref [] in
      List.iter (apply_op p mapped) ops;
      let snap = Snapshot.capture_exn (Account.create ()) p in
      List.for_all2
        (fun (r : Snapshot.region) (v : Vma.t) ->
          r.Snapshot.start_addr = v.Vma.start_addr
          && r.Snapshot.n_pages = v.Vma.n_pages
          && Array.length r.Snapshot.data = v.Vma.n_pages
          && r.Snapshot.data = Array.sub v.Vma.data 0 v.Vma.n_pages
          && slack_is_zero v
          && Bitmap.length r.Snapshot.zeros = v.Vma.n_pages
          && begin
               let ok = ref true in
               for i = 0 to v.Vma.n_pages - 1 do
                 if Bitmap.get r.Snapshot.zeros i <> (r.Snapshot.data.(i) = 0) then
                   ok := false
               done;
               !ok
             end)
        snap.Snapshot.regions (As.vmas p.Process.mem))

(* ------------------------------------------------------ *)
(* Strategy invariants over randomly generated functions.  *)
(* ------------------------------------------------------ *)

let synthetic_gen =
  QCheck2.Gen.map
    (fun seed -> Gh_workloads.Synthetic.draw ~profile:Gh_workloads.Synthetic.tiny_profile
        (Rng.create seed))
    QCheck2.Gen.(int_bound 1_000_000)

let print_spec (s : Gh_faas.Function_model.spec) =
  Printf.sprintf "%s lang=%s mapped=%d dirtied=%d read=%d gran=%d buggy=%b leak=%d"
    s.Gh_faas.Function_model.name
    (Gh_faas.Runtime.lang_to_string s.Gh_faas.Function_model.lang)
    s.Gh_faas.Function_model.mapped_pages s.Gh_faas.Function_model.dirtied_pages
    s.Gh_faas.Function_model.read_pages s.Gh_faas.Function_model.fault_gran
    s.Gh_faas.Function_model.buggy_residue_leak s.Gh_faas.Function_model.memleak_pages

let alice = Gh_faas.Principal.make ~id:21 ~name:"alice"
let bob = Gh_faas.Principal.make ~id:22 ~name:"bob"

(* GH isolates any synthetic function, even pathological ones. *)
let gh_isolates_synthetic =
  QCheck2.Test.make ~name:"GH isolates every synthetic function" ~count:40
    ~print:print_spec synthetic_gen (fun spec ->
      let spec = { spec with Gh_faas.Function_model.buggy_residue_leak = true } in
      let strat = Gh_isolation.Gh.make ~rng:(Rng.create 77) spec in
      let ok = ref true in
      for i = 1 to 6 do
        let principal = if i land 1 = 1 then alice else bob in
        let inv =
          strat.Gh_faas.Strategy_intf.invoke (Gh_faas.Request.make ~id:i ~principal ())
        in
        if
          List.exists
            (fun w -> not (Gh_faas.Principal.owns_word principal w))
            inv.Gh_faas.Strategy_intf.response.Gh_faas.Function_model.residue
        then ok := false
      done;
      !ok)

(* Every supported strategy yields nonnegative, finite costs and responses
   for every synthetic function. *)
let strategies_total_on_synthetic =
  QCheck2.Test.make ~name:"every strategy handles every synthetic function" ~count:25
    ~print:print_spec synthetic_gen (fun spec ->
      List.for_all
        (fun id ->
          if not (Gh_isolation.Registry.supports id spec) then true
          else begin
            match Gh_isolation.Registry.make id ~rng:(Rng.create 3) spec with
            | Error _ -> false
            | Ok strat ->
                let inv =
                  strat.Gh_faas.Strategy_intf.invoke
                    (Gh_faas.Request.make ~id:1 ~principal:alice ())
                in
                inv.Gh_faas.Strategy_intf.on_path_ns >= 0
                && inv.Gh_faas.Strategy_intf.post_ns >= 0
          end)
        Gh_isolation.Registry.all)

(* GH's restore leaves the process residue-free for any synthetic spec. *)
let gh_oracle_clean_on_synthetic =
  QCheck2.Test.make ~name:"GH restore leaves no residue for synthetic functions" ~count:30
    ~print:print_spec synthetic_gen (fun spec ->
      let strategy, state = Gh_isolation.Gh.make_with_state ~rng:(Rng.create 5) spec in
      for i = 1 to 3 do
        ignore
          (strategy.Gh_faas.Strategy_intf.invoke (Gh_faas.Request.make ~id:i ~principal:alice ()))
      done;
      Gh_faas.Function_model.residue_oracle (Gh_isolation.Gh.instance state) bob = 0)

(* ---------------------------------------------------------------- *)
(* The word-at-a-time restore kernel against the per-run engine it   *)
(* replaced (test/restore_oracle.ml): same result, same charges, the  *)
(* same fault draws and the same process image, faults included.      *)
(* ---------------------------------------------------------------- *)

module Fault = Gh_sim.Fault
module Cost = Gh_kernel.Cost

let diff_costs =
  [|
    ("default", Cost.default);
    ("no-coalescing", Cost.no_coalescing);
    ("uffd", Cost.uffd_tracking);
    ("kernel-list", Cost.kernel_list_tracking);
    ("odd-setup", { Cost.default with Cost.restore_copy_run_setup_ns = 6_001 });
    ("odd-setup-no-coalescing", { Cost.no_coalescing with Cost.restore_copy_run_setup_ns = 6_001 });
  |]

let diff_sites = [| Fault.Restore_skip; Fault.Ptrace_write; Fault.Ptrace_inject |]

(* [None] is [Fault.none]; otherwise a plan seed and one optional
   (prob, nth) rule per site of [diff_sites]. *)
type diff_case = {
  seed : int;
  cost_ix : int;
  plan : (int * (float * int list) option list) option;
  ops : op list;
}

let diff_gen =
  let open QCheck2.Gen in
  let rule =
    frequency
      [
        (1, return None);
        ( 3,
          map2
            (fun prob nth -> Some (prob, nth))
            (oneofl [ 0.0; 0.05; 0.2; 0.5; 1.0 ])
            (list_size (int_range 0 3) (int_range 1 12)) );
      ]
  in
  let plan =
    frequency
      [ (1, return None); (2, map2 (fun s rs -> Some (s, rs)) (int_bound 1000) (list_repeat 3 rule)) ]
  in
  map4
    (fun seed cost_ix plan ops -> { seed; cost_ix; plan; ops })
    (int_bound 1_000_000)
    (int_bound (Array.length diff_costs - 1))
    plan
    (list_size (int_range 0 12) op_gen)

let print_diff_case c =
  Printf.sprintf "seed=%d cost=%s plan=%s ops=[%s]" c.seed (fst diff_costs.(c.cost_ix))
    (match c.plan with
    | None -> "none"
    | Some (s, rules) ->
        Printf.sprintf "seed %d: %s" s
          (String.concat ", "
             (List.mapi
                (fun i r ->
                  Fault.site_name diff_sites.(i) ^ " "
                  ^
                  match r with
                  | None -> "-"
                  | Some (p, nth) ->
                      Printf.sprintf "p=%g nth=[%s]" p
                        (String.concat ";" (List.map string_of_int nth)))
                rules)))
    (print_ops c.ops)

let make_plan = function
  | None -> Fault.none
  | Some (seed, rules) ->
      let f = Fault.create ~seed in
      List.iteri
        (fun i r ->
          match r with Some (prob, nth) -> Fault.set f diff_sites.(i) ~prob ~nth () | None -> ())
        rules;
      f

(* Random ranges of writes (a third of them zeros), reads and madvises on
   one VMA: zero and nonzero stretches, holes, multi-word runs. *)
let scribble rng mem (vma : Vma.t) =
  let a = Account.create () in
  let n = vma.Vma.n_pages in
  if n > 0 then
    for _ = 1 to 1 + Rng.int rng 8 do
      let pos = Rng.int rng n in
      let len = 1 + Rng.int rng (n - pos) in
      match Rng.int rng 6 with
      | 0 -> As.read_range mem a vma ~pos ~len
      | 1 -> As.madvise_dontneed mem vma ~pos ~len
      | 2 -> As.dirty_range mem a vma ~pos ~len ~value:0
      | _ -> As.dirty_range mem a vma ~pos ~len ~value:(1 + Rng.int rng 1000)
    done

(* Two identical processes come from one case: warmed, snapshotted,
   scribbled and mutated by the same seed and ops. Also returns the log
   of the salvage hook, when one is installed. *)
let diff_process c =
  let rng = Rng.create c.seed in
  let mem =
    As.create ~heap_pages:(1 + Rng.int rng 300) ~stack_pages:(1 + Rng.int rng 160)
      ~cost:(snd diff_costs.(c.cost_ix)) ()
  in
  let p = Process.create ~mem ~n_threads:2 () in
  let anon = As.map mem ~n_pages:(1 + Rng.int rng 200) ~prot:Prot.rw Vma.Anon in
  let vmas = [ As.heap mem; As.stack mem; anon ] in
  List.iter (scribble rng mem) vmas;
  let snap = Snapshot.capture_exn (Account.create ()) p in
  (* Sometimes the stored stack goes bad the way a bitflip leaves it: the
     words change, the zeros map does not. *)
  if Rng.int rng 3 = 0 then begin
    let r = Option.get (Snapshot.find_region snap ~start_addr:(As.stack mem).Vma.start_addr) in
    for _ = 1 to 1 + Rng.int rng 8 do
      let i = Rng.int rng r.Snapshot.n_pages in
      r.Snapshot.data.(i) <- r.Snapshot.data.(i) lxor (1 lsl Rng.int rng 62)
    done
  end;
  (* Sometimes CoW is armed, as incremental snapshots arm it, with a
     salvage hook that logs what it sees, in order. *)
  let hook_log = ref [] in
  if Rng.int rng 3 = 0 then begin
    As.arm_cow_all mem;
    As.set_cow_hook mem
      (Some (fun v i -> hook_log := (v.Vma.id, i, As.peek v i) :: !hook_log))
  end;
  List.iter (scribble rng mem) vmas;
  (* Stray CoW bits, on pages a restore may copy over: it must clear them. *)
  List.iter
    (fun (v : Vma.t) ->
      if v.Vma.n_pages > 0 then
        for _ = 1 to Rng.int rng 4 do
          Bitmap.set v.Vma.cow_pending (Rng.int rng v.Vma.n_pages) true
        done)
    vmas;
  let mapped = ref [] in
  List.iter (apply_op p mapped) c.ops;
  Process.set_fault p (make_plan c.plan);
  (p, snap, hook_log)

let restore_matches_oracle =
  QCheck2.Test.make ~name:"word-at-a-time restore matches the per-run oracle" ~count:1000
    ~print:print_diff_case diff_gen (fun c ->
      let p1, snap1, log1 = diff_process c in
      let p2, snap2, log2 = diff_process c in
      let a1 = Account.create () and a2 = Account.create () in
      let r1 = Restore.run a1 snap1 p1 in
      let r2 = Restore_oracle.run a2 snap2 p2 in
      let same_result =
        match (r1, r2) with
        | Ok b1, Ok b2 -> b1 = b2
        | Error s1, Error s2 -> s1 = s2
        | _ -> false
      in
      let f1 = p1.Process.fault and f2 = p2.Process.fault in
      let same_draws =
        List.for_all
          (fun site ->
            Fault.occurrences f1 site = Fault.occurrences f2 site
            && Fault.fired f1 site = Fault.fired f2 site)
          Fault.all_sites
      in
      let vmas1 = As.vmas p1.Process.mem and vmas2 = As.vmas p2.Process.mem in
      if not same_result then QCheck2.Test.fail_report "result or breakdown differs"
      else if Account.total a1 <> Account.total a2 then
        QCheck2.Test.fail_reportf "account %d vs oracle %d" (Account.total a1)
          (Account.total a2)
      else if not same_draws then QCheck2.Test.fail_report "fault occurrences differ"
      else if
        not (List.length vmas1 = List.length vmas2 && List.for_all2 same_vma vmas1 vmas2)
      then QCheck2.Test.fail_report "process image differs"
      else if !log1 <> !log2 then QCheck2.Test.fail_report "salvage hook saw a different order"
      else true)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "restore",
        [
          to_alcotest restore_exactness;
          to_alcotest restore_twice;
          to_alcotest incremental_matches_eager;
          to_alcotest no_residue_after_restore;
          to_alcotest restore_matches_oracle;
        ] );
      ( "strategies",
        [
          to_alcotest gh_isolates_synthetic;
          to_alcotest strategies_total_on_synthetic;
          to_alcotest gh_oracle_clean_on_synthetic;
        ] );
      ( "structures",
        [
          to_alcotest bitmap_runs_cover_set_bits;
          to_alcotest bitmap_runs_are_maximal;
          to_alcotest event_queue_matches_model;
          to_alcotest at_batch_matches_at_loop;
          to_alcotest percentile_bounds;
          to_alcotest rng_int_bounds;
          to_alcotest online_stats_match;
          to_alcotest dirty_range_sets_exactly;
        ] );
      ( "mem-kernels",
        [
          to_alcotest bulk_matches_scalar;
          to_alcotest range_kernels_match_scalar;
          to_alcotest snapshot_zeros_faithful;
        ] );
    ]
