(* Unit tests for the memory substrate: bitmaps, VMAs, address spaces and
   their fault accounting. *)

open Gh_mem
module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cost = Cost.default
let fresh () = Address_space.create ~cost ()
let acct () = Account.create ()

(* -- Bitmap -- *)

let test_bitmap_basics () =
  let b = Bitmap.create 10 in
  check_int "empty count" 0 (Bitmap.count b);
  Bitmap.set b 3 true;
  Bitmap.set b 7 true;
  check_bool "get 3" true (Bitmap.get b 3);
  check_bool "get 4" false (Bitmap.get b 4);
  check_int "count" 2 (Bitmap.count b);
  Bitmap.set b 3 false;
  check_int "count after clear" 1 (Bitmap.count b);
  Bitmap.fill b true;
  check_int "filled" 10 (Bitmap.count b)

let test_bitmap_resize () =
  let b = Bitmap.create 4 in
  Bitmap.set b 2 true;
  let grown = Bitmap.resize b 8 in
  check_int "grown length" 8 (Bitmap.length grown);
  check_bool "kept bit" true (Bitmap.get grown 2);
  check_bool "new bits zero" false (Bitmap.get grown 6);
  let shrunk = Bitmap.resize grown 2 in
  check_int "shrunk length" 2 (Bitmap.length shrunk);
  check_int "shrunk count" 0 (Bitmap.count shrunk)

let test_bitmap_runs () =
  let b = Bitmap.create 12 in
  List.iter (fun i -> Bitmap.set b i true) [ 0; 1; 2; 5; 8; 9; 11 ];
  let runs = Bitmap.fold_runs b ~init:[] ~f:(fun acc ~pos ~len -> (pos, len) :: acc) in
  Alcotest.(check (list (pair int int)))
    "maximal runs"
    [ (0, 3); (5, 1); (8, 2); (11, 1) ]
    (List.rev runs)

let test_bitmap_iter_set () =
  let b = Bitmap.create 6 in
  List.iter (fun i -> Bitmap.set b i true) [ 1; 4 ];
  let seen = ref [] in
  Bitmap.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "ascending" [ 1; 4 ] (List.rev !seen)

let test_bitmap_word_boundaries () =
  (* Exercise positions straddling the packed-word seams. *)
  let bpw = Bitmap.bits_per_word in
  let n = (3 * bpw) + 5 in
  let b = Bitmap.create n in
  let edges = [ 0; bpw - 1; bpw; (2 * bpw) - 1; 2 * bpw; n - 1 ] in
  List.iter (fun i -> Bitmap.set b i true) edges;
  check_int "count over seams" (List.length edges) (Bitmap.count b);
  let seen = ref [] in
  Bitmap.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter over seams" edges (List.rev !seen);
  let runs = List.rev (Bitmap.fold_runs b ~init:[] ~f:(fun acc ~pos ~len -> (pos, len) :: acc)) in
  Alcotest.(check (list (pair int int)))
    "run straddles the seam"
    [ (0, 1); (bpw - 1, 2); ((2 * bpw) - 1, 2); (n - 1, 1) ]
    runs;
  Bitmap.fill b true;
  check_int "fill clamps to length" n (Bitmap.count b);
  Alcotest.(check (list (pair int int)))
    "single full run" [ (0, n) ]
    (List.rev (Bitmap.fold_runs b ~init:[] ~f:(fun acc ~pos ~len -> (pos, len) :: acc)))

let test_bitmap_set_range () =
  let bpw = Bitmap.bits_per_word in
  let n = (2 * bpw) + 7 in
  let b = Bitmap.create n in
  Bitmap.set_range b ~pos:3 ~len:(bpw + 10) true;
  check_int "range set" (bpw + 10) (Bitmap.count b);
  check_bool "below clear" false (Bitmap.get b 2);
  check_bool "start set" true (Bitmap.get b 3);
  check_bool "end set" true (Bitmap.get b (bpw + 12));
  check_bool "past end clear" false (Bitmap.get b (bpw + 13));
  Bitmap.set_range b ~pos:4 ~len:bpw false;
  check_int "hole punched" 10 (Bitmap.count b);
  (* Survivors are bit 3 and bits bpw+4 .. bpw+12; [0, bpw+5) sees two. *)
  let seen = ref [] in
  Bitmap.iter_set_range b ~pos:0 ~len:(bpw + 5) (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "ranged iteration" [ 3; bpw + 4 ] (List.rev !seen)

let test_bitmap_bounds_checked () =
  let b = Bitmap.create 10 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitmap.get: index out of bounds") (fun () ->
      ignore (Bitmap.get b 10));
  Alcotest.check_raises "set oob" (Invalid_argument "Bitmap.set: index out of bounds") (fun () ->
      Bitmap.set b (-1) true);
  Alcotest.check_raises "range oob" (Invalid_argument "Bitmap.set_range: range out of bounds")
    (fun () -> Bitmap.set_range b ~pos:8 ~len:3 true)

(* Differential property: random op sequences behave identically on the
   packed bitmap and a naive bool-array reference model. *)

type bitmap_op =
  | Op_set of int * bool  (* position as a fraction of the current length *)
  | Op_fill of bool
  | Op_set_range of int * int * bool
  | Op_resize of int

let bitmap_op_gen =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun i v -> Op_set (i, v)) (int_bound 1000) bool;
      map (fun v -> Op_fill v) bool;
      map3 (fun p l v -> Op_set_range (p, l, v)) (int_bound 1000) (int_bound 300) bool;
      map (fun n -> Op_resize n) (int_bound 200);
    ]

let bitmap_differential =
  let open QCheck2 in
  Test.make ~name:"packed bitmap matches the bool-array model" ~count:300
    Gen.(pair (int_range 0 180) (list_size (int_range 0 40) bitmap_op_gen))
    (fun (n0, ops) ->
      let b = ref (Bitmap.create n0) in
      let m = ref (Array.make n0 false) in
      let clamp_pos len p = if len = 0 then 0 else p mod len in
      List.iter
        (fun op ->
          let len = Bitmap.length !b in
          match op with
          | Op_set (i, v) ->
              if len > 0 then begin
                let i = clamp_pos len i in
                Bitmap.set !b i v;
                !m.(i) <- v
              end
          | Op_fill v ->
              Bitmap.fill !b v;
              Array.fill !m 0 len v
          | Op_set_range (p, l, v) ->
              let p = clamp_pos len p in
              let l = min l (len - p) in
              Bitmap.set_range !b ~pos:p ~len:l v;
              Array.fill !m p l v
          | Op_resize n ->
              b := Bitmap.resize !b n;
              let nm = Array.make n false in
              Array.blit !m 0 nm 0 (min (Array.length !m) n);
              m := nm)
        ops;
      let len = Bitmap.length !b in
      (* get / length / count *)
      len = Array.length !m
      && Array.for_all (fun x -> x) (Array.init len (fun i -> Bitmap.get !b i = !m.(i)))
      && Bitmap.count !b = Array.fold_left (fun n v -> if v then n + 1 else n) 0 !m
      (* iter_set visits exactly the set indices, ascending *)
      && begin
           let seen = ref [] in
           Bitmap.iter_set !b (fun i -> seen := i :: !seen);
           let expect = List.filter (fun i -> !m.(i)) (List.init len Fun.id) in
           List.rev !seen = expect
         end
      (* fold_runs produces the model's maximal runs *)
      && begin
           let runs =
             List.rev (Bitmap.fold_runs !b ~init:[] ~f:(fun acc ~pos ~len -> (pos, len) :: acc))
           in
           let model_runs =
             let out = ref [] and i = ref 0 in
             while !i < len do
               if !m.(!i) then begin
                 let s = !i in
                 while !i < len && !m.(!i) do incr i done;
                 out := (s, !i - s) :: !out
               end
               else incr i
             done;
             List.rev !out
           in
           runs = model_runs
         end)

let test_bitmap_word_ops () =
  let bpw = Bitmap.bits_per_word in
  let n = bpw + 10 in
  let b = Bitmap.create n in
  check_int "word count" 2 (Bitmap.word_count b);
  Bitmap.set b 1 true;
  Bitmap.set b 3 true;
  Bitmap.set b (bpw + 2) true;
  check_int "word 0" 0b1010 (Bitmap.word b 0);
  check_int "word 1" 0b100 (Bitmap.word b 1);
  check_int "past the last word" 0 (Bitmap.word b 2);
  check_int "mask" 0b11100 (Bitmap.mask ~pos:2 ~len:3);
  check_int "full mask" (-1) (Bitmap.mask ~pos:0 ~len:bpw)

(* Branch-free ctz against the obvious scan, on zero (which reads as
   bits_per_word), on every single bit — bit 62 is [min_int] — and on
   random words with their low bits cleared to spread the answers. *)
let test_bitmap_ctz () =
  let bpw = Bitmap.bits_per_word in
  let naive w =
    let rec go k = if k >= bpw || (w lsr k) land 1 = 1 then k else go (k + 1) in
    go 0
  in
  check_int "ctz 0" bpw (Bitmap.ctz 0);
  for k = 0 to bpw - 1 do
    check_int (Printf.sprintf "ctz (1 lsl %d)" k) k (Bitmap.ctz (1 lsl k))
  done;
  check_int "ctz min_int" (bpw - 1) (Bitmap.ctz min_int);
  let rng = Gh_sim.Rng.create 7 in
  for _ = 1 to 10_000 do
    let w = Int64.to_int (Gh_sim.Rng.bits64 rng) in
    let w = w land (-1 lsl Gh_sim.Rng.int rng bpw) in
    check_int (Printf.sprintf "ctz %x" w) (naive w) (Bitmap.ctz w)
  done

(* -- Prot -- *)

let test_prot () =
  Alcotest.(check string) "rw" "rw-" (Prot.to_string Prot.rw);
  Alcotest.(check string) "rx" "r-x" (Prot.to_string Prot.rx);
  Alcotest.(check string) "none" "---" (Prot.to_string Prot.none);
  check_bool "equal" true (Prot.equal Prot.rw Prot.rw);
  check_bool "not equal" false (Prot.equal Prot.rw Prot.r)

(* -- Vma -- *)

let test_vma_geometry () =
  let v = Vma.create ~id:1 ~start_addr:0x10000 ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  check_int "end" (0x10000 + (4 * 4096)) (Vma.end_addr v);
  check_bool "contains start" true (Vma.contains v 0x10000);
  check_bool "contains last byte" true (Vma.contains v (Vma.end_addr v - 1));
  check_bool "not past end" false (Vma.contains v (Vma.end_addr v));
  check_int "page index" 2 (Vma.page_index v (0x10000 + (2 * 4096)))

let test_vma_resize_preserves_prefix () =
  let v = Vma.create ~id:1 ~start_addr:0 ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  v.Vma.data.(1) <- 42;
  Bitmap.set v.Vma.present 1 true;
  Vma.resize v 8;
  check_int "kept data" 42 v.Vma.data.(1);
  check_bool "kept present" true (Bitmap.get v.Vma.present 1);
  check_int "new pages zero" 0 v.Vma.data.(6);
  Vma.resize v 1;
  check_int "shrunk" 1 v.Vma.n_pages

(* Grow/shrink/grow sequences against a model of the page words and the
   present map. After every step: [0, n) is kept, new pages read zero,
   the maps have length n, the array covers n and its slack is zero — a
   secret written near the end, shrunk away and grown back reads zero. *)
let test_vma_resize_model () =
  let rng = Gh_sim.Rng.create 11 in
  let v = Vma.create ~id:1 ~start_addr:0 ~n_pages:40 ~prot:Prot.rw Vma.Heap in
  let model = Array.make 1000 0 and present = Array.make 1000 false in
  let check step =
    let n = v.Vma.n_pages in
    let label what = Printf.sprintf "step %d (%d pages): %s" step n what in
    check_bool (label "array covers the pages") true (Array.length v.Vma.data >= n);
    let first_bad p = List.find_opt p (List.init n Fun.id) in
    Alcotest.(check (option int)) (label "data kept") None
      (first_bad (fun i -> v.Vma.data.(i) <> model.(i)));
    Alcotest.(check (option int)) (label "present kept") None
      (first_bad (fun i -> Bitmap.get v.Vma.present i <> present.(i)));
    Alcotest.(check (option int)) (label "slack is zero") None
      (List.find_opt
         (fun i -> v.Vma.data.(i) <> 0)
         (List.init (Array.length v.Vma.data - n) (( + ) n)));
    List.iter
      (fun m -> check_int (label "map length") n (Bitmap.length m))
      [ v.Vma.present; v.Vma.soft_dirty; v.Vma.cow_pending; v.Vma.untouched ]
  in
  for step = 1 to 400 do
    let n = v.Vma.n_pages in
    (* Secrets on the last pages, the ones a shrink drops. *)
    for _ = 1 to 3 do
      if n > 0 then begin
        let i = n - 1 - Gh_sim.Rng.int rng (min n 20) in
        let x = 1 + Gh_sim.Rng.int rng 1_000_000 in
        v.Vma.data.(i) <- x;
        model.(i) <- x;
        Bitmap.set v.Vma.present i true;
        present.(i) <- true
      end
    done;
    let target =
      match Gh_sim.Rng.int rng 4 with
      | 0 -> Gh_sim.Rng.int rng 1000
      | 1 -> max 0 (n - 1 - Gh_sim.Rng.int rng 16)
      | _ -> min 999 (n + Gh_sim.Rng.int rng 17)
    in
    Vma.resize v target;
    for i = min n target to max n target - 1 do
      model.(i) <- 0;
      present.(i) <- false
    done;
    check step
  done;
  (* Shrink past a secret and grow straight back over it. *)
  let n = v.Vma.n_pages in
  Vma.resize v (n + 5);
  v.Vma.data.(n + 4) <- 77;
  Vma.resize v n;
  Vma.resize v (n + 5);
  check_int "dropped page reads zero" 0 v.Vma.data.(n + 4);
  (* Growth past the array takes a pooled one: a reaped VMA's array full
     of secrets, reused at the same length, must come back with zero
     slack. *)
  let grown () =
    let w = Vma.create ~id:2 ~start_addr:0 ~n_pages:40 ~prot:Prot.rw Vma.Heap in
    Vma.resize w 500;
    w
  in
  let old = grown () in
  Array.fill old.Vma.data 0 (Array.length old.Vma.data) 99;
  Vma.recycle old;
  let w = grown () in
  check_bool "grown array zero past the old pages" true
    (Array.for_all (( = ) 0) (Array.sub w.Vma.data 40 (Array.length w.Vma.data - 40)));
  (* A fork clone of a VMA with slack is deep, slack included. *)
  v.Vma.data.(0) <- 5;
  let c = Vma.clone_cow v in
  check_int "clone has the parent's array length" (Array.length v.Vma.data)
    (Array.length c.Vma.data);
  c.Vma.data.(0) <- 6;
  Vma.resize c (Array.length c.Vma.data);
  c.Vma.data.(Array.length c.Vma.data - 1) <- 9;
  check_int "clone is deep" 5 v.Vma.data.(0);
  check_int "parent slack untouched" 0 v.Vma.data.(Array.length v.Vma.data - 1)

(* A recycled VMA keeps its size but not its pages: every page access
   still raises, even when its old array had slack. *)
let test_vma_recycled_raises () =
  let m = fresh () in
  let heap = Address_space.heap m in
  Address_space.set_brk m (Address_space.brk m + (20 * Vma.page_size));
  Address_space.set_brk m (Address_space.brk m - (10 * Vma.page_size));
  check_bool "slack after the shrink" true
    (Array.length heap.Vma.data > heap.Vma.n_pages);
  Vma.recycle heap;
  let oob = Invalid_argument "Address_space: page index out of bounds" in
  Alcotest.check_raises "dirty_range" oob (fun () ->
      Address_space.dirty_range m (acct ()) heap ~pos:0 ~len:1 ~value:1);
  Alcotest.check_raises "read_range" oob (fun () ->
      Address_space.read_range m (acct ()) heap ~pos:0 ~len:1)

let test_vma_clone_cow () =
  let v = Vma.create ~id:1 ~start_addr:0 ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  v.Vma.data.(0) <- 9;
  Bitmap.set v.Vma.present 0 true;
  let c = Vma.clone_cow v in
  check_int "data copied" 9 c.Vma.data.(0);
  check_bool "cow armed on present page" true (Bitmap.get c.Vma.cow_pending 0);
  check_bool "cow not armed on lazy page" false (Bitmap.get c.Vma.cow_pending 1);
  c.Vma.data.(0) <- 1;
  check_int "copy is deep" 9 v.Vma.data.(0)

let test_vma_blit_pages () =
  (* Past the minor heap's size limit: the destination lives in the major
     heap, where a barrier-free copy matters. *)
  let src = Array.init 1000 (fun i -> i + 1) and dst = Array.make 1000 0 in
  Vma.blit_pages src 10 dst 500 300;
  check_int "first word" 11 dst.(500);
  check_int "last word" 310 dst.(799);
  check_int "before the range" 0 dst.(499);
  check_int "after the range" 0 dst.(800);
  Vma.blit_pages src 0 dst 0 0;
  let oob = Invalid_argument "Vma.blit_pages: range out of bounds" in
  Alcotest.check_raises "negative length" oob (fun () -> Vma.blit_pages src 0 dst 0 (-1));
  Alcotest.check_raises "negative source" oob (fun () -> Vma.blit_pages src (-1) dst 0 1);
  Alcotest.check_raises "negative destination" oob (fun () ->
      Vma.blit_pages src 0 dst (-1) 1);
  Alcotest.check_raises "source overrun" oob (fun () -> Vma.blit_pages src 901 dst 0 100);
  Alcotest.check_raises "destination overrun" oob (fun () ->
      Vma.blit_pages src 0 dst 901 100);
  Alcotest.check_raises "length overflow" oob (fun () -> Vma.blit_pages src 1 dst 1 max_int);
  Alcotest.check_raises "one array"
    (Invalid_argument "Vma.blit_pages: source and destination alias") (fun () ->
      Vma.blit_pages src 0 src 1 10)

let test_vma_unaligned_raises () =
  Alcotest.check_raises "unaligned" (Invalid_argument "Vma.create: unaligned start") (fun () ->
      ignore (Vma.create ~id:0 ~start_addr:123 ~n_pages:1 ~prot:Prot.rw Vma.Anon))

(* -- Address space: layout -- *)

let test_as_initial_layout () =
  let m = fresh () in
  check_int "four initial regions" 4 (Address_space.vma_count m);
  let heap = Address_space.heap m in
  check_bool "heap writable" true heap.Vma.prot.Prot.write;
  check_int "brk at heap end" (Vma.end_addr heap) (Address_space.brk m);
  (* Text and data are present (loader-touched); heap and stack lazy. *)
  check_int "heap starts lazy" 0 (Bitmap.count heap.Vma.present)

let test_as_no_initial_overlap () =
  (* Node-sized text/data used to collide with the fixed heap base. *)
  let m = Address_space.create ~text_pages:2600 ~data_pages:700 ~heap_pages:1000 ~cost () in
  let rec check_sorted = function
    | (a : Vma.t) :: (b : Vma.t) :: rest ->
        check_bool "disjoint ascending" true (Vma.end_addr a <= b.Vma.start_addr);
        check_sorted (b :: rest)
    | _ -> ()
  in
  check_sorted (Address_space.vmas m)

let test_as_map_unmap () =
  let m = fresh () in
  let v = Address_space.map m ~n_pages:16 ~prot:Prot.rw Vma.Anon in
  check_int "five regions" 5 (Address_space.vma_count m);
  Alcotest.(check bool) "findable by id" true (Address_space.find_vma_by_id m v.Vma.id <> None);
  Alcotest.(check bool)
    "findable by address" true
    (Address_space.find_vma m v.Vma.start_addr <> None);
  Address_space.unmap m v;
  check_int "four again" 4 (Address_space.vma_count m);
  Alcotest.check_raises "double unmap" (Invalid_argument "Address_space.unmap: foreign VMA")
    (fun () -> Address_space.unmap m v)

let test_as_map_at_overlap_rejected () =
  let m = fresh () in
  let heap = Address_space.heap m in
  Alcotest.check_raises "overlap" (Invalid_argument "Address_space.map_at: overlapping mapping")
    (fun () ->
      ignore
        (Address_space.map_at m ~start_addr:heap.Vma.start_addr ~n_pages:1 ~prot:Prot.rw
           Vma.Anon))

let test_as_brk () =
  let m = fresh () in
  let heap = Address_space.heap m in
  let before_pages = heap.Vma.n_pages in
  let new_brk = Address_space.brk m + (8 * Vma.page_size) in
  Address_space.set_brk m new_brk;
  check_int "brk moved" new_brk (Address_space.brk m);
  check_int "heap grew" (before_pages + 8) heap.Vma.n_pages;
  Address_space.set_brk m (new_brk - (10 * Vma.page_size));
  check_int "heap shrank" (before_pages - 2) heap.Vma.n_pages;
  Alcotest.check_raises "below base" (Invalid_argument "Address_space.set_brk: below heap base")
    (fun () -> Address_space.set_brk m 0)

let test_as_madvise () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:4 ~value:5;
  check_int "present" 4 (Bitmap.count heap.Vma.present);
  Address_space.madvise_dontneed m heap ~pos:1 ~len:2;
  check_int "dropped" 2 (Bitmap.count heap.Vma.present);
  check_int "zeroed" 0 (Address_space.peek heap 1);
  check_int "kept" 5 (Address_space.peek heap 0)

let test_as_resize_collision () =
  let m = fresh () in
  let a = Address_space.map m ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  let b = Address_space.map m ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  ignore b;
  Alcotest.check_raises "collision"
    (Invalid_argument "Address_space.resize_vma: growth collides with a neighbour") (fun () ->
      Address_space.resize_vma m a 4096)

(* -- Address space: access + fault accounting -- *)

let test_demand_zero_charged_once () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.write_page m a heap 0 7;
  let first = Account.total a in
  check_bool "demand-zero + write" true (first >= cost.Cost.demand_zero_fault_ns);
  Address_space.write_page m a heap 0 8;
  let second = Account.total a - first in
  check_int "subsequent write is cheap" cost.Cost.page_write_ns second

let test_read_fault_marks_new_pte_soft_dirty () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  let v = Address_space.read_page m a heap 3 in
  check_int "reads zero" 0 v;
  check_bool "present now" true (Bitmap.get heap.Vma.present 3);
  (* Linux marks freshly created PTEs soft-dirty; CRIU and Groundhog rely
     on it to catch zapped-then-read pages. *)
  check_bool "new PTE born soft-dirty" true (Bitmap.get heap.Vma.soft_dirty 3);
  (* A read of an already-present clean page stays clean. *)
  Address_space.clear_refs m;
  ignore (Address_space.read_page m a heap 3);
  check_bool "read of present page stays clean" false (Bitmap.get heap.Vma.soft_dirty 3)

let test_sd_rearm_fault_only_after_clear_refs () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  (* Page in, then measure a steady-state write: no SD fault (tracking off). *)
  Address_space.write_page m a heap 0 1;
  let before = Account.total a in
  Address_space.write_page m a heap 0 2;
  check_int "no tracking, no fault" cost.Cost.page_write_ns (Account.total a - before);
  (* Arm tracking: next write pays the re-arm fault, the one after doesn't. *)
  Address_space.clear_refs m;
  check_bool "tracking on" true (Address_space.sd_enabled m);
  let before = Account.total a in
  Address_space.write_page m a heap 0 3;
  check_int "re-arm fault" (cost.Cost.sd_fault_ns + cost.Cost.page_write_ns)
    (Account.total a - before);
  let before = Account.total a in
  Address_space.write_page m a heap 0 4;
  check_int "no second fault" cost.Cost.page_write_ns (Account.total a - before)

let test_fault_granularity_divides_faults () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  (* Page in 64 pages, arm tracking, then redirty with gran 16. *)
  Address_space.dirty_range m a heap ~pos:0 ~len:64 ~value:1;
  Address_space.clear_refs m;
  heap.Vma.fault_gran <- 16;
  let before = Account.total a in
  Address_space.dirty_range m a heap ~pos:0 ~len:64 ~value:2;
  let expect = (4 * cost.Cost.sd_fault_ns) + (64 * cost.Cost.page_write_ns) in
  check_int "4 block faults for 64 pages" expect (Account.total a - before)

let test_cow_and_first_touch_in_clone () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:8 ~value:3;
  let child = Address_space.clone_cow m in
  let child_heap = Address_space.heap child in
  let ca = acct () in
  (* First read: first-touch only. *)
  ignore (Address_space.read_page child ca child_heap 0);
  check_int "first touch on read" (cost.Cost.first_touch_fault_ns + cost.Cost.page_read_ns)
    (Account.total ca);
  (* First write to an already-touched page: CoW copy. *)
  let before = Account.total ca in
  Address_space.write_page child ca child_heap 0 9;
  check_int "cow on write" (cost.Cost.cow_fault_ns + cost.Cost.page_write_ns)
    (Account.total ca - before);
  (* Parent unaffected. *)
  check_int "parent data intact" 3 (Address_space.peek heap 0)

let test_clone_is_deep () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:4 ~value:11;
  let child = Address_space.clone_cow m in
  let child_heap = Address_space.heap child in
  Address_space.write_page child (acct ()) child_heap 0 99;
  check_int "parent keeps value" 11 (Address_space.peek heap 0);
  check_int "child sees write" 99 (Address_space.peek child_heap 0);
  (* Layout changes in the child don't touch the parent. *)
  let v = Address_space.map child ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  ignore v;
  check_int "parent vma count" 4 (Address_space.vma_count m);
  check_int "child vma count" 5 (Address_space.vma_count child)

let test_arm_cow_all () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:4 ~value:1;
  Address_space.arm_cow_all m;
  let before = Account.total a in
  Address_space.write_page m a heap 0 2;
  check_bool "cow fault charged" true (Account.total a - before >= cost.Cost.cow_fault_ns)

let test_write_protection_enforced () =
  let m = fresh () in
  let a = acct () in
  let text = List.hd (Address_space.vmas m) in
  Alcotest.check_raises "write to text"
    (Invalid_argument "Address_space: write to non-writable VMA") (fun () ->
      Address_space.write_page m a text 0 1)

let test_segfault_on_unmapped () =
  let m = fresh () in
  let a = acct () in
  Alcotest.check_raises "segfault"
    (Invalid_argument "Address_space.write_addr: segfault (unmapped address)") (fun () ->
      Address_space.write_addr m a 0x6000_0000_0000 1)

let test_addr_access_roundtrip () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  let addr = heap.Vma.start_addr + (3 * Vma.page_size) in
  Address_space.write_addr m a addr 1234;
  check_int "readback" 1234 (Address_space.read_addr m a addr)

let test_stats_counts () =
  let m = fresh () in
  let a = acct () in
  let total = Address_space.total_pages m in
  check_bool "has pages" true (total > 0);
  let heap = Address_space.heap m in
  let present0 = Address_space.present_pages m in
  Address_space.dirty_range m a heap ~pos:0 ~len:10 ~value:1;
  check_int "present grew by 10" (present0 + 10) (Address_space.present_pages m);
  check_int "dirty 10" 10 (Address_space.dirty_pages m)

let test_poke_bypasses_protection_and_faults () =
  let m = fresh () in
  let heap = Address_space.heap m in
  Address_space.poke heap 5 77;
  check_int "data" 77 (Address_space.peek heap 5);
  check_bool "present" true (Bitmap.get heap.Vma.present 5);
  check_bool "marked dirty" true (Bitmap.get heap.Vma.soft_dirty 5)

(* -- Bulk page kernels -- *)

(* Mixed page states straddling word seams: some untouched, some present,
   some CoW-armed, tracking on. The batched kernels must agree with the
   retained scalar reference on bitmaps, data, and charged time. *)
let mixed_space () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  let bpw = Bitmap.bits_per_word in
  (* Page in a stretch crossing two word seams, then arm CoW on part of it
     and tracking on the whole space. *)
  Address_space.dirty_range m a heap ~pos:(bpw - 7) ~len:(bpw + 20) ~value:3;
  Address_space.arm_cow_all m;
  Address_space.clear_refs m;
  (* Untouched markers on a few pages (as a fork child would have). *)
  Bitmap.set heap.Vma.untouched (bpw - 7) true;
  Bitmap.set heap.Vma.untouched (bpw + 2) true;
  (m, heap)

let snapshot_vma (v : Vma.t) =
  ( Array.copy v.Vma.data,
    Bitmap.copy v.Vma.present,
    Bitmap.copy v.Vma.soft_dirty,
    Bitmap.copy v.Vma.cow_pending,
    Bitmap.copy v.Vma.untouched )

let check_vma_eq label (d, p, sd, cw, un) (v : Vma.t) =
  check_bool (label ^ ": data") true (d = v.Vma.data);
  check_bool (label ^ ": present") true (Bitmap.equal p v.Vma.present);
  check_bool (label ^ ": soft_dirty") true (Bitmap.equal sd v.Vma.soft_dirty);
  check_bool (label ^ ": cow_pending") true (Bitmap.equal cw v.Vma.cow_pending);
  check_bool (label ^ ": untouched") true (Bitmap.equal un v.Vma.untouched)

let test_bulk_dirty_matches_scalar () =
  let bpw = Bitmap.bits_per_word in
  let m1, h1 = mixed_space () in
  let m2, h2 = mixed_space () in
  let a1 = acct () and a2 = acct () in
  let pos = bpw - 10 and len = (2 * bpw) + 5 in
  Address_space.dirty_range m1 a1 h1 ~pos ~len ~value:9;
  Address_space.Scalar.dirty_range m2 a2 h2 ~pos ~len ~value:9;
  check_vma_eq "dirty" (snapshot_vma h2) h1;
  check_int "dirty: charged ns" (Account.total a2) (Account.total a1)

let test_bulk_read_matches_scalar () =
  let bpw = Bitmap.bits_per_word in
  let m1, h1 = mixed_space () in
  let m2, h2 = mixed_space () in
  let a1 = acct () and a2 = acct () in
  let pos = bpw - 10 and len = (2 * bpw) + 5 in
  Address_space.read_range m1 a1 h1 ~pos ~len;
  Address_space.Scalar.read_range m2 a2 h2 ~pos ~len;
  check_vma_eq "read" (snapshot_vma h2) h1;
  check_int "read: charged ns" (Account.total a2) (Account.total a1)

let test_bulk_dirty_with_hook_matches_scalar () =
  (* With a salvage hook installed, CoW-holding words take the scalar
     fallback: the hook must fire once per armed page, in page order, with
     the pre-write contents — identically in both implementations. *)
  let m1, h1 = mixed_space () in
  let m2, h2 = mixed_space () in
  let log1 = ref [] and log2 = ref [] in
  Address_space.set_cow_hook m1
    (Some (fun vma i -> log1 := (vma.Vma.id, i, Address_space.peek vma i) :: !log1));
  Address_space.set_cow_hook m2
    (Some (fun vma i -> log2 := (vma.Vma.id, i, Address_space.peek vma i) :: !log2));
  let a1 = acct () and a2 = acct () in
  let pos = Bitmap.bits_per_word - 10 and len = (2 * Bitmap.bits_per_word) + 5 in
  Address_space.dirty_range m1 a1 h1 ~pos ~len ~value:9;
  Address_space.Scalar.dirty_range m2 a2 h2 ~pos ~len ~value:9;
  check_vma_eq "hooked dirty" (snapshot_vma h2) h1;
  check_int "hooked dirty: charged ns" (Account.total a2) (Account.total a1);
  check_bool "hook fired" true (!log1 <> []);
  check_bool "hook logs identical (order and contents)" true (!log1 = !log2)

let test_bulk_zero_len_is_free () =
  let m, h = mixed_space () in
  let a = acct () in
  let before = snapshot_vma h in
  Address_space.dirty_range m a h ~pos:0 ~len:0 ~value:1;
  Address_space.read_range m a h ~pos:0 ~len:0;
  check_vma_eq "len=0 touches nothing" before h;
  check_int "len=0 charges nothing" 0 (Account.total a)

(* A range list: a bad slice of it raises before anything is applied;
   a range that raises leaves the ranges before it applied and charged,
   exactly as the same ranges as single calls would. *)
let test_range_list_slices () =
  let m1, h1 = mixed_space () in
  let m2, h2 = mixed_space () in
  let a1 = acct () and a2 = acct () in
  let ranges = [| 0; 5; 3; 9; 60; 8; 1000; 1 |] in
  let bad_slice = Invalid_argument "Address_space.dirty_ranges: range index out of bounds" in
  List.iter
    (fun (first, stop) ->
      Alcotest.check_raises (Printf.sprintf "slice %d..%d" first stop) bad_slice (fun () ->
          Address_space.dirty_ranges m1 a1 h1 ranges ~first ~stop ~value:4))
    [ (-1, 1); (2, 1); (0, 5) ];
  Alcotest.check_raises "read slice" (Invalid_argument "Address_space.read_ranges: range index out of bounds")
    (fun () -> Address_space.read_ranges m1 a1 h1 ranges ~first:0 ~stop:5);
  check_int "bad slices charge nothing" 0 (Account.total a1);
  let oob = Invalid_argument "Address_space.dirty_range: range out of bounds" in
  Alcotest.check_raises "fourth range" oob (fun () ->
      Address_space.dirty_ranges m1 a1 h1 ranges ~first:0 ~stop:4 ~value:4);
  Address_space.Scalar.dirty_range m2 a2 h2 ~pos:0 ~len:5 ~value:4;
  Address_space.Scalar.dirty_range m2 a2 h2 ~pos:3 ~len:9 ~value:4;
  Address_space.Scalar.dirty_range m2 a2 h2 ~pos:60 ~len:8 ~value:4;
  check_vma_eq "earlier ranges applied" (snapshot_vma h2) h1;
  check_int "earlier ranges charged" (Account.total a2) (Account.total a1)

let test_poke_and_zero_range () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:8 ~value:1;
  Address_space.arm_cow_all m;
  let src = Array.init 8 (fun i -> 100 + i) in
  Address_space.poke_range heap ~pos:2 ~len:4 ~src ~src_pos:1;
  check_int "blitted" 101 (Address_space.peek heap 2);
  check_int "blitted end" 104 (Address_space.peek heap 5);
  check_bool "present" true (Bitmap.get heap.Vma.present 3);
  check_bool "soft-dirty" true (Bitmap.get heap.Vma.soft_dirty 3);
  check_bool "cow cancelled" false (Bitmap.get heap.Vma.cow_pending 3);
  check_bool "outside still armed" true (Bitmap.get heap.Vma.cow_pending 0);
  Address_space.zero_range heap ~pos:2 ~len:2;
  check_int "zeroed" 0 (Address_space.peek heap 2);
  check_bool "zeroed page still present" true (Bitmap.get heap.Vma.present 2);
  Alcotest.check_raises "src oob"
    (Invalid_argument "Address_space.poke_range: source range out of bounds") (fun () ->
      Address_space.poke_range heap ~pos:0 ~len:8 ~src ~src_pos:4)

(* -- VMA index -- *)

let test_find_after_unmap_is_none () =
  let m = fresh () in
  let v = Address_space.map m ~n_pages:16 ~prot:Prot.rw Vma.Anon in
  let addr = v.Vma.start_addr + Vma.page_size in
  (* Make [v] the MRU entry, then unmap: the cursor must not serve stale
     hits. *)
  check_bool "found while mapped" true (Address_space.find_vma m addr <> None);
  Address_space.unmap m v;
  check_bool "gone after unmap" true (Address_space.find_vma m addr = None);
  check_bool "id gone too" true (Address_space.find_vma_by_id m v.Vma.id = None)

let test_mmap_cursor_gap_reuse () =
  (* Long-lived churn: before the fix the bump cursor grew monotonically
     and ran off the end of the mmap area after a few hundred large
     map/unmap cycles. Now freed ranges are reused once the cursor is
     exhausted. *)
  let m = fresh () in
  let stack = Address_space.stack m in
  for _ = 1 to 400 do
    let v = Address_space.map m ~n_pages:1_000_000 ~prot:Prot.rw Vma.Anon in
    check_bool "below stack" true (Vma.end_addr v <= stack.Vma.start_addr);
    check_int "count stable" 5 (Address_space.vma_count m);
    Address_space.unmap m v
  done;
  (* A handful of coexisting large maps still fit via distinct gaps. *)
  let keep =
    List.init 4 (fun _ -> Address_space.map m ~n_pages:1_000_000 ~prot:Prot.rw Vma.Anon)
  in
  let rec no_overlap = function
    | (a : Vma.t) :: rest ->
        List.for_all
          (fun (b : Vma.t) ->
            Vma.end_addr a <= b.Vma.start_addr || Vma.end_addr b <= a.Vma.start_addr)
          rest
        && no_overlap rest
    | [] -> true
  in
  check_bool "kept maps disjoint" true (no_overlap keep);
  List.iter (Address_space.unmap m) keep

(* -- CoW salvage hook (incremental snapshots) -- *)

let test_salvage_hook_paths () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:8 ~value:11;
  let extra = Address_space.map m ~n_pages:4 ~prot:Prot.rw Vma.Anon in
  Address_space.dirty_range m a extra ~pos:0 ~len:4 ~value:22;
  Address_space.arm_cow_all m;
  let saved = ref [] in
  Address_space.set_cow_hook m
    (Some (fun vma i -> saved := (vma.Vma.id, i, Address_space.peek vma i) :: !saved));
  (* Write path: fires once with the pre-write value. *)
  Address_space.write_page m a heap 0 99;
  check_bool "write salvages old value" true (List.mem (heap.Vma.id, 0, 11) !saved);
  Address_space.write_page m a heap 0 100;
  check_int "fires once per page" 1
    (List.length (List.filter (fun (_, i, _) -> i = 0) !saved));
  (* Madvise path. *)
  Address_space.madvise_dontneed m heap ~pos:1 ~len:1;
  check_bool "madvise salvages" true (List.mem (heap.Vma.id, 1, 11) !saved);
  (* brk-shrink path. *)
  let heap_pages = heap.Vma.n_pages in
  Address_space.set_brk m (Address_space.brk m - ((heap_pages - 4) * Vma.page_size));
  check_bool "brk shrink salvages dropped armed pages" true
    (List.exists (fun (id, i, _) -> id = heap.Vma.id && i >= 4) !saved);
  (* Unmap path. *)
  Address_space.unmap m extra;
  check_bool "unmap salvages" true (List.mem (extra.Vma.id, 3, 22) !saved);
  (* Detached hook stays silent. *)
  Address_space.set_cow_hook m None;
  let before = List.length !saved in
  Address_space.write_page m a heap 2 7;
  check_int "no hook, no salvage" before (List.length !saved)

let test_fork_child_has_no_hook () =
  let m = fresh () in
  let a = acct () in
  let heap = Address_space.heap m in
  Address_space.dirty_range m a heap ~pos:0 ~len:4 ~value:5;
  Address_space.arm_cow_all m;
  let fired = ref 0 in
  Address_space.set_cow_hook m (Some (fun _ _ -> incr fired));
  let child = Address_space.clone_cow m in
  Address_space.write_page child (acct ()) (Address_space.heap child) 0 9;
  check_int "child CoW does not fire the parent's hook" 0 !fired

let () =
  Alcotest.run "gh_mem"
    [
      ( "bitmap",
        [
          Alcotest.test_case "basics" `Quick test_bitmap_basics;
          Alcotest.test_case "resize" `Quick test_bitmap_resize;
          Alcotest.test_case "fold_runs" `Quick test_bitmap_runs;
          Alcotest.test_case "iter_set" `Quick test_bitmap_iter_set;
          Alcotest.test_case "word boundaries" `Quick test_bitmap_word_boundaries;
          Alcotest.test_case "set_range" `Quick test_bitmap_set_range;
          Alcotest.test_case "bounds checked" `Quick test_bitmap_bounds_checked;
          Alcotest.test_case "word-level ops" `Quick test_bitmap_word_ops;
          Alcotest.test_case "ctz matches a naive scan" `Quick test_bitmap_ctz;
          QCheck_alcotest.to_alcotest bitmap_differential;
        ] );
      ("prot", [ Alcotest.test_case "flags" `Quick test_prot ]);
      ( "vma",
        [
          Alcotest.test_case "geometry" `Quick test_vma_geometry;
          Alcotest.test_case "resize preserves prefix" `Quick test_vma_resize_preserves_prefix;
          Alcotest.test_case "clone cow" `Quick test_vma_clone_cow;
          Alcotest.test_case "resize against a model, slack zero" `Quick test_vma_resize_model;
          Alcotest.test_case "recycled VMA raises" `Quick test_vma_recycled_raises;
          Alcotest.test_case "unaligned raises" `Quick test_vma_unaligned_raises;
          Alcotest.test_case "blit_pages copies and checks ranges" `Quick test_vma_blit_pages;
        ] );
      ( "layout",
        [
          Alcotest.test_case "initial layout" `Quick test_as_initial_layout;
          Alcotest.test_case "no initial overlap" `Quick test_as_no_initial_overlap;
          Alcotest.test_case "map/unmap" `Quick test_as_map_unmap;
          Alcotest.test_case "map_at overlap rejected" `Quick test_as_map_at_overlap_rejected;
          Alcotest.test_case "brk" `Quick test_as_brk;
          Alcotest.test_case "madvise" `Quick test_as_madvise;
          Alcotest.test_case "resize collision" `Quick test_as_resize_collision;
          Alcotest.test_case "find after unmap" `Quick test_find_after_unmap_is_none;
          Alcotest.test_case "mmap cursor gap reuse" `Quick test_mmap_cursor_gap_reuse;
        ] );
      ( "bulk-kernels",
        [
          Alcotest.test_case "dirty_range matches scalar" `Quick test_bulk_dirty_matches_scalar;
          Alcotest.test_case "read_range matches scalar" `Quick test_bulk_read_matches_scalar;
          Alcotest.test_case "CoW-hook fallback matches scalar" `Quick
            test_bulk_dirty_with_hook_matches_scalar;
          Alcotest.test_case "len=0 is free" `Quick test_bulk_zero_len_is_free;
          Alcotest.test_case "range lists: slices and partial failure" `Quick
            test_range_list_slices;
          Alcotest.test_case "poke_range / zero_range" `Quick test_poke_and_zero_range;
        ] );
      ( "faults",
        [
          Alcotest.test_case "demand-zero charged once" `Quick test_demand_zero_charged_once;
          Alcotest.test_case "read fault marks new PTE soft-dirty" `Quick
            test_read_fault_marks_new_pte_soft_dirty;
          Alcotest.test_case "SD re-arm only after clear_refs" `Quick
            test_sd_rearm_fault_only_after_clear_refs;
          Alcotest.test_case "fault granularity (THP)" `Quick test_fault_granularity_divides_faults;
          Alcotest.test_case "CoW and first-touch in clone" `Quick test_cow_and_first_touch_in_clone;
          Alcotest.test_case "clone is deep" `Quick test_clone_is_deep;
          Alcotest.test_case "arm_cow_all" `Quick test_arm_cow_all;
          Alcotest.test_case "write protection" `Quick test_write_protection_enforced;
          Alcotest.test_case "segfault on unmapped" `Quick test_segfault_on_unmapped;
          Alcotest.test_case "address access roundtrip" `Quick test_addr_access_roundtrip;
          Alcotest.test_case "statistics" `Quick test_stats_counts;
          Alcotest.test_case "poke/peek" `Quick test_poke_bypasses_protection_and_faults;
        ] );
      ( "salvage-hook",
        [
          Alcotest.test_case "all paths fire" `Quick test_salvage_hook_paths;
          Alcotest.test_case "fork child detached" `Quick test_fork_child_has_no_hook;
        ] );
    ]
