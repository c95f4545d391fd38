(* Content-addressed cross-container snapshot dedup (ROADMAP item 3).

   Containers of the same function reach near-identical warm states, so
   their eager snapshots store largely the same blocks. The index maps
   block-content hashes to one canonical copy; a sharer joining an
   existing entry is charged nothing for that block. The flip side is
   blast radius: one physical copy serving many containers means a
   corrupted shared block taints *every* sharer — [blast] models exactly
   that, pushing the corruption through each holder's stored region and
   notifying its owner so the fail-closed pipeline can poison them all. *)

module Bitmap = Gh_mem.Bitmap

type entry = {
  hash : int;
  words : int array;  (* canonical block content (guards hash collisions) *)
  pages : int;  (* present pages in the canonical block, for savings accounting *)
  mutable holders : (sharer * Snapshot.region * int) list;
}

and sharer = {
  owner : string;
  on_corrupt : Snapshot.corruption -> unit;
  snap : Snapshot.t;
  blocks : (int * int, entry) Hashtbl.t;  (* (region start, block) -> entry *)
  mutable charged : int;  (* present pages actually stored for this sharer *)
  mutable registered : bool;
}

type t = {
  index : (int, entry list) Hashtbl.t;  (* hash -> entries (collision list) *)
  mutable registrations : int;
}

let create () = { index = Hashtbl.create 256; registrations = 0 }

let block_equal words (r : Snapshot.region) pos len =
  Array.length words = len
  &&
  try
    for i = 0 to len - 1 do
      if words.(i) <> r.Snapshot.data.(pos + i) then raise Exit
    done;
    true
  with Exit -> false

(* Present pages within block [b]: block granularity equals the bitmap's
   word granularity, so this is one masked popcount. *)
let present_in_block (r : Snapshot.region) b len =
  Bitmap.popcount (Bitmap.word r.Snapshot.present b land Bitmap.mask ~pos:0 ~len)

let register t ~owner ~on_corrupt (snap : Snapshot.t) =
  let sharer =
    {
      owner;
      on_corrupt;
      snap;
      blocks = Hashtbl.create 64;
      charged = snap.Snapshot.present_pages;
      registered = true;
    }
  in
  List.iter
    (fun (r : Snapshot.region) ->
      for b = 0 to Snapshot.region_blocks r - 1 do
        let len = Snapshot.block_len r b in
        let pos = b * Snapshot.block_pages in
        let zmask = Bitmap.mask ~pos:0 ~len in
        (* All-zero blocks store no content (the zero map elides them
           already) — nothing to dedup, nothing to share. *)
        if Bitmap.word r.Snapshot.zeros b land zmask <> zmask then begin
          let hash = Snapshot.block_hash r b in
          let bucket =
            match Hashtbl.find_opt t.index hash with Some l -> l | None -> []
          in
          match List.find_opt (fun e -> block_equal e.words r pos len) bucket with
          | Some e ->
              (* Joined an existing canonical copy: this sharer stores
                 nothing for the block. *)
              e.holders <- (sharer, r, b) :: e.holders;
              Hashtbl.replace sharer.blocks (r.Snapshot.start_addr, b) e;
              sharer.charged <- sharer.charged - present_in_block r b len
          | None ->
              let e =
                {
                  hash;
                  words = Array.sub r.Snapshot.data pos len;
                  pages = present_in_block r b len;
                  holders = [ (sharer, r, b) ];
                }
              in
              Hashtbl.replace t.index hash (e :: bucket);
              Hashtbl.replace sharer.blocks (r.Snapshot.start_addr, b) e
        end
      done)
    snap.Snapshot.regions;
  t.registrations <- t.registrations + 1;
  sharer

let unregister t sharer =
  if sharer.registered then begin
    sharer.registered <- false;
    Hashtbl.iter
      (fun _ e ->
        e.holders <- List.filter (fun (h, _, _) -> h != sharer) e.holders;
        if e.holders = [] then
          let bucket = Hashtbl.find_opt t.index e.hash in
          match bucket with
          | None -> ()
          | Some l -> (
              match List.filter (fun e' -> e' != e) l with
              | [] -> Hashtbl.remove t.index e.hash
              | l' -> Hashtbl.replace t.index e.hash l'))
      sharer.blocks;
    Hashtbl.reset sharer.blocks
  end

let charged_pages sharer = sharer.charged

let fold_entries t ~init ~f =
  Hashtbl.fold (fun _ bucket acc -> List.fold_left f acc bucket) t.index init

let saved_pages t =
  fold_entries t ~init:0 ~f:(fun acc e ->
      acc + ((List.length e.holders - 1) * e.pages))

let unique_blocks t = fold_entries t ~init:0 ~f:(fun acc _ -> acc + 1)

let shared_blocks t =
  fold_entries t ~init:0 ~f:(fun acc e ->
      if List.length e.holders > 1 then acc + 1 else acc)

let blast t sharer ~region_addr ~block ~what =
  ignore t;
  match Hashtbl.find_opt sharer.blocks (region_addr, block) with
  | None -> 0  (* unshared (or all-zero) block: blast radius is the owner alone *)
  | Some e ->
      let others = List.filter (fun (h, _, _) -> h != sharer) e.holders in
      List.iter
        (fun (h, (r : Snapshot.region), b) ->
          h.on_corrupt { Snapshot.region_addr = r.Snapshot.start_addr; block = b; what })
        others;
      List.length others

(* Test / fault-modeling API: corrupt the [n]-th shared canonical copy.
   The index models ONE physical copy per entry, so the damage is written
   through every holder's stored region — exactly what a bitflip in a
   physically deduplicated store would do. Returns each holder's
   (owner, region, block) location so tests can assert the blast. *)
let corrupt_shared t n =
  let shared =
    fold_entries t ~init:[] ~f:(fun acc e ->
        if List.length e.holders > 1 then e :: acc else acc)
  in
  let shared = List.sort (fun a b -> compare a.hash b.hash) shared in
  match List.nth_opt shared n with
  | None -> None
  | Some e ->
      List.iter
        (fun (_, (r : Snapshot.region), b) ->
          let pos = b * Snapshot.block_pages in
          r.Snapshot.data.(pos) <- r.Snapshot.data.(pos) lxor 1)
        e.holders;
      Some
        (List.map
           (fun (h, (r : Snapshot.region), b) -> (h.owner, r.Snapshot.start_addr, b))
           e.holders)

(* Scrub the index itself: every canonical copy must still hash to its
   key, and every holder's stored block must still equal the canonical
   content (the model keeps per-holder arrays; physical dedup would make
   the second check vacuous). *)
let scrub_index t =
  let bad = ref None in
  (try
     Hashtbl.iter
       (fun hash bucket ->
         List.iter
           (fun e ->
             if
               Snapshot.hash_words e.words ~pos:0 ~len:(Array.length e.words) <> hash
             then begin
               bad :=
                 Some
                   {
                     Snapshot.region_addr = 0;
                     block = 0;
                     what = "dedup index: canonical block no longer matches its hash";
                   };
               raise Exit
             end;
             List.iter
               (fun (_, (r : Snapshot.region), b) ->
                 if not (block_equal e.words r (b * Snapshot.block_pages) (Array.length e.words))
                 then begin
                   bad :=
                     Some
                       {
                         Snapshot.region_addr = r.Snapshot.start_addr;
                         block = b;
                         what = "dedup index: holder diverged from canonical block";
                       };
                   raise Exit
                 end)
               e.holders)
           bucket)
       t.index
   with Exit -> ());
  !bad

let registrations t = t.registrations
