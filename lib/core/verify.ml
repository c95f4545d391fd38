module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Bitmap = Gh_mem.Bitmap
module Process = Gh_proc.Process
module Thread = Gh_proc.Thread
module Registers = Gh_proc.Registers

type mismatch = { what : string; where : string }

let fail what where = Error { what; where }

let check_region (snap : Snapshot.region) (vma : Vma.t) =
  let where = Printf.sprintf "region %x" snap.Snapshot.start_addr in
  if vma.Vma.n_pages <> snap.Snapshot.n_pages then fail "region size" where
  else if not (Gh_mem.Prot.equal vma.Vma.prot snap.Snapshot.prot) then fail "protection" where
  else begin
    (* Presence first, word-wise; then the page contents. *)
    match Bitmap.first_diff vma.Vma.present snap.Snapshot.present with
    | Some i ->
        fail "presence" (Printf.sprintf "region %x page %d" snap.Snapshot.start_addr i)
    | None ->
        let result = ref (Ok ()) in
        (try
           for i = 0 to snap.Snapshot.n_pages - 1 do
             if vma.Vma.data.(i) <> snap.Snapshot.data.(i) then begin
               result :=
                 fail "page content"
                   (Printf.sprintf "region %x page %d" snap.Snapshot.start_addr i);
               raise Exit
             end
           done
         with Exit -> ());
        !result
  end

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let rec check_regions snap_regions vmas =
  match (snap_regions, vmas) with
  | [], [] -> Ok ()
  | (snap : Snapshot.region) :: _, [] ->
      fail "region missing" (Printf.sprintf "region %x" snap.Snapshot.start_addr)
  | [], (vma : Vma.t) :: _ ->
      fail "extra region" (Printf.sprintf "region %x" vma.Vma.start_addr)
  | snap :: srest, vma :: vrest ->
      if snap.Snapshot.start_addr <> vma.Vma.start_addr then
        fail "region address" (Printf.sprintf "region %x vs %x" snap.Snapshot.start_addr vma.Vma.start_addr)
      else
        let* () = check_region snap vma in
        check_regions srest vrest

let check_threads (snapshot : Snapshot.t) (p : Process.t) =
  if List.length snapshot.Snapshot.regs <> Process.n_threads p then
    fail "thread count" (Printf.sprintf "%d threads" (Process.n_threads p))
  else begin
    let rec go = function
      | [] -> Ok ()
      | (tid, regs) :: rest -> begin
          match Process.find_thread p tid with
          | None -> fail "thread missing" (Printf.sprintf "tid %d" tid)
          | Some th ->
              if not (Registers.equal th.Thread.regs regs) then
                fail "registers" (Printf.sprintf "tid %d" tid)
              else go rest
        end
    in
    go snapshot.Snapshot.regs
  end

let state_matches (snapshot : Snapshot.t) (p : Process.t) =
  let* () =
    if As.brk p.Process.mem = snapshot.Snapshot.brk then Ok ()
    else fail "brk" (Printf.sprintf "%x vs %x" (As.brk p.Process.mem) snapshot.Snapshot.brk)
  in
  let* () = check_regions snapshot.Snapshot.regions (As.vmas p.Process.mem) in
  check_threads snapshot p

let pp_mismatch ppf m = Format.fprintf ppf "%s at %s" m.what m.where

(* Hash audit: re-hash the *restored process's* memory per block and
   compare against the snapshot's reference hashes. Where [state_matches]
   reads every snapshot word (a full second copy's worth of compares),
   the audit reads only the restored memory and 1 stored hash per block —
   and [stride]/[offset] let the manager rotate a sampled sweep across
   restores. Catches everything the block granularity can express:
   corrupted stored pages served by restore, torn captures, and restore
   runs that were silently skipped.

   A block whose reference is the all-zero hash of its length is checked
   by OR-reducing the restored words instead of hashing them, several
   times cheaper per word; most of a process's blocks are zero. That is
   at least as strict as the hash compare: it accepts only an all-zero
   block, which the hash compare accepts too, while the hash compare
   would also accept a nonzero block colliding with the zero hash. *)
let audit_hashes ?(stride = 1) ?(offset = 0) (snapshot : Snapshot.t) (p : Process.t) =
  if stride <= 0 then invalid_arg "Verify.audit_hashes: stride must be positive";
  let offset = ((offset mod stride) + stride) mod stride in
  let bp = Snapshot.block_pages in
  let checked = ref 0 in
  let bad = ref None in
  let corrupt (snap : Snapshot.region) block what =
    bad := Some { Snapshot.region_addr = snap.Snapshot.start_addr; block; what };
    raise Exit
  in
  (* Flat block index mod [stride], carried across regions. *)
  let phase = ref 0 in
  (try
     List.iter
       (fun (snap : Snapshot.region) ->
         let n = snap.Snapshot.n_pages in
         let nb = Snapshot.region_blocks snap in
         match As.find_vma p.Process.mem snap.Snapshot.start_addr with
         | None -> corrupt snap 0 "region missing from restored address space"
         | Some vma ->
             if vma.Vma.n_pages <> n || Array.length vma.Vma.data < n then
               corrupt snap 0 "restored region size mismatch";
             let data = vma.Vma.data in
             for b = 0 to nb - 1 do
               if !phase = offset then begin
                 let pos = b * bp in
                 let len = if n - pos < bp then n - pos else bp in
                 let reference = Snapshot.block_hash snap b in
                 let intact =
                   if reference = Snapshot.zero_block_hash len then begin
                     let acc = ref 0 in
                     for i = pos to pos + len - 1 do
                       acc := !acc lor Array.unsafe_get data i
                     done;
                     !acc = 0
                   end
                   else Snapshot.hash_words data ~pos ~len = reference
                 in
                 if not intact then corrupt snap b "restored block hash mismatch";
                 incr checked
               end;
               incr phase;
               if !phase = stride then phase := 0
             done)
       snapshot.Snapshot.regions
   with Exit -> ());
  match !bad with Some c -> Error c | None -> Ok !checked
