(* Snapshot integrity end to end: content-hash scrubbing, restore-time
   verification, and dedup-aware blast radius. Unit tests cover the
   detection paths (bitflip in the stored buffer, skipped restore writes,
   a corrupted shared block poisoning every sharer); qcheck properties
   pin the scrubber's completeness (any single stored-word flip is found,
   and located exactly) and its soundness (clean snapshots never accuse). *)

module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Prot = Gh_mem.Prot
module Process = Gh_proc.Process
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fault = Gh_sim.Fault
module Cost = Gh_kernel.Cost
module Intf = Gh_faas.Strategy_intf
module Registry = Gh_isolation.Registry
open Groundhog_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cost = Cost.default
let acct () = Account.create ()

let fresh () = Process.create ~mem:(As.create ~cost ()) ~n_threads:2 ()

(* Seed-determined warm-up: dirty a few heap pages and a private arena so
   the snapshot stores non-trivial, non-zero content. *)
let warm ?(seed = 7) p =
  let a = acct () in
  let heap = As.heap p.Process.mem in
  As.dirty_range p.Process.mem a heap ~pos:0 ~len:24 ~value:(seed lor 1);
  let arena = Process.sys_mmap p a ~n_pages:16 ~prot:Prot.rw Vma.Anon in
  As.dirty_range p.Process.mem a arena ~pos:0 ~len:12 ~value:(seed lxor 0x55)

let spec =
  (Option.get (Gh_workloads.Catalog.find "deltablue (p)")).Gh_workloads.Catalog.spec

let principals =
  [| Gh_faas.Principal.make ~id:1 ~name:"alice"; Gh_faas.Principal.make ~id:2 ~name:"bob" |]

let request i =
  Gh_faas.Request.make ~id:i
    ~principal:principals.(i land 1)
    ~input_kb:spec.Gh_faas.Function_model.input_kb ()

(* -- Snapshot.make: the start address is a region's identity -- *)

let test_duplicate_start_rejected () =
  let p = fresh () in
  warm p;
  let snap = Snapshot.capture_exn (acct ()) p in
  let dup = List.hd snap.Snapshot.regions in
  Alcotest.check_raises "duplicate start address is a hard error"
    (Invalid_argument
       (Printf.sprintf "Snapshot.make: duplicate region start address 0x%x"
          dup.Snapshot.start_addr))
    (fun () ->
      ignore
        (Snapshot.make ~brk:snap.Snapshot.brk ~regs:snap.Snapshot.regs
           ~regions:(dup :: snap.Snapshot.regions)
           ~present_pages:snap.Snapshot.present_pages
           ~capture_ns:snap.Snapshot.capture_ns))

(* -- Stored-side scrubbing -- *)

let test_clean_scrub () =
  let p = fresh () in
  warm p;
  let mgr = Manager.create p in
  let (_ : Gh_sim.Time_ns.t) = Manager.take_snapshot_exn mgr in
  let snap = Option.get (Manager.snapshot mgr) in
  let total = Snapshot.total_blocks snap in
  (match Manager.scrub mgr ~blocks:total with
  | `Checked (n, finished) ->
      check_int "one pass checks every block" total n;
      check_bool "pass reports finished" true finished
  | `Corrupt _ -> Alcotest.fail "clean snapshot accused of corruption"
  | `Skip -> Alcotest.fail "scrub skipped a healthy snapshot");
  (* The cursor wraps: a second full pass re-checks from the start. *)
  (match Manager.scrub mgr ~blocks:total with
  | `Checked (n, true) -> check_int "second pass re-checks every block" total n
  | _ -> Alcotest.fail "second pass did not complete cleanly");
  check_int "blocks tallied" (2 * total) (Manager.scrubbed_blocks mgr);
  check_bool "modeled cost tallied, off the account" true (Manager.scrub_ns mgr > 0)

let test_bitflip_detected () =
  let p = fresh () in
  warm p;
  let mgr = Manager.create p in
  let (_ : Gh_sim.Time_ns.t) = Manager.take_snapshot_exn mgr in
  let snap = Option.get (Manager.snapshot mgr) in
  (* Flip one bit of one stored word — the heap region, word 3. *)
  let region =
    List.find
      (fun (r : Snapshot.region) -> Array.length r.Snapshot.data > 3)
      snap.Snapshot.regions
  in
  region.Snapshot.data.(3) <- region.Snapshot.data.(3) lxor (1 lsl 17);
  (match Manager.scrub mgr ~blocks:(Snapshot.total_blocks snap) with
  | `Corrupt c ->
      check_int "corruption located in the flipped region" region.Snapshot.start_addr
        c.Snapshot.region_addr;
      check_int "corruption located in the flipped block" (3 / Snapshot.block_pages)
        c.Snapshot.block
  | `Checked _ -> Alcotest.fail "scrub missed a stored-buffer bitflip"
  | `Skip -> Alcotest.fail "scrub skipped");
  check_bool "manager poisoned" true (Manager.status mgr = Manager.Poisoned);
  (match Manager.restore mgr with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore served from a poisoned snapshot");
  match Manager.scrub mgr ~blocks:1 with
  | `Skip -> ()
  | _ -> Alcotest.fail "poisoned manager kept scrubbing"

(* -- Restore-time verification: the store is fine, the writes are not -- *)

let test_verify_catches_restore_skip () =
  let fault = Fault.create ~seed:11 in
  Fault.set fault Fault.Restore_skip ~prob:1.0 ();
  let strategy, state =
    Gh_isolation.Gh.make_with_state ~verify:Manager.Verify_full ~fault
      ~rng:(Rng.create 42) spec
  in
  let failures = ref 0 in
  (* Alternating principals force a real restore after every request; the
     first audit failure poisons the strategy, so stop at the detection
     (past it, invoking a poisoned container is the platform's job). *)
  let rec go i =
    if i <= 6 then
      let inv = strategy.Intf.invoke (request i) in
      match inv.Intf.verify with
      | Intf.Verify_failed _ -> incr failures
      | _ -> go (i + 1)
  in
  go 1;
  check_bool "full verification caught the skipped restore writes" true (!failures > 0);
  let mgr = Gh_isolation.Gh.manager state in
  check_bool "audit failure poisoned the manager" true
    (Manager.status mgr = Manager.Poisoned);
  (* The store itself is intact — restore-skip damages only the process
     image — so the stored-side scrubber has nothing to find and the
     damage is invisible without restore-time verification. *)
  let snap = Option.get (Manager.snapshot mgr) in
  check_bool "stored snapshot still hashes clean" true (Snapshot.self_check snap = None)

let test_verify_off_serves_corrupt () =
  let fault = Fault.create ~seed:11 in
  Fault.set fault Fault.Restore_skip ~prob:1.0 ();
  let strategy, _state =
    Gh_isolation.Gh.make_with_state ~verify:Manager.Verify_off ~fault
      ~rng:(Rng.create 42) spec
  in
  let corrupt_serves = ref 0 in
  for i = 1 to 6 do
    (match strategy.Intf.audit () with
    | Some (`Corrupt _) -> incr corrupt_serves
    | _ -> ());
    ignore (strategy.Intf.invoke (request i))
  done;
  check_bool "without verification the oracle sees corrupted dispatches" true
    (!corrupt_serves > 0)

(* Blocks whose reference is the all-zero hash are audited by testing the
   restored words for zero, not by hashing them. One nonzero word at any
   position of such a block — the short last block of a region included —
   must be reported at exactly that region and block. *)
let test_zero_reference_audit () =
  let p = fresh () in
  warm p;
  let snap = Snapshot.capture_exn (acct ()) p in
  ignore (Restore.run_exn (acct ()) snap p);
  (match Verify.audit_hashes snap p with
  | Ok n -> check_int "every block audited" (Snapshot.total_blocks snap) n
  | Error c -> Alcotest.failf "clean restore accused: %a" Snapshot.pp_corruption c);
  let short_blocks = ref 0 and probes = ref 0 in
  List.iter
    (fun (r : Snapshot.region) ->
      let vma = Option.get (As.find_vma p.Process.mem r.Snapshot.start_addr) in
      for b = 0 to Snapshot.region_blocks r - 1 do
        let len = Snapshot.block_len r b in
        if Snapshot.block_hash r b = Snapshot.zero_block_hash len then begin
          if len < Snapshot.block_pages then incr short_blocks;
          for k = 0 to len - 1 do
            let i = (b * Snapshot.block_pages) + k in
            vma.Vma.data.(i) <- 1 lsl (k mod 62);
            (match Verify.audit_hashes snap p with
            | Ok _ -> Alcotest.failf "nonzero word at page %d of a zero block passed" i
            | Error c ->
                check_int "region located" r.Snapshot.start_addr c.Snapshot.region_addr;
                check_int "block located" b c.Snapshot.block);
            vma.Vma.data.(i) <- 0;
            incr probes
          done
        end
      done)
    snap.Snapshot.regions;
  check_bool "some zero-reference block is a short last block" true (!short_blocks > 0);
  check_bool "probed every page of the zero blocks" true (!probes > Snapshot.block_pages);
  check_bool "restored image audits clean again" true
    (Result.is_ok (Verify.audit_hashes snap p))

(* -- Cross-container dedup: savings and blast radius -- *)

(* A registry strategy with full restore audits; a failed build fails the
   test. *)
let build ?fault ?dedup ~rng id =
  match Registry.make id ?fault ~verify:Manager.Verify_full ?dedup ~rng spec with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

(* Two sharers of one dedup index: [a] is GH (with [fault] attached), [b]
   is [b_id]. *)
let make_dedup_pair ?fault ?(b_id = Registry.Gh) () =
  let dedup = Dedup.create () in
  let root = Rng.create 42 in
  let a = build ?fault ~dedup ~rng:(Rng.named_split root "a") Registry.Gh in
  let b = build ~dedup ~rng:(Rng.named_split root "b") b_id in
  (dedup, a, b)

let test_dedup_savings () =
  let dedup, a, b = make_dedup_pair () in
  check_int "both snapshots registered" 2 (Dedup.registrations dedup);
  check_bool "identical warm states share blocks" true (Dedup.shared_blocks dedup > 0);
  check_bool "sharing saves stored pages" true (Dedup.saved_pages dedup > 0);
  check_bool "second holder charged less than the first" true
    (b.Intf.snapshot_pages () < a.Intf.snapshot_pages ());
  check_bool "the index itself scrubs clean" true (Dedup.scrub_index dedup = None)

let test_dedup_blast_radius () =
  let dedup, a, b = make_dedup_pair () in
  (* A bitflip in the physically shared store: one canonical copy, written
     through every holder's stored region. *)
  let holders = Option.get (Dedup.corrupt_shared dedup 0) in
  (* One entry per stored location of the canonical content — at least
     one per sharer (the same content may recur within one snapshot). *)
  check_bool "every sharer's stored copy is hit" true (List.length holders >= 2);
  check_bool "the index scrub sees the damage" true (Dedup.scrub_index dedup <> None);
  (* Either sharer's own scrubber finds its copy corrupt... *)
  (match a.Intf.scrub max_int with
  | Intf.Scrub_corrupt _ -> ()
  | _ -> Alcotest.fail "sharer A's scrub missed the shared-block corruption");
  (* ...and detection blasts the *other* sharer: B is poisoned without
     ever having scrubbed or restored — it holds the same bytes. *)
  (match b.Intf.status () with
  | Some `Poisoned -> ()
  | Some _ -> Alcotest.fail "sharer B not poisoned by the blast"
  | None -> Alcotest.fail "GH strategy reports no manager status");
  match b.Intf.scrub max_int with
  | Intf.Scrub_skip -> ()
  | _ -> Alcotest.fail "poisoned sharer kept scrubbing"

let test_dedup_twins_restore_identically () =
  let _dedup, a, b = make_dedup_pair () in
  (* Dedup changes accounting, not bytes: both sharers keep restoring
     byte-identically under full hash verification. *)
  for i = 1 to 8 do
    let ia = a.Intf.invoke (request i) and ib = b.Intf.invoke (request i) in
    (match ia.Intf.verify with
    | Intf.Verify_failed why -> Alcotest.failf "sharer A verify failed: %s" why
    | _ -> ());
    match ib.Intf.verify with
    | Intf.Verify_failed why -> Alcotest.failf "sharer B verify failed: %s" why
    | _ -> ()
  done

let status_name (s : Intf.t) =
  match s.Intf.status () with
  | Some `Clean -> "clean"
  | Some `Dirty -> "dirty"
  | Some `Restoring -> "restoring"
  | Some `Poisoned -> "poisoned"
  | None -> "none"

(* Corrupt shared canonical copies one at a time (flipping each miss back)
   until [detector]'s post-request restore copies the damaged block into
   its process and the restore audit catches it. Only copies whose holders
   satisfy [wanted] (default: all) are tried. *)
let corrupt_until_audit_fails ?(wanted = fun _ -> true) dedup (detector : Intf.t) =
  let rec go n req =
    match Dedup.corrupt_shared dedup n with
    | None -> Alcotest.fail "no corrupted shared block was ever restored and audited"
    | Some holders when not (wanted holders) ->
        ignore (Dedup.corrupt_shared dedup n);
        go (n + 1) req
    | Some _ -> (
        match (detector.Intf.invoke (request req)).Intf.verify with
        | Intf.Verify_failed _ -> ()
        | Intf.Verified _ | Intf.Unverified ->
            ignore (Dedup.corrupt_shared dedup n);
            go (n + 1) (req + 1))
  in
  go 0 1

let test_audit_blast_poisons_sharer () =
  let dedup, a, b = make_dedup_pair () in
  corrupt_until_audit_fails dedup a;
  Alcotest.(check string) "the detector poisoned itself" "poisoned" (status_name a);
  (* B never restored: the audit's blast is what reached it. *)
  Alcotest.(check string) "the restore audit blasted the other sharer" "poisoned"
    (status_name b)

let test_audit_blast_crosses_strategies () =
  let dedup, gh, gh_nop = make_dedup_pair ~b_id:Registry.Gh_nop () in
  check_bool "GH and GH-NOP share blocks" true (Dedup.shared_blocks dedup > 0);
  corrupt_until_audit_fails dedup gh ~wanted:(fun h ->
      List.exists (fun (o, _, _) -> o = "gh") h
      && List.exists (fun (o, _, _) -> o = "gh-nop") h);
  Alcotest.(check string) "GH poisoned by its audit" "poisoned" (status_name gh);
  Alcotest.(check string) "GH's audit blasted the GH-NOP sharer" "poisoned"
    (status_name gh_nop);
  match gh_nop.Intf.scrub max_int with
  | Intf.Scrub_skip -> ()
  | _ -> Alcotest.fail "blasted GH-NOP kept scrubbing"

(* A restore-skip damages the restored process, not the stored block: the
   audit poisons the detector alone and the other sharer keeps serving. *)
let test_restore_skip_blasts_nothing () =
  let fault = Fault.create ~seed:11 in
  Fault.set fault Fault.Restore_skip ~prob:1.0 ();
  let dedup, a, b = make_dedup_pair ~fault () in
  check_bool "the pair shares blocks" true (Dedup.shared_blocks dedup > 0);
  let rec go i =
    if i > 6 then Alcotest.fail "full verification never caught the skipped writes"
    else
      match (a.Intf.invoke (request i)).Intf.verify with
      | Intf.Verify_failed _ -> ()
      | _ -> go (i + 1)
  in
  go 1;
  Alcotest.(check string) "the audit poisoned the skipping sharer" "poisoned" (status_name a);
  Alcotest.(check string) "the intact store blasted nobody" "clean" (status_name b);
  match (b.Intf.invoke (request 1)).Intf.verify with
  | Intf.Verified n -> check_bool "the other sharer still restores and audits" true (n > 0)
  | Intf.Verify_failed why -> Alcotest.failf "the other sharer's audit failed: %s" why
  | Intf.Unverified -> Alcotest.fail "the other sharer's restore went unaudited"

(* [kill] poisons the manager and takes its snapshot out of the index. *)
let test_kill_leaves_index () =
  let dedup, gh, gh_nop = make_dedup_pair ~b_id:Registry.Gh_nop () in
  check_bool "the pair shares blocks" true (Dedup.shared_blocks dedup > 0);
  gh_nop.Intf.kill ();
  Alcotest.(check string) "killed GH-NOP is poisoned" "poisoned" (status_name gh_nop);
  Alcotest.(check string) "the survivor is untouched" "clean" (status_name gh);
  (* Content GH stores twice stays shared with itself; no shared copy may
     still list the killed GH-NOP (each probe flip is flipped back). *)
  let rec owners n acc =
    match Dedup.corrupt_shared dedup n with
    | None -> acc
    | Some holders ->
        ignore (Dedup.corrupt_shared dedup n);
        owners (n + 1) (List.map (fun (o, _, _) -> o) holders @ acc)
  in
  check_bool "no shared block lists the killed sharer" false
    (List.mem "gh-nop" (owners 0 []));
  gh.Intf.kill ();
  Alcotest.(check string) "killed GH is poisoned" "poisoned" (status_name gh);
  check_int "no shared blocks remain" 0 (Dedup.shared_blocks dedup);
  check_int "no blocks remain" 0 (Dedup.unique_blocks dedup);
  check_bool "corrupt_shared finds none" true (Dedup.corrupt_shared dedup 0 = None);
  (* Idempotent: a second kill changes nothing. *)
  gh.Intf.kill ();
  Alcotest.(check string) "still poisoned" "poisoned" (status_name gh)

(* CRIU's ground-truth oracle judges only an image its restore produced,
   and its restore audit reports the blocks it checked. *)
let test_criu_oracle_and_audit () =
  let criu = build ~rng:(Rng.create 42) Registry.Criu in
  check_bool "no oracle before the first restore" true (criu.Intf.audit () = None);
  let inv = criu.Intf.invoke (request 1) in
  check_bool "the request completed" true (inv.Intf.outcome = Intf.Completed);
  (match inv.Intf.verify with
  | Intf.Verified n -> check_bool "full audit checked blocks" true (n > 0)
  | Intf.Verify_failed why -> Alcotest.failf "clean CRIU restore failed its audit: %s" why
  | Intf.Unverified -> Alcotest.fail "CRIU restore went unaudited under Verify_full");
  check_bool "oracle sees an intact restored image" true (criu.Intf.audit () = Some `Intact)

(* -- qcheck: scrubber completeness and soundness -- *)

(* Build a seed-determined snapshot; return it with its manager. *)
let snapshot_of_seed seed =
  let p = fresh () in
  warm ~seed p;
  let mgr = Manager.create p in
  let (_ : Gh_sim.Time_ns.t) = Manager.take_snapshot_exn mgr in
  (mgr, Option.get (Manager.snapshot mgr))

let prop_scrub_finds_any_flip =
  QCheck2.Test.make ~name:"scrub finds (and locates) any single stored-word flip"
    ~count:200
    QCheck2.Gen.(triple (int_range 1 10_000) nat (int_range 0 62))
    (fun (seed, pick, bit) ->
      let _mgr, snap = snapshot_of_seed seed in
      let regions =
        List.filter
          (fun (r : Snapshot.region) -> Array.length r.Snapshot.data > 0)
          snap.Snapshot.regions
      in
      let region = List.nth regions (pick mod List.length regions) in
      let w = pick mod Array.length region.Snapshot.data in
      region.Snapshot.data.(w) <- region.Snapshot.data.(w) lxor (1 lsl bit);
      match Snapshot.self_check snap with
      | None -> QCheck2.Test.fail_report "flip went undetected"
      | Some c ->
          c.Snapshot.region_addr = region.Snapshot.start_addr
          && c.Snapshot.block = w / Snapshot.block_pages)

let prop_scrub_no_false_positives =
  QCheck2.Test.make ~name:"clean snapshots never accused (even as the process moves on)"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 1 30))
    (fun (seed, extra) ->
      let mgr, snap = snapshot_of_seed seed in
      (* Mutate the live process after capture: the stored buffer is
         untouched, so the scrubber must stay silent. *)
      let p = Manager.process mgr in
      As.dirty_range p.Process.mem (acct ()) (As.heap p.Process.mem) ~pos:0 ~len:extra
        ~value:(seed * 31);
      Snapshot.self_check snap = None
      && match Manager.scrub mgr ~blocks:max_int with `Checked _ -> true | _ -> false)

let prop_dedup_register_preserves_store =
  QCheck2.Test.make ~name:"registering twins in a dedup index leaves both stores clean"
    ~count:50
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let dedup = Dedup.create () in
      let _m1, s1 = snapshot_of_seed seed in
      let _m2, s2 = snapshot_of_seed seed in
      let (_ : Dedup.sharer) =
        Dedup.register dedup ~owner:"p1" ~on_corrupt:(fun _ -> ()) s1
      in
      let (_ : Dedup.sharer) =
        Dedup.register dedup ~owner:"p2" ~on_corrupt:(fun _ -> ()) s2
      in
      Dedup.shared_blocks dedup > 0
      && Dedup.scrub_index dedup = None
      && Snapshot.self_check s1 = None
      && Snapshot.self_check s2 = None)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(* The four-lane block hash keeps the single-word guarantee: for every
   block length and every position, replacing that one word (by a
   one-bit flip, a sign flip, or zero) changes the hash. The hash is a
   function of the contents alone, and [zero_block_hash] agrees with it
   on every length. *)
let test_hash_words () =
  let bp = Snapshot.block_pages in
  let rng = Rng.create 5 in
  let base = Array.init (bp + 8) (fun _ -> Int64.to_int (Rng.bits64 rng)) in
  for len = 0 to bp do
    let h = Snapshot.hash_words base ~pos:0 ~len in
    for i = 0 to len - 1 do
      List.iter
        (fun x ->
          if x <> base.(i) then begin
            let d = Array.copy base in
            d.(i) <- x;
            if Snapshot.hash_words d ~pos:0 ~len = h then
              Alcotest.failf "len %d: replacing word %d by %x keeps the hash" len i x
          end)
        [ base.(i) lxor (1 lsl (i mod 62)); base.(i) lxor min_int; lnot base.(i); 0 ]
    done;
    for off = 1 to 8 do
      let shifted = Array.make (bp + 16) 0 in
      Array.blit base 0 shifted off len;
      check_int
        (Printf.sprintf "len %d at offset %d" len off)
        h
        (Snapshot.hash_words shifted ~pos:off ~len)
    done;
    check_int
      (Printf.sprintf "zero_block_hash %d" len)
      (Snapshot.hash_words (Array.make bp 0) ~pos:0 ~len)
      (Snapshot.zero_block_hash len)
  done;
  check_bool "length is hashed" true
    (Snapshot.zero_block_hash 3 <> Snapshot.zero_block_hash 4)

let () =
  Alcotest.run "scrub"
    [
      ( "snapshot-identity",
        [ Alcotest.test_case "duplicate start addr rejected" `Quick test_duplicate_start_rejected ] );
      ( "scrubbing",
        [
          Alcotest.test_case "block hash: single-word changes, offsets, zero hashes" `Quick
            test_hash_words;
          Alcotest.test_case "clean snapshot scrubs clean" `Quick test_clean_scrub;
          Alcotest.test_case "stored bitflip detected and poisons" `Quick test_bitflip_detected;
        ] );
      ( "verification",
        [
          Alcotest.test_case "full verify catches restore-skip" `Quick
            test_verify_catches_restore_skip;
          Alcotest.test_case "verify off serves corrupt (oracle)" `Quick
            test_verify_off_serves_corrupt;
          Alcotest.test_case "zero-reference blocks audited word by word" `Quick
            test_zero_reference_audit;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "sharing saves pages, index scrubs clean" `Quick
            test_dedup_savings;
          Alcotest.test_case "corrupt shared block poisons all sharers" `Quick
            test_dedup_blast_radius;
          Alcotest.test_case "twins restore byte-identically" `Quick
            test_dedup_twins_restore_identically;
          Alcotest.test_case "restore audit of a corrupt shared block poisons the sharer"
            `Quick test_audit_blast_poisons_sharer;
          Alcotest.test_case "GH audit blast reaches a GH-NOP sharer" `Quick
            test_audit_blast_crosses_strategies;
          Alcotest.test_case "restore-skip caught by the audit blasts nothing" `Quick
            test_restore_skip_blasts_nothing;
          Alcotest.test_case "killed sharers leave the index" `Quick test_kill_leaves_index;
          Alcotest.test_case "CRIU oracle and restore audit" `Quick
            test_criu_oracle_and_audit;
        ] );
      ( "properties",
        qcheck
          [
            prop_scrub_finds_any_flip;
            prop_scrub_no_false_positives;
            prop_dedup_register_preserves_store;
          ] );
    ]
