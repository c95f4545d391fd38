(* Unit tests for the isolation strategies: the security property (who
   leaks, who doesn't), the cost structure (who pays what, where), and the
   rollback policies. *)

module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Runtime = Gh_faas.Runtime
module Rng = Gh_sim.Rng
open Gh_isolation

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alice = Principal.make ~id:1 ~name:"alice"
let bob = Principal.make ~id:2 ~name:"bob"

(* A buggy function: copies residual foreign data into its response. *)
let buggy_spec ?(lang = Runtime.C) () =
  {
    Fm.default_spec with
    Fm.name = "buggy";
    lang;
    mapped_pages = 2_000;
    dirtied_pages = 64;
    read_pages = 300;
    buggy_residue_leak = true;
  }

let rng () = Rng.create 42

let alternate strat n =
  (* Alice then Bob, n rounds; return Bob's observed residues. *)
  let residues = ref [] in
  for i = 1 to n do
    let principal = if i mod 2 = 1 then alice else bob in
    let inv = strat.Intf.invoke (Request.make ~id:i ~principal ()) in
    if Principal.equal principal bob then
      residues := inv.Intf.response.Fm.residue @ !residues
  done;
  !residues

let test_base_leaks () =
  let strat = Base.make ~rng:(rng ()) (buggy_spec ()) in
  let residues = alternate strat 6 in
  check_bool "BASE leaks alice's data to bob" true
    (List.exists (Principal.owns_word alice) residues)

let test_gh_never_leaks () =
  let strat = Gh.make ~paranoid:true ~rng:(rng ()) (buggy_spec ()) in
  let residues = alternate strat 10 in
  check_int "GH: bob never observes residue" 0 (List.length residues)

let test_gh_nop_leaks () =
  let strat = Gh_nop.make ~rng:(rng ()) (buggy_spec ()) in
  let residues = alternate strat 6 in
  check_bool "GH_NOP (no restore) leaks like BASE" true
    (List.exists (Principal.owns_word alice) residues)

let test_fork_never_leaks () =
  match Fork_isolation.make ~rng:(rng ()) (buggy_spec ()) with
  | Error msg -> Alcotest.fail msg
  | Ok strat ->
      let residues = alternate strat 10 in
      check_int "FORK: bob never observes residue" 0 (List.length residues)

let test_faasm_never_leaks () =
  match Faasm.make ~rng:(rng ()) (buggy_spec ()) with
  | Error msg -> Alcotest.fail msg
  | Ok strat ->
      let residues = alternate strat 10 in
      check_int "FAASM: bob never observes residue" 0 (List.length residues)

let test_coldstart_never_leaks () =
  let strat = Coldstart.make ~rng:(rng ()) (buggy_spec ()) in
  let residues = alternate strat 8 in
  check_int "COLDSTART: bob never observes residue" 0 (List.length residues)

(* -- Support matrix -- *)

let test_fork_rejects_multithreaded () =
  match Fork_isolation.make ~rng:(rng ()) (buggy_spec ~lang:Runtime.Nodejs ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fork must reject Node.js"

let test_faasm_requires_wasm_port () =
  let spec = { (buggy_spec ()) with Fm.wasm_factor = None } in
  match Faasm.make ~rng:(rng ()) spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "faasm requires a wasm port"

let test_registry () =
  check_int "seven strategies" 7 (List.length Registry.all);
  List.iter
    (fun id ->
      match Registry.of_string (Registry.to_string id) with
      | Ok id' -> check_bool "roundtrip" true (id = id')
      | Error msg -> Alcotest.fail msg)
    Registry.all;
  (match Registry.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown name must fail");
  let node = buggy_spec ~lang:Runtime.Nodejs () in
  check_bool "fork unsupported on node" false (Registry.supports Registry.Fork node);
  check_bool "gh supported everywhere" true (Registry.supports Registry.Gh node);
  check_bool "faasm needs wasm" false
    (Registry.supports Registry.Faasm { node with Fm.wasm_factor = None })

(* -- Cost structure -- *)

let c_spec =
  {
    Fm.default_spec with
    Fm.name = "cost-probe";
    mapped_pages = 4_000;
    dirtied_pages = 512;
    read_pages = 1_000;
    exec_ns = Gh_sim.Time_ns.of_ms 2.0;
  }

let mean_on_path strat n =
  (* Skip the first two warm-up invocations, as the harness does. *)
  let total = ref 0 in
  for i = 1 to n + 2 do
    let inv = strat.Intf.invoke (Request.make ~id:i ~principal:alice ()) in
    if i > 2 then total := !total + inv.Intf.on_path_ns
  done;
  !total / n

let test_overhead_ordering () =
  let base = Base.make ~rng:(rng ()) c_spec in
  let gh = Gh.make ~rng:(rng ()) c_spec in
  let gh_nop = Gh_nop.make ~rng:(rng ()) c_spec in
  let fork = Result.get_ok (Fork_isolation.make ~rng:(rng ()) c_spec) in
  let b = mean_on_path base 8 in
  let g = mean_on_path gh 8 in
  let n = mean_on_path gh_nop 8 in
  let f = mean_on_path fork 8 in
  check_bool "GH costs more than BASE on path" true (g > b);
  check_bool "GH_NOP close to BASE (within 10%)" true
    (float_of_int (abs (n - b)) < 0.1 *. float_of_int b);
  check_bool "FORK costs more than GH on path" true (f > g)

let test_gh_restores_off_path () =
  let gh = Gh.make ~rng:(rng ()) c_spec in
  let inv = gh.Intf.invoke (Request.make ~id:1 ~principal:alice ()) in
  check_bool "restoration is deferred work" true (inv.Intf.post_ns > 0);
  check_bool "breakdown reported" true (inv.Intf.breakdown <> None);
  check_bool "isolated" true inv.Intf.isolated

let test_base_and_nop_have_no_post_work () =
  let base = Base.make ~rng:(rng ()) c_spec in
  let inv = base.Intf.invoke (Request.make ~id:1 ~principal:alice ()) in
  check_int "no deferred work" 0 inv.Intf.post_ns;
  check_bool "not isolated" false inv.Intf.isolated;
  let nop = Gh_nop.make ~rng:(rng ()) c_spec in
  let inv = nop.Intf.invoke (Request.make ~id:1 ~principal:alice ()) in
  check_int "nop: no deferred work" 0 inv.Intf.post_ns;
  check_bool "nop: not isolated" false inv.Intf.isolated

let test_coldstart_pays_init_on_path () =
  let base = Base.make ~rng:(rng ()) c_spec in
  let cold = Coldstart.make ~rng:(rng ()) c_spec in
  let b = mean_on_path base 4 in
  let c = mean_on_path cold 4 in
  check_bool "cold start dwarfs warm reuse" true (c > b + Gh_sim.Time_ns.of_ms 50.0)

let test_snapshot_pages_reporting () =
  let gh = Gh.make ~rng:(rng ()) c_spec in
  check_bool "GH holds a snapshot" true (gh.Intf.snapshot_pages () > 0);
  let base = Base.make ~rng:(rng ()) c_spec in
  check_int "BASE holds none" 0 (base.Intf.snapshot_pages ())

(* -- Interposition variants (§4.5) -- *)

let test_platform_signal_removes_copy_cost () =
  (* With a big payload, the §4.5 platform modification should shave the
     whole interposition copy off the critical path. *)
  let spec = { c_spec with Fm.input_kb = 200 } in
  let intercept = Gh.make ~rng:(rng ()) spec in
  let signal = Gh.make ~interposition:Gh.Platform_signal ~rng:(rng ()) spec in
  let mean_on_path strat n =
    let total = ref 0 in
    for i = 1 to n + 2 do
      let inv =
        strat.Intf.invoke
          (Request.make ~id:i ~principal:alice ~input_kb:spec.Fm.input_kb ())
      in
      if i > 2 then total := !total + inv.Intf.on_path_ns
    done;
    !total / n
  in
  let i = mean_on_path intercept 6 in
  let sg = mean_on_path signal 6 in
  let rt = Runtime.for_lang spec.Fm.lang in
  let copy =
    rt.Runtime.proxy_fixed_ns
    + ((spec.Fm.input_kb + spec.Fm.output_kb) * rt.Runtime.proxy_per_kb_ns)
  in
  check_bool "signal variant cheaper" true (sg < i);
  check_bool "saves roughly the copy cost" true
    (abs (i - sg - copy) < copy / 2)

let test_platform_signal_still_isolates () =
  let signal = Gh.make ~interposition:Gh.Platform_signal ~rng:(rng ()) (buggy_spec ()) in
  let residues = alternate signal 8 in
  check_int "no leaks without interception either" 0 (List.length residues)

(* -- Policy -- *)

let test_policy_rules () =
  let r1 = Request.make ~id:1 ~principal:alice () in
  let r2 = Request.make ~id:2 ~principal:alice () in
  let r3 = Request.make ~id:3 ~principal:bob () in
  check_bool "first request never needs restore" false
    (Policy.requires_restore Policy.Always_isolate ~prev:None ~next:r1);
  check_bool "always isolates" true
    (Policy.requires_restore Policy.Always_isolate ~prev:(Some r1) ~next:r2);
  check_bool "same principal trusted" false
    (Policy.requires_restore Policy.Trust_same_principal ~prev:(Some r1) ~next:r2);
  check_bool "cross principal not trusted" true
    (Policy.requires_restore Policy.Trust_same_principal ~prev:(Some r1) ~next:r3);
  check_bool "trust all never restores" false
    (Policy.requires_restore Policy.Trust_all ~prev:(Some r1) ~next:r3)

let test_gh_lookahead_skip () =
  let _, state =
    Gh.make_with_state ~policy:Policy.Trust_same_principal ~rng:(rng ()) c_spec
  in
  let r1 = Request.make ~id:1 ~principal:alice () in
  let r2 = Request.make ~id:2 ~principal:alice () in
  let r3 = Request.make ~id:3 ~principal:bob () in
  (* Same principal queued next: rollback skipped. *)
  let inv = Gh.invoke_with_lookahead state r1 ~next:(Some r2) in
  check_int "skipped rollback" 0 inv.Intf.post_ns;
  (* Bob queued next: rollback must run. *)
  let inv = Gh.invoke_with_lookahead state r2 ~next:(Some r3) in
  check_bool "restored before bob" true (inv.Intf.post_ns > 0);
  (* No lookahead: restore eagerly (safe default). *)
  let inv = Gh.invoke_with_lookahead state r3 ~next:None in
  check_bool "eager restore without lookahead" true (inv.Intf.post_ns > 0)

let test_gh_lookahead_skip_is_still_safe_for_same_principal () =
  (* Even with skips, a buggy function never leaks across principals. *)
  let _, state =
    Gh.make_with_state ~policy:Policy.Trust_same_principal ~rng:(rng ()) (buggy_spec ())
  in
  let reqs =
    [
      Request.make ~id:1 ~principal:alice ();
      Request.make ~id:2 ~principal:alice ();
      Request.make ~id:3 ~principal:bob ();
      Request.make ~id:4 ~principal:bob ();
    ]
  in
  let rec go = function
    | [] -> ()
    | req :: rest ->
        let next = match rest with [] -> None | n :: _ -> Some n in
        let inv = Gh.invoke_with_lookahead state req ~next in
        if Principal.equal req.Request.principal bob then
          check_int "bob sees no foreign residue" 0
            (List.length
               (List.filter (Principal.owns_word alice) inv.Intf.response.Fm.residue));
        go rest
  in
  go reqs

(* -- The hook table: which hooks each strategy sets beyond the
   [Strategy_intf.stateless] defaults, over every registered strategy on
   a benchmark all of them support. Per strategy: status, whether it keeps
   snapshot pages, scrub 1, audit after one request, scrub 1 under
   [degrade true], then status and scrub 1 after [kill]. Before its first
   request every strategy's audit is [None]. -- *)

let hook_table =
  let skip = Intf.Scrub_skip and block = Intf.Scrubbed (1, false) in
  [
    (Registry.Base, None, false, skip, None, skip, None, skip);
    (Registry.Gh, Some `Clean, true, block, Some `Intact, skip, Some `Poisoned, skip);
    (Registry.Gh_nop, Some `Clean, true, block, None, block, Some `Poisoned, skip);
    (Registry.Fork, None, false, skip, None, skip, None, skip);
    (Registry.Faasm, None, true, skip, None, skip, None, skip);
    (Registry.Coldstart, None, false, skip, None, skip, None, skip);
    (Registry.Criu, None, true, block, Some `Intact, block, None, block);
  ]

let test_hook_table () =
  let spec =
    (Option.get (Gh_workloads.Catalog.find "cholesky (c)")).Gh_workloads.Catalog.spec
  in
  check_bool "the table lists every strategy, in registry order" true
    (List.map (fun (id, _, _, _, _, _, _, _) -> id) hook_table = Registry.all);
  List.iter
    (fun (id, status, snapshot, scrub, audit, scrub_degraded, status_killed, scrub_killed) ->
      let name = Registry.to_string id in
      let check what expected got = check_bool (name ^ ": " ^ what) true (expected = got) in
      let s = Result.get_ok (Registry.make id ~rng:(rng ()) spec) in
      check "name" name s.Intf.name;
      check "status" status (s.Intf.status ());
      check "keeps snapshot pages" snapshot (s.Intf.snapshot_pages () > 0);
      check "audit before a request" None (s.Intf.audit ());
      check "scrub" scrub (s.Intf.scrub 1);
      ignore (s.Intf.invoke (Request.make ~id:1 ~principal:alice ~input_kb:spec.Fm.input_kb ()));
      check "audit after a request" audit (s.Intf.audit ());
      s.Intf.degrade true;
      check "scrub while degraded" scrub_degraded (s.Intf.scrub 1);
      s.Intf.degrade false;
      s.Intf.kill ();
      check "status after kill" status_killed (s.Intf.status ());
      check "scrub after kill" scrub_killed (s.Intf.scrub 1))
    hook_table

let () =
  Alcotest.run "gh_isolation"
    [
      ( "security",
        [
          Alcotest.test_case "BASE leaks" `Quick test_base_leaks;
          Alcotest.test_case "GH never leaks" `Quick test_gh_never_leaks;
          Alcotest.test_case "GH_NOP leaks" `Quick test_gh_nop_leaks;
          Alcotest.test_case "FORK never leaks" `Quick test_fork_never_leaks;
          Alcotest.test_case "FAASM never leaks" `Quick test_faasm_never_leaks;
          Alcotest.test_case "COLDSTART never leaks" `Quick test_coldstart_never_leaks;
        ] );
      ( "support",
        [
          Alcotest.test_case "fork rejects multithreaded" `Quick test_fork_rejects_multithreaded;
          Alcotest.test_case "faasm requires wasm" `Quick test_faasm_requires_wasm_port;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "hook table" `Quick test_hook_table;
        ] );
      ( "costs",
        [
          Alcotest.test_case "overhead ordering" `Quick test_overhead_ordering;
          Alcotest.test_case "GH restores off path" `Quick test_gh_restores_off_path;
          Alcotest.test_case "BASE/NOP have no post work" `Quick
            test_base_and_nop_have_no_post_work;
          Alcotest.test_case "coldstart pays init on path" `Quick
            test_coldstart_pays_init_on_path;
          Alcotest.test_case "snapshot pages reporting" `Quick test_snapshot_pages_reporting;
        ] );
      ( "interposition",
        [
          Alcotest.test_case "platform-signal removes copy cost" `Quick
            test_platform_signal_removes_copy_cost;
          Alcotest.test_case "platform-signal still isolates" `Quick
            test_platform_signal_still_isolates;
        ] );
      ( "policy",
        [
          Alcotest.test_case "rules" `Quick test_policy_rules;
          Alcotest.test_case "lookahead skip" `Quick test_gh_lookahead_skip;
          Alcotest.test_case "skip remains safe across principals" `Quick
            test_gh_lookahead_skip_is_still_safe_for_same_principal;
        ] );
    ]
