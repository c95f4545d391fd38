(* Deterministic, seeded fault injection.

   A plan maps injection sites to rules. Each site draws from its own
   [Rng] stream (derived via {!Rng.named_split} from the plan seed), so
   adding a rule for one site never perturbs the schedule of another,
   and the same seed + same rules always yield the same fault schedule.

   The distinguished [none] plan is a physical-equality sentinel: every
   caller first checks [is_none] (one pointer compare) so a disabled
   fault layer costs nothing and draws no random numbers. *)

type site =
  | Ptrace_attach
  | Ptrace_regs
  | Ptrace_inject
  | Ptrace_write
  | Procfs_maps
  | Procfs_scan
  | Procfs_clear
  | Snapshot_copy
  | Fn_crash
  | Fn_hang
  | Node_crash
  | Node_hang
  | Cluster_msg_loss
  | Heartbeat_drop
  | Snapshot_bitflip
  | Snapshot_torn
  | Restore_skip

let site_index = function
  | Ptrace_attach -> 0
  | Ptrace_regs -> 1
  | Ptrace_inject -> 2
  | Ptrace_write -> 3
  | Procfs_maps -> 4
  | Procfs_scan -> 5
  | Procfs_clear -> 6
  | Snapshot_copy -> 7
  | Fn_crash -> 8
  | Fn_hang -> 9
  | Node_crash -> 10
  | Node_hang -> 11
  | Cluster_msg_loss -> 12
  | Heartbeat_drop -> 13
  | Snapshot_bitflip -> 14
  | Snapshot_torn -> 15
  | Restore_skip -> 16

let n_sites = 17

let all_sites =
  [ Ptrace_attach; Ptrace_regs; Ptrace_inject; Ptrace_write;
    Procfs_maps; Procfs_scan; Procfs_clear; Snapshot_copy;
    Fn_crash; Fn_hang;
    Node_crash; Node_hang; Cluster_msg_loss; Heartbeat_drop;
    Snapshot_bitflip; Snapshot_torn; Restore_skip ]

(* Node-level sites, exercised only by the cluster layer: whole-node
   crashes and hangs, controller<->node message loss/partition, and
   dropped heartbeats. Each keeps its own stream, so a single-node run
   never draws from (or perturbs) any of them. *)
let cluster_sites = [ Node_crash; Node_hang; Cluster_msg_loss; Heartbeat_drop ]

(* Sites exercised by the snapshot/restore machinery (as opposed to the
   function body itself). A uniform plan over these stresses the
   fail-closed recovery path. *)
let restore_sites =
  [ Ptrace_attach; Ptrace_regs; Ptrace_inject; Ptrace_write;
    Procfs_maps; Procfs_scan; Procfs_clear; Snapshot_copy ]

(* Silent data-corruption sites: unlike the loud sites above (which abort
   the operation and surface an [Error site]), these complete "successfully"
   while leaving wrong bytes behind. Only content hashing — restore-time
   verification or idle-time scrubbing — can detect them. *)
let corruption_sites = [ Snapshot_bitflip; Snapshot_torn; Restore_skip ]

let site_name = function
  | Ptrace_attach -> "ptrace-attach"
  | Ptrace_regs -> "ptrace-regs"
  | Ptrace_inject -> "ptrace-inject"
  | Ptrace_write -> "ptrace-write"
  | Procfs_maps -> "procfs-maps"
  | Procfs_scan -> "procfs-scan"
  | Procfs_clear -> "procfs-clear"
  | Snapshot_copy -> "snapshot-copy"
  | Fn_crash -> "fn-crash"
  | Fn_hang -> "fn-hang"
  | Node_crash -> "node-crash"
  | Node_hang -> "node-hang"
  | Cluster_msg_loss -> "cluster-msg-loss"
  | Heartbeat_drop -> "heartbeat-drop"
  | Snapshot_bitflip -> "snapshot-bitflip"
  | Snapshot_torn -> "snapshot-torn"
  | Restore_skip -> "restore-skip"

type rule = { prob : float; nth : int list }

type t = {
  rules : rule option array;
  rngs : Rng.t array;
  seen : int array;
  hits : int array;
}

let make_arrays seed =
  let root = Rng.create seed in
  let rngs =
    Array.init n_sites (fun i ->
        Rng.named_split root (site_name (List.nth all_sites i)))
  in
  {
    rules = Array.make n_sites None;
    rngs;
    seen = Array.make n_sites 0;
    hits = Array.make n_sites 0;
  }

let none = make_arrays 0

let is_none t = t == none

let create ~seed = make_arrays seed

let set t site ?(prob = 0.0) ?(nth = []) () =
  if is_none t then invalid_arg "Fault.set: cannot add rules to Fault.none";
  if prob < 0.0 || prob > 1.0 then invalid_arg "Fault.set: prob outside [0,1]";
  t.rules.(site_index site) <- Some { prob; nth }

let uniform ~seed ~prob sites =
  let t = create ~seed in
  List.iter (fun s -> set t s ~prob ()) sites;
  t

let fire t site =
  if is_none t then false
  else
    let i = site_index site in
    match t.rules.(i) with
    | None -> false
    | Some r ->
        t.seen.(i) <- t.seen.(i) + 1;
        let by_schedule = List.mem t.seen.(i) r.nth in
        let by_chance = r.prob > 0.0 && Rng.float t.rngs.(i) 1.0 < r.prob in
        if by_schedule || by_chance then begin
          t.hits.(i) <- t.hits.(i) + 1;
          true
        end
        else false

(* Parameter draw for a site that just fired (which page to flip, where to
   tear). Drawn from the site's own stream, so it only advances when the
   site actually fires — disabled plans and other sites are unaffected. *)
let draw t site ~bound =
  if is_none t then invalid_arg "Fault.draw: Fault.none never fires";
  if bound <= 0 then invalid_arg "Fault.draw: bound must be positive";
  Rng.int t.rngs.(site_index site) bound

let occurrences t site = t.seen.(site_index site)
let fired t site = t.hits.(site_index site)
let total_fired t = Array.fold_left ( + ) 0 t.hits
