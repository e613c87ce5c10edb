(* Speculative replay: the checkpoint/rollback layer in [Memory] and
   the promotion-based replay driver in [Harness].

   - qcheck property: for arbitrary access/alloc/poke sequences, a
     checkpoint taken at an arbitrary point followed by arbitrary
     further mutation and [restore] leaves the memory bit-equal to a
     fresh memory that replayed only the pre-checkpoint prefix — and a
     second [restore] (the checkpoint stays armed) agrees too;
   - a planted cross-shard race: two far threads hammering one shared
     line makes the sharded harness abort, promote the line and replay
     — the result must be byte-identical to the serial run, and the
     second run of the same job must not pay the discovery again
     (adaptive policy). *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let platform = Platform.get Arch.Opteron
let n_cores = Platform.n_cores platform

(* ------------------- memory state fingerprint ---------------------- *)

(* Every observable component the checkpoint claims to cover: word
   values, line protocol state (owner, sharers, home, busy, pfw/cas
   reservations, llc flag, waiter count), per-line residency, slot-0
   statistics, and interconnect-resource busy times. *)
let fingerprint mem =
  let words =
    List.init (Memory.n_words mem) (fun a ->
        let l = Memory.line mem a in
        ( Memory.peek mem a,
          Memory.residency mem a,
          ( l.Memory.state,
            l.Memory.owner,
            Ssync_platform.Coreset.elements l.Memory.sharers,
            l.Memory.home,
            l.Memory.busy_until,
            l.Memory.pfw_owner,
            l.Memory.cas_pending,
            l.Memory.llc_dirty,
            Memory.waiter_count mem a ) ))
  in
  let st = Memory.stats mem in
  let stats_obs =
    ( Stats.total_ops st,
      Stats.total_cycles st,
      Format.asprintf "%a" Stats.pp st )
  in
  let n_res = Cost_model.n_resources platform.Platform.topo in
  let resources = List.init n_res (fun r -> Memory.resource_busy mem r) in
  (Memory.n_lines mem, Memory.n_words mem, words, stats_obs, resources)

(* --------------------- random op sequences ------------------------- *)

(* One op is (kind, core, addr index, operand, time step); the driver
   folds them over a memory with a strictly increasing clock, so any
   two applications of the same list are identical. *)
let apply_op mem addrs now (kind, core, idx, operand, dt) =
  let core = core mod n_cores in
  let a () =
    let l = !addrs in
    List.nth l (idx mod List.length l)
  in
  now := !now + 1 + (dt mod 97);
  match kind mod 9 with
  | 0 -> ignore (Mem_access.access mem ~core ~now:!now Arch.Load (a ()))
  | 1 -> ignore (Mem_access.access ~operand mem ~core ~now:!now Arch.Store (a ()))
  | 2 ->
      ignore
        (Mem_access.access ~operand:(operand mod 4)
           ~operand2:((operand + 1) mod 4)
           mem ~core ~now:!now Arch.Cas (a ()))
  | 3 -> ignore (Mem_access.access ~operand:1 mem ~core ~now:!now Arch.Fai (a ()))
  | 4 -> ignore (Mem_access.access mem ~core ~now:!now Arch.Tas (a ()))
  | 5 -> ignore (Mem_access.access ~operand mem ~core ~now:!now Arch.Swap (a ()))
  | 6 -> Memory.poke mem (a ()) operand
  | 7 -> addrs := !addrs @ [ Memory.alloc ~home_core:core mem ]
  | _ ->
      let b = Memory.alloc_packed ~home_core:core mem 2 in
      addrs := !addrs @ [ b; b + 1 ]

let init_mem () =
  let mem = Memory.create platform in
  let a0 = Memory.alloc ~home_core:0 ~value:7 mem in
  let a1 = Memory.alloc ~home_core:12 mem in
  let ap = Memory.alloc_packed ~home_core:30 mem 4 in
  (mem, ref [ a0; a1; ap; ap + 1; ap + 2; ap + 3 ])

let apply_all mem addrs ops =
  let now = ref 0 in
  List.iter (apply_op mem addrs now) ops

let split_at k l =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] l

let op_gen =
  QCheck.(
    list_of_size
      Gen.(0 -- 60)
      (pair (pair small_nat small_nat)
         (pair small_nat (pair small_nat small_nat))))

let flat ((kind, core), (idx, (operand, dt))) = (kind, core, idx, operand, dt)

let prop_checkpoint_restore =
  QCheck.Test.make ~count:200 ~name:"checkpoint/restore == fresh replay"
    QCheck.(pair op_gen small_nat)
    (fun (ops, kraw) ->
      let ops = List.map flat ops in
      let k = kraw mod (List.length ops + 1) in
      let prefix, suffix = split_at k ops in
      (* reference: a fresh memory that ran only the prefix *)
      let ref_mem, ref_addrs = init_mem () in
      apply_all ref_mem ref_addrs prefix;
      let expected = fingerprint ref_mem in
      (* subject: prefix, checkpoint, suffix, restore (twice) *)
      let mem, addrs = init_mem () in
      let now = ref 0 in
      List.iter (apply_op mem addrs now) prefix;
      Memory.checkpoint mem;
      List.iter (apply_op mem addrs now) suffix;
      Memory.restore mem;
      let once = fingerprint mem in
      (* the checkpoint stays armed: mutate again, restore again *)
      let addrs2 = ref !ref_addrs in
      let now2 = ref 1_000_000 in
      List.iter (apply_op mem addrs2 now2) (List.rev suffix);
      Memory.restore mem;
      let twice = fingerprint mem in
      Memory.dispose mem;
      Memory.dispose ref_mem;
      expected = once && expected = twice)

(* ------------------- planted cross-shard race ---------------------- *)

let mask p =
  {
    p with
    Sim.wall_ns = 0;
    windows = 0;
    speculative_replays = 0;
    promoted_lines = 0;
    serial_escalations = 0;
  }

(* Mostly-partitioned workload with one shared counter: each of four
   threads works a private line, and every few iterations bursts on
   the shared one — the planted race that crosses shards.  On the
   Tilera each core is its own topology node, so four threads span
   four shards (on the socket-filling platforms they would sit on one
   node and the harness's span rule would force them serial). *)
let planted_race () =
  let p = Platform.get Arch.Tilera in
  let far_cores = Array.init 4 (fun tid -> Platform.place p tid) in
  Harness.run p ~threads:4 ~duration:60_000
    ~setup:(fun mem ->
      let shared = Memory.alloc ~home_core:0 mem in
      let privs =
        Array.map (fun c -> Memory.alloc ~home_core:c mem) far_cores
      in
      (shared, privs))
    ~body:(fun (shared, privs) _mem ~tid ~deadline ->
      let mine = privs.(tid) in
      let n = ref 0 in
      while Sim.now () < deadline do
        for _ = 1 to 6 do
          let v = Sim.load mine in
          Sim.store mine (v + 1);
          Sim.pause (45 + (tid * 13))
        done;
        (* burst on the shared line: several accesses closer together
           than any window width, guaranteeing a cross-shard stamp
           conflict on the first sharded attempt *)
        for _ = 1 to 4 do
          ignore (Sim.fai shared);
          Sim.pause (23 + (tid * 7))
        done;
        incr n
      done;
      !n)

let race_fingerprint (r : Harness.result) =
  ( Array.to_list r.Harness.ops,
    Array.to_list r.Harness.completed,
    r.Harness.total_ops,
    r.Harness.health,
    mask r.Harness.perf )

let with_shards n f =
  let saved = !Sim.default_shards in
  let saved_domains = !Sim.shard_domains in
  Sim.default_shards := n;
  (* the harness's host gate keeps sharding off without worker domains;
     force them on so a single-core test runner still speculates *)
  Sim.shard_domains := true;
  Fun.protect
    ~finally:(fun () ->
      Sim.default_shards := saved;
      Sim.shard_domains := saved_domains)
    f

let test_planted_race_replays_identically () =
  let serial = race_fingerprint (planted_race ()) in
  let before = Sim.cumulative_perf () in
  let sharded = with_shards 4 (fun () -> race_fingerprint (planted_race ())) in
  let d1 = Sim.perf_diff (Sim.cumulative_perf ()) before in
  check_bool "sharded race run byte-identical to serial" true
    (serial = sharded);
  check_bool "the race engaged speculation (replayed or escalated)" true
    (d1.Sim.speculative_replays > 0 || d1.Sim.serial_escalations > 0);
  (* second run of the same job: the adaptive policy replays nothing —
     it either pre-promotes the learned line set or goes straight to
     the serial engine *)
  let before2 = Sim.cumulative_perf () in
  let again = with_shards 4 (fun () -> race_fingerprint (planted_race ())) in
  let d2 = Sim.perf_diff (Sim.cumulative_perf ()) before2 in
  check_bool "second sharded run still identical" true (serial = again);
  check_int "second run pays no rediscovery replays" 0
    d2.Sim.speculative_replays

(* Checkpoints refuse memories with parked waiters: a parked spinner's
   elided probes cannot be journaled back. *)
let test_checkpoint_refuses_parked_waiters () =
  let sim = Sim.create platform in
  let mem = Sim.memory sim in
  let a = Memory.alloc ~home_core:0 mem in
  Sim.spawn sim ~core:0 (fun () -> ignore (Sim.spin_load a ~while_:0 ~poll:100));
  Sim.spawn sim ~core:1 (fun () ->
      Sim.pause 40_000;
      Sim.store a 1);
  ignore (Sim.run sim ~until:10_000);
  check_bool "the spinner is parked" true (Memory.waiter_count mem a > 0);
  (match Memory.checkpoint mem with
  | () -> Alcotest.fail "checkpoint accepted a parked waiter"
  | exception Invalid_argument _ -> ());
  ignore (Sim.run sim)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_checkpoint_restore;
    Alcotest.test_case "planted cross-shard race: replay == serial" `Quick
      test_planted_race_replays_identically;
    Alcotest.test_case "checkpoint refuses parked waiters" `Quick
      test_checkpoint_refuses_parked_waiters;
  ]
