(* Tests of the interconnect/directory occupancy model and the
   multi-word line layer: packed allocation, line-granular coherence
   (false sharing), finite-bandwidth queueing at home directories, and
   the reconciliation of the link-wait accounting against the engine's
   counters. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mem_on pid = Memory.create (Platform.get pid)

(* ------------------------ multi-word lines ------------------------ *)

let test_packed_words_share_lines () =
  let m = mem_on Arch.Opteron in
  let lw = Memory.line_words m in
  check_bool "platforms have multi-word lines" true (lw > 1);
  let base = Memory.alloc_packed m (lw + 2) in
  check_bool "first and last word of a line alias" true
    (Memory.same_line m base (base + lw - 1));
  check_bool "word lw spills to the next line" false
    (Memory.same_line m base (base + lw));
  let padded = Memory.alloc_n m 2 in
  check_bool "padded words never share" false
    (Memory.same_line m padded (padded + 1))

let test_packed_words_have_independent_values () =
  let m = mem_on Arch.Xeon in
  let base = Memory.alloc_packed ~value:3 m 4 in
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Store (base + 1) ~operand:9);
  check_int "neighbor untouched" 3 (Memory.peek m base);
  check_int "stored word updated" 9 (Memory.peek m (base + 1));
  check_int "other neighbor untouched" 3 (Memory.peek m (base + 2));
  (* atomics too: a FAI on one word leaves its line-mates alone *)
  ignore (Mem_access.access m ~core:1 ~now:10_000 Arch.Fai (base + 2) ~operand:1);
  check_int "fai hit only its word" 4 (Memory.peek m (base + 2));
  check_int "neighbors still intact" 9 (Memory.peek m (base + 1))

let test_false_sharing_invalidates_line_mates () =
  let m = mem_on Arch.Xeon in
  let base = Memory.alloc_packed m 2 in
  (* core 0 caches the line by reading word 0 ... *)
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Load base);
  let hit, _ = Mem_access.access m ~core:0 ~now:5_000 Arch.Load base in
  (* ... core 1 writes the *other* word: coherence is line-granular,
     so core 0's copy dies even though no shared data exists *)
  ignore (Mem_access.access m ~core:1 ~now:10_000 Arch.Store (base + 1) ~operand:7);
  let miss, _ = Mem_access.access m ~core:0 ~now:50_000 Arch.Load base in
  check_bool
    (Printf.sprintf "line-mate write forces a refetch (%d > %d)" miss hit)
    true (miss > hit);
  (* the padded layout is immune: same traffic, different lines *)
  let p0 = Memory.alloc_n m 2 in
  ignore (Mem_access.access m ~core:0 ~now:100_000 Arch.Load p0);
  let hit_p, _ = Mem_access.access m ~core:0 ~now:105_000 Arch.Load p0 in
  ignore
    (Mem_access.access m ~core:1 ~now:110_000 Arch.Store (p0 + 1) ~operand:7);
  let still_hit, _ = Mem_access.access m ~core:0 ~now:150_000 Arch.Load p0 in
  check_int "padded neighbor write leaves the hit local" hit_p still_hit

(* --------------------- finite-bandwidth queueing ------------------ *)

(* Two requests to *different* lines with the same home must still
   serialize: the home node's directory is a finite resource.  Before
   this model, occupancy was line-only and cross-line traffic to one
   node was infinitely parallel. *)
let test_home_directory_serializes_distinct_lines () =
  let p = Platform.get Arch.Opteron in
  let topo = p.Platform.topo in
  (* isolated baseline: the same remote load on an idle machine *)
  let baseline =
    let m = Memory.create p in
    let b = Memory.alloc ~home_core:0 m in
    fst (Mem_access.access m ~core:12 ~now:0 Arch.Load b)
  in
  let m = Memory.create p in
  let a = Memory.alloc ~home_core:0 m in
  let b = Memory.alloc ~home_core:0 m in
  check_bool "distinct lines" false (Memory.same_line m a b);
  let q0 = (Memory.stats m).Stats.link_queued_cycles in
  ignore (Mem_access.access m ~core:6 ~now:0 Arch.Load a);
  let lat, _ = Mem_access.access m ~core:12 ~now:0 Arch.Load b in
  check_bool
    (Printf.sprintf "second request queued at the home directory (%d > %d)"
       lat baseline)
    true (lat > baseline);
  let q1 = (Memory.stats m).Stats.link_queued_cycles in
  check_int "the extra wait is exactly the accounted link/dir wait"
    (lat - baseline) (q1 - q0);
  let home_dir = Topology.node_of topo 0 in
  check_bool "home directory resource is held" true
    (Memory.resource_busy m home_dir > 0);
  (* fully node-local traffic is exempt: on-die bandwidth is not the
     modeled bottleneck, so a same-node access never queues on links *)
  let c = Memory.alloc ~home_core:0 m in
  let q2 = (Memory.stats m).Stats.link_queued_cycles in
  ignore (Mem_access.access m ~core:1 ~now:0 Arch.Load c);
  check_int "node-local access crosses no finite resource" q2
    (Memory.stats m).Stats.link_queued_cycles

(* A contended cross-die run must keep its occupancy books consistent
   with the engine's counters: link waits are part of line waits, line
   waits are part of op cycles, and op cycles fit in the virtual time
   the engine actually advanced. *)
let test_occupancy_reconciles_with_perf () =
  let p = Platform.get Arch.Opteron in
  let threads = 12 in
  let memref = ref None in
  let r =
    (* padded counters all homed at one node, each ping-ponged between
       two neighbor threads: lines stay non-local (so they cross the
       interconnect every time) while many distinct lines converge on
       the same finite home directory *)
    Harness.run p ~threads ~duration:60_000
      ~setup:(fun mem ->
        memref := Some mem;
        Memory.alloc_n ~home_core:(Platform.place p 0) mem threads)
      ~body:(fun base _mem ~tid ~deadline ->
        let mine = base + tid in
        let next = base + ((tid + 1) mod threads) in
        let n = ref 0 in
        while Sim.now () < deadline do
          ignore (Sim.fai mine);
          ignore (Sim.fai next);
          Sim.pause 50;
          incr n
        done;
        !n)
  in
  check_bool "workload did work" true (r.Harness.total_ops > 0);
  let st = Memory.stats (Option.get !memref) in
  let total_op_cycles =
    st.Stats.loads.Stats.cycles + st.Stats.stores.Stats.cycles
    + st.Stats.atomics.Stats.cycles
  in
  check_bool "cross-die traffic queued on links/dirs" true
    (st.Stats.link_queued_cycles > 0);
  check_bool "link wait is a component of total wait" true
    (st.Stats.link_queued_cycles <= st.Stats.queued_cycles);
  check_bool "total wait fits in op cycles" true
    (st.Stats.queued_cycles <= total_op_cycles);
  check_bool "op cycles fit in threads * advanced virtual time" true
    (total_op_cycles <= threads * r.Harness.perf.Sim.sim_cycles)

(* ---------------- false sharing: padded vs packed ----------------- *)

let test_false_sharing_slower_than_padded () =
  List.iter
    (fun pid ->
      List.iter
        (fun w ->
          let mops layout =
            (Ssync_ccbench.Fs_bench.throughput ~duration:60_000 pid w layout
               ~threads:8)
              .Harness.mops
          in
          let padded = mops Ssync_ccbench.Fs_bench.Padded in
          let packed = mops Ssync_ccbench.Fs_bench.Packed in
          check_bool
            (Printf.sprintf "%s %s: padded %.1f > 2x packed %.1f"
               (Arch.platform_name pid)
               (Ssync_ccbench.Fs_bench.workload_name w)
               padded packed)
            true
            (padded > 2. *. packed))
        Ssync_ccbench.Fs_bench.all_workloads)
    Arch.paper_platform_ids

let suite =
  [
    Alcotest.test_case "packed words share lines; padded don't" `Quick
      test_packed_words_share_lines;
    Alcotest.test_case "packed words keep independent values" `Quick
      test_packed_words_have_independent_values;
    Alcotest.test_case "line-mate write invalidates (false sharing)" `Quick
      test_false_sharing_invalidates_line_mates;
    Alcotest.test_case "home directory serializes distinct lines" `Quick
      test_home_directory_serializes_distinct_lines;
    Alcotest.test_case "occupancy accounting reconciles with Sim.perf" `Quick
      test_occupancy_reconciles_with_perf;
    Alcotest.test_case "false sharing slower than padded everywhere" `Slow
      test_false_sharing_slower_than_padded;
  ]
