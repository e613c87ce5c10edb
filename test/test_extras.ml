(* Additional coverage: Table 1 metadata, the fetch-and-add variants the
   lock optimizations rely on, barrier reuse, simulator edge cases, and
   the ablation knobs (backoff base, cohort max_pass). *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------- Table 1 -------------------------------- *)

let test_table1_consistent () =
  List.iter
    (fun (m : Table1.t) ->
      check_bool
        (Printf.sprintf "%s metadata matches topology"
           (Arch.platform_name m.Table1.id))
        true
        (Table1.consistent_with_topology m);
      check_int "11 fields" 11 (List.length (Table1.rows m)))
    Table1.all

(* -------------------- fetch-and-add variants ---------------------- *)

let test_faa_semantics () =
  let sim = Sim.create Platform.xeon in
  let mem = Sim.memory sim in
  let a = Memory.alloc mem ~value:10 in
  Sim.spawn sim ~core:0 (fun () ->
      check_int "faa 5 returns old" 10 (Sim.faa a 5);
      check_int "faa 0 reads" 15 (Sim.faa a 0);
      check_int "value unchanged by faa 0" 15 (Sim.faa a 0);
      check_int "faa_store adds" 15 (Sim.faa_store a 1);
      check_int "fai adds 1" 16 (Sim.fai a));
  ignore (Sim.run sim);
  check_int "final value" 17 (Memory.peek mem a)

let test_faa_zero_leaves_modified () =
  (* the prefetchw probe: an atomic read that grabs the line exclusive *)
  let m = Memory.create Platform.opteron in
  let a = Memory.alloc m ~value:7 in
  ignore (Mem_access.access m ~core:5 ~now:0 Arch.Store a ~operand:7);
  ignore (Mem_access.access m ~core:0 ~now:100 Arch.Fai a ~operand:0);
  let l = Memory.line m a in
  check_bool "line Modified at prober" true (l.Memory.owner = 0);
  check_int "value untouched" 7 (Memory.peek m a)

let test_faa_zero_costs_store_class () =
  (* on the Opteron, an atomic on a Shared line costs ~272+, a store
     ~246; the probe must take the store-class path *)
  let m = Memory.create Platform.opteron in
  let a = Memory.alloc m in
  Memory.force_state m ~holder:1 ~second:2 Arch.Shared a;
  Memory.reset_busy m a;
  let probe_lat, _ = Mem_access.access m ~core:0 ~now:1000 Arch.Fai a ~operand:0 in
  Memory.force_state m ~holder:1 ~second:2 Arch.Shared a;
  Memory.reset_busy m a;
  let atomic_lat, _ = Mem_access.access m ~core:0 ~now:1000 Arch.Fai a ~operand:1 in
  check_bool
    (Printf.sprintf "probe (%d) cheaper than atomic (%d)" probe_lat atomic_lat)
    true (probe_lat < atomic_lat)

(* ------------------------ engine edges ---------------------------- *)

let test_barrier_reuse () =
  let sim = Sim.create Platform.tilera in
  let b = Sim.make_barrier 2 in
  let phases = ref [] in
  for i = 0 to 1 do
    Sim.spawn sim ~core:i (fun () ->
        Sim.await b;
        phases := (i, 1) :: !phases;
        Sim.pause (100 * (i + 1));
        Sim.await b;
        phases := (i, 2) :: !phases)
  done;
  ignore (Sim.run sim);
  check_int "both passed both phases" 4 (List.length !phases);
  (* phase 2 entries must come after every phase 1 entry *)
  let order = List.rev_map snd !phases in
  Alcotest.(check (list int)) "phased" [ 1; 1; 2; 2 ] order

let test_many_threads () =
  let p = Platform.xeon in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let a = Memory.alloc mem in
  for tid = 0 to 79 do
    Sim.spawn sim ~core:tid (fun () -> ignore (Sim.fai a))
  done;
  ignore (Sim.run sim);
  check_int "80 increments" 80 (Memory.peek mem a)

let test_spawn_rejects_bad_core () =
  let sim = Sim.create Platform.tilera in
  check_bool "core out of range rejected" true
    (try
       Sim.spawn sim ~core:36 (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_memory_rejects_bad_addr () =
  let m = Memory.create Platform.opteron in
  check_bool "bad address rejected" true
    (try
       ignore (Mem_access.access m ~core:0 ~now:0 Arch.Load 123);
       false
     with Invalid_argument _ -> true)

(* ----------------------- ablation knobs --------------------------- *)

let contended_ticket_latency ~base ~threads =
  let p = Platform.opteron in
  let _, mean =
    Harness.run_latency p ~threads ~duration:200_000
      ~setup:(fun mem -> Spinlocks.ticket ~backoff_base:base mem ~home_core:0 ~n_threads:threads)
      ~body:(fun lock _mem ~tid ~deadline ->
        let n = ref 0 and cy = ref 0 in
        while Sim.now () < deadline do
          let t0 = Sim.now () in
          lock.Lock_type.acquire ~tid;
          lock.Lock_type.release ~tid;
          cy := !cy + (Sim.now () - t0);
          Sim.pause 200;
          incr n
        done;
        (!n, !cy))
  in
  mean

let test_backoff_sweet_spot () =
  (* no backoff and absurd backoff must both lose against the tuned one *)
  let none = contended_ticket_latency ~base:0 ~threads:18 in
  let tuned = contended_ticket_latency ~base:1400 ~threads:18 in
  let absurd = contended_ticket_latency ~base:40_000 ~threads:18 in
  check_bool
    (Printf.sprintf "tuned (%.0f) < none (%.0f)" tuned none)
    true (tuned < none);
  check_bool
    (Printf.sprintf "tuned (%.0f) < absurd (%.0f)" tuned absurd)
    true (tuned < absurd)

let test_max_pass_monotone_region () =
  let tput max_pass =
    let p = Platform.xeon in
    let r =
      Harness.run p ~threads:20 ~duration:200_000
        ~setup:(fun mem ->
          Hierarchical.hticket ~max_pass mem p ~home_core:0 ~n_threads:20
            ~place:(Platform.place p))
        ~body:(fun lock _mem ~tid ~deadline ->
          let n = ref 0 in
          while Sim.now () < deadline do
            lock.Lock_type.acquire ~tid;
            Sim.pause 40;
            lock.Lock_type.release ~tid;
            Sim.pause 80;
            incr n
          done;
          !n)
    in
    r.Harness.mops
  in
  let p1 = tput 1 and p64 = tput 64 in
  check_bool
    (Printf.sprintf "max_pass 64 (%.2f) beats max_pass 1 (%.2f)" p64 p1)
    true (p64 > p1)

let test_ticket_backoff_base_positive () =
  List.iter
    (fun pid ->
      check_bool
        (Arch.platform_name pid)
        true
        (Simlock.ticket_backoff_base (Platform.get pid) > 0))
    Arch.all_platform_ids

(* qcheck: faa by random increments matches arithmetic. *)
let qcheck_faa_arithmetic =
  QCheck.Test.make ~count:100 ~name:"faa increments sum correctly"
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 50))
    (fun ks ->
      let sim = Sim.create Platform.niagara in
      let mem = Sim.memory sim in
      let a = Memory.alloc mem in
      Sim.spawn sim ~core:0 (fun () ->
          List.iter (fun k -> ignore (Sim.faa a k)) ks);
      ignore (Sim.run sim);
      Memory.peek mem a = List.fold_left ( + ) 0 ks)

let suite =
  [
    Alcotest.test_case "Table 1 metadata consistent" `Quick
      test_table1_consistent;
    Alcotest.test_case "faa semantics" `Quick test_faa_semantics;
    Alcotest.test_case "faa 0 = exclusive-prefetch probe" `Quick
      test_faa_zero_leaves_modified;
    Alcotest.test_case "faa 0 costs store-class" `Quick
      test_faa_zero_costs_store_class;
    Alcotest.test_case "barrier reuse across phases" `Quick
      test_barrier_reuse;
    Alcotest.test_case "80 threads on the Xeon" `Quick test_many_threads;
    Alcotest.test_case "spawn validates core" `Quick
      test_spawn_rejects_bad_core;
    Alcotest.test_case "memory validates addresses" `Quick
      test_memory_rejects_bad_addr;
    Alcotest.test_case "backoff sweet spot (ablation)" `Slow
      test_backoff_sweet_spot;
    Alcotest.test_case "cohort max_pass helps (ablation)" `Slow
      test_max_pass_monotone_region;
    Alcotest.test_case "per-platform backoff bases" `Quick
      test_ticket_backoff_base_positive;
    QCheck_alcotest.to_alcotest qcheck_faa_arithmetic;
  ]
