(* Allocation regression tests for the per-access path and for lock
   construction.

   A simulated memory operation is a plain call into [Sim], then
   [Memory.access] and the cost model.  The memory entry itself
   must allocate nothing — a boxed line owner or an optional argument
   on it would show up here as a non-zero minor-heap delta — and a
   simulated thread's loads may allocate only what blocking needs:
   nothing when the load returns inline, the continuation when it
   must wait. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

let calls = 512

(* Minor words allocated by [f ()], net of the measurement's own
   cost (the same bracket around a no-op). *)
let words_of f =
  let bracket g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  bracket f -. bracket ignore

(* [calls] fresh lines, each driven into [st] at [holder]. *)
let lines_in m ~holder st =
  Array.init calls (fun _ ->
      let a = Memory.alloc m in
      Memory.force_state m ~holder st a;
      a)

(* [calls] accesses of [op] by [core], one per address, spaced far
   enough apart in virtual time that none queues behind another. *)
let run_accesses m ~core op ~operand ~operand2 addrs =
  fun () ->
    for i = 0 to Array.length addrs - 1 do
      ignore
        (Memory.access m ~core ~now:(1_000_000 * (i + 1)) op addrs.(i)
           ~operand ~operand2 ~fetch:false)
    done

let check_zero label w =
  Alcotest.(check (float 0.)) (label ^ ": minor words over 512 calls") 0. w

(* The requester and the holder on different nodes: the farthest core
   from core 0. *)
let remote_holder (p : Platform.t) = Platform.n_cores p - 1

let test_local_hit () =
  List.iter
    (fun (p : Platform.t) ->
      let m = Memory.create p in
      let a = Memory.alloc m in
      Memory.force_state m ~holder:0 Arch.Modified a;
      let addrs = Array.make calls a in
      List.iter
        (fun op ->
          check_zero
            (Printf.sprintf "%s %s hit" p.Platform.name (Arch.memop_name op))
            (words_of (run_accesses m ~core:0 op ~operand:0 ~operand2:0 addrs)))
        Arch.[ Load; Store ])
    Platform.all

let test_remote_load_miss () =
  List.iter
    (fun (p : Platform.t) ->
      let m = Memory.create p in
      let addrs = lines_in m ~holder:(remote_holder p) Arch.Modified in
      check_zero
        (p.Platform.name ^ " remote load miss")
        (words_of (run_accesses m ~core:0 Arch.Load ~operand:0 ~operand2:0 addrs)))
    Platform.all

let test_remote_modified_rmw () =
  List.iter
    (fun (p : Platform.t) ->
      List.iter
        (fun (op, operand, operand2) ->
          let m = Memory.create p in
          let addrs = lines_in m ~holder:(remote_holder p) Arch.Modified in
          check_zero
            (Printf.sprintf "%s %s on a remote Modified line" p.Platform.name
               (Arch.memop_name op))
            (words_of (run_accesses m ~core:0 op ~operand ~operand2 addrs)))
        Arch.[ (Cas, 0, 1); (Store, 1, 0) ])
    Platform.all

(* Words allocated per [Sim.load] by simulated threads polling their
   own lines, on three paths:

   - direct-run: one thread alone, so every load completes before any
     queued event and returns inline — a plain call that allocates
     nothing (0.0 measured on OCaml 5.1.1; 8.0 when every load
     performed an effect and direct-run continued the continuation);
   - queued: two threads released together by a barrier onto equal
     local-hit latencies, so each load completes no earlier than the
     other thread's pending resumption and blocks — OCaml's
     continuation and the [Some] holding it (4.0 measured; 10.0 with
     a per-load effect payload);
   - faulted: one thread under a jitter-only spec, where no load may
     direct-run (4.0 measured; 12.0 with the effect payload and a
     boxed float per fault draw).

   Each bound is one word above the measurement: the smallest OCaml
   block takes two, so any per-load box (a [Some], a ref, a tuple, a
   closure) trips it. *)
let load_words_bound = 1.
let queued_load_words_bound = 5.
let faulted_load_words_bound = 5.

let loads_per_thread = 10_000

(* Minor words per load over [loads_per_thread] loads in each of
   [threads] threads on cores [0 .. threads-1], each polling its own
   line after a warm-up load and a barrier.  The bracket runs from the
   first thread past the barrier to the last thread done. *)
let sim_load_words ?faults ~threads () =
  let sim = Sim.create ?faults Platform.opteron in
  let b = Sim.make_barrier threads in
  let first = ref nan and last = ref nan and done_ = ref 0 in
  for core = 0 to threads - 1 do
    let a = Memory.alloc (Sim.memory sim) in
    Sim.spawn sim ~core (fun () ->
        ignore (Sim.load a);
        Sim.await b;
        if Float.is_nan !first then first := Gc.minor_words ();
        for _ = 1 to loads_per_thread do
          ignore (Sim.load a)
        done;
        incr done_;
        if !done_ = threads then last := Gc.minor_words ())
  done;
  ignore (Sim.run sim);
  (!last -. !first) /. float_of_int (threads * loads_per_thread)

let check_load_words label ~bound per_op =
  if not (per_op <= bound) then
    Alcotest.failf "%s: Sim.load allocates %.2f words per op (bound %.0f)"
      label per_op bound

let test_sim_load_words () =
  check_load_words "direct-run" ~bound:load_words_bound
    (sim_load_words ~threads:1 ())

(* A load that blocks allocates at least its continuation: fewer words
   would mean the case no longer takes the path it is meant to pin. *)
let check_blocking_load_words label ~bound per_op =
  Alcotest.(check bool) (label ^ ": loads block") true (per_op >= 2.);
  check_load_words label ~bound per_op

let test_sim_load_words_queued () =
  check_blocking_load_words "queued" ~bound:queued_load_words_bound
    (sim_load_words ~threads:2 ())

let test_sim_load_words_faulted () =
  check_blocking_load_words "jitter-only" ~bound:faulted_load_words_bound
    (sim_load_words ~faults:(Fault.jitter 0.1) ~threads:1 ())

(* ------------------------------------------------------------------ *)
(* Lock construction budget.  The 512-lock figures build hundreds of
   locks per simulation, so building a lock must pay only for the state
   its plain path uses: the robust shadows and closures are built on
   the first robust call, a cohort's local locks are sized to their
   cluster's members, and per-thread arrays to the thread count. *)

(* Minor words of one [Simlock.create] at 36 threads on the Opteron, on
   a memory whose line records come warm from the domain pool (as every
   job after a domain's first one sees them), measured on OCaml 5.1.1:
   TAS 53, TTAS 96, TICKET 74, ARRAY 213, MUTEX 124, MCS 288, CLH 294,
   HCLH 1,199, HTICKET 842.  With the robust state built eagerly TAS
   takes 131 and HTICKET 2,085; with every cohort local spanning all
   thread ids HCLH takes 4,072.  The bounds leave ~10% of slack. *)
let construction_budget =
  Simlock.
    [
      (Tas, 60);
      (Ttas, 105);
      (Ticket, 82);
      (Array_lock, 235);
      (Mutex, 137);
      (Mcs, 317);
      (Clh, 324);
      (Hclh, 1320);
      (Hticket, 930);
    ]

let construction_threads = 36

(* Minor words and simulated lines of one [Simlock.create]. *)
let construction_cost (p : Platform.t) ~n_threads algo =
  (* warm the pool with a memory that held more lines than one lock *)
  let m0 = Memory.create p in
  for _ = 1 to 3 do
    ignore (Simlock.create m0 p ~n_threads algo)
  done;
  Memory.dispose m0;
  let m = Memory.create p in
  let words =
    words_of (fun () -> ignore (Simlock.create m p ~n_threads algo))
  in
  let l0 = Memory.n_lines m in
  ignore (Simlock.create m p ~n_threads algo);
  let lines = Memory.n_lines m - l0 in
  Memory.dispose m;
  (words, lines)

let test_construction_words () =
  List.iter
    (fun (algo, bound) ->
      let words, _ =
        construction_cost Platform.opteron ~n_threads:construction_threads algo
      in
      if words > float_of_int bound then
        Alcotest.failf "Simlock.create %s allocates %.0f minor words (bound %d)"
          (Simlock.name algo) words bound)
    construction_budget

(* A cohort allocates one queue node per member thread plus fixed lines:
   HCLH a dummy node and a tail per occupied cluster, and the global
   CLH's dummy, tail and one node per cluster; HTICKET one ticket line
   per occupied cluster plus the global one.  Nothing scales with
   threads x clusters, and a cluster no thread is placed on costs only
   its global CLH node. *)
let test_cohort_lines () =
  List.iter
    (fun (p : Platform.t) ->
      let topo = p.Platform.topo in
      let nodes = topo.Topology.n_nodes in
      List.iter
        (fun n_threads ->
          let occupied =
            List.length
              (List.sort_uniq compare
                 (List.init n_threads (fun tid ->
                      topo.Topology.node_of_core (Platform.place p tid))))
          in
          List.iter
            (fun (algo, expected) ->
              let _, lines = construction_cost p ~n_threads algo in
              Alcotest.(check int)
                (Printf.sprintf "%s %s at %d threads: simulated lines"
                   p.Platform.name (Simlock.name algo) n_threads)
                expected lines)
            Simlock.
              [
                (Hclh, n_threads + (2 * occupied) + nodes + 2);
                (Hticket, occupied + 1);
              ])
        [ 1; 7; 36 ])
    [ Platform.opteron; Platform.xeon ]

(* ARRAY's per-thread slot memory follows [n_threads]: a thread id past
   any fixed table size still works. *)
let test_array_lock_wide_tids () =
  let p = Platform.opteron in
  let n_threads = 1100 in
  let sim = Sim.create p in
  let lock = Simlock.create (Sim.memory sim) p ~n_threads Simlock.Array_lock in
  let rounds = ref 0 in
  Sim.spawn sim ~core:0 (fun () ->
      List.iter
        (fun tid ->
          lock.Lock_type.acquire ~tid;
          lock.Lock_type.release ~tid;
          incr rounds)
        [ 0; 1023; 1024; n_threads - 1 ]);
  ignore (Sim.run sim);
  Alcotest.(check int) "acquire/release at every tid" 4 !rounds

(* ------------------------------------------------------------------ *)
(* Memory construction budget.  Every job builds a memory, so
   [Memory.create] pays only for what the engine uses: three 1,024-slot
   line/word tables (recycled through the domain pool), the
   interconnect busy-time array and the per-access scratch.  Arrays
   above the minor heap's size limit are allocated straight into the
   major heap, where [Gc.minor_words] cannot see them, so these bounds
   count both heaps. *)

(* Words [f ()] allocates in the calling domain — minor words plus
   words allocated directly in the major heap — net of the
   measurement's own cost. *)
let heap_words_of f =
  let bracket g =
    (* [Gc.minor_words] counts the allocation pointer's progress exactly;
       [Gc.counters] supplies the major heap's direct allocations *)
    let minor0 = Gc.minor_words () in
    let _, promoted0, major0 = Gc.counters () in
    g ();
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))
  in
  bracket f -. bracket ignore

(* Run [f] on a fresh domain, whose memory pool is empty. *)
let on_cold_domain f =
  Domain.join
    (Domain.spawn (fun () ->
         (* the sink lookups initialise their domain-local slots *)
         ignore (Ssync_trace.Trace.current ());
         ignore (Ssync_metrics.Metrics.current ());
         f ()))

(* One 1,024-slot table, header included. *)
let table_words = 1025

(* A warm [create] + [dispose] allocates the busy-time array
   ([n_resources + 1] words) plus 62 words of record, scratch view,
   resource path, stats and pool cell on every platform, measured on
   OCaml 5.1.1; a cold one adds the three tables.  Growing past 1,024
   lines regrows the three tables to 2,049 words each, and the line
   itself takes 19.  One more per-line table or per-resource array
   breaks these bounds. *)
let create_budget (p : Platform.t) =
  Cost_model.n_resources p.Platform.topo + 1 + 70

let grow_budget = (3 * ((2 * 1024) + 1)) + 30

let test_memory_create_words () =
  List.iter
    (fun (p : Platform.t) ->
      let check label words bound =
        if words > float_of_int bound then
          Alcotest.failf "%s: %s allocates %.0f words (bound %d)"
            p.Platform.name label words bound
      in
      let budget = create_budget p in
      check "cold Memory.create + dispose"
        (on_cold_domain (fun () ->
             heap_words_of (fun () -> Memory.dispose (Memory.create p))))
        (budget + (3 * table_words));
      Memory.dispose (Memory.create p);
      check "warm Memory.create + dispose"
        (heap_words_of (fun () -> Memory.dispose (Memory.create p)))
        budget;
      check "line 1,025 of a memory"
        (on_cold_domain (fun () ->
             let m = Memory.create p in
             for _ = 1 to 1024 do
               ignore (Memory.alloc m)
             done;
             heap_words_of (fun () -> ignore (Memory.alloc m))))
        grow_budget)
    Platform.all

(* [Coreset.next] walks exactly the members, in ascending order. *)
let qcheck_coreset_next =
  QCheck.Test.make ~count:300 ~name:"Coreset.next walks the members"
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 (Coreset.capacity - 1)))
    (fun cores ->
      let s = Coreset.of_list cores in
      let rec walk c acc =
        let n = Coreset.next s c in
        if n < 0 then List.rev acc else walk (n + 1) (n :: acc)
      in
      walk 0 [] = Coreset.elements s)

let suite =
  [
    Alcotest.test_case "memory entry: local hits allocate nothing" `Quick
      test_local_hit;
    Alcotest.test_case "memory entry: remote load misses allocate nothing"
      `Quick test_remote_load_miss;
    Alcotest.test_case
      "memory entry: CAS/store on a remote Modified line allocate nothing"
      `Quick test_remote_modified_rmw;
    Alcotest.test_case "Sim.load words per op within bound" `Quick
      test_sim_load_words;
    Alcotest.test_case "Sim.load words per op, queued path" `Quick
      test_sim_load_words_queued;
    Alcotest.test_case "Sim.load words per op, jitter-only faults" `Quick
      test_sim_load_words_faulted;
    QCheck_alcotest.to_alcotest qcheck_coreset_next;
    Alcotest.test_case "lock construction: minor words within budget" `Quick
      test_construction_words;
    Alcotest.test_case "lock construction: cohort lines are members + fixed"
      `Quick test_cohort_lines;
    Alcotest.test_case "lock construction: ARRAY takes any tid below n_threads"
      `Quick test_array_lock_wide_tids;
    Alcotest.test_case "Memory.create: words within budget, cold, warm, grown"
      `Quick test_memory_create_words;
  ]
