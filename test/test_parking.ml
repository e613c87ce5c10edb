(* Tests of the event-driven waiter machinery added around the poll
   loops: the Coreset bitset backing sharer sets, the allocation-free
   event-queue pop, and — the main property — that parking spinners on
   lines and waking them event-driven reproduces, timestamp for
   timestamp, the results of literally polling. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --------------------------- Coreset ----------------------------- *)
(* qcheck equivalence with a reference implementation (sorted int
   lists): any sequence of add/remove over the supported core range
   leaves both structures observably identical. *)

let qcheck_coreset_vs_list =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 200)
        (pair bool (int_range 0 (Coreset.capacity - 1))))
  in
  QCheck.Test.make ~count:300 ~name:"coreset = reference sorted list"
    (QCheck.make gen) (fun ops ->
      let s = Coreset.create () in
      let reference = ref [] in
      List.iter
        (fun (add, c) ->
          if add then begin
            Coreset.add s c;
            if not (List.mem c !reference) then
              reference := List.sort compare (c :: !reference)
          end
          else begin
            Coreset.remove s c;
            reference := List.filter (fun x -> x <> c) !reference
          end)
        ops;
      let r = !reference in
      Coreset.elements s = r
      && Coreset.cardinal s = List.length r
      && Coreset.is_empty s = (r = [])
      && List.for_all (fun c -> Coreset.mem s c) r
      && Coreset.mem s (Coreset.capacity - 1)
         = List.mem (Coreset.capacity - 1) r
      && Coreset.fold (fun c acc -> acc + c) s 0 = List.fold_left ( + ) 0 r
      && (r = [] || Coreset.exists (fun c -> c = List.hd r) s))

(* [next] (from every start), [iter] and [elements] against a naive
   membership scan over every core id.  Each set may also hold the
   word-boundary bits: 62 (the low word's sign bit), 63 (the high
   word's bit 0) and 125 (the high word's sign bit). *)
let qcheck_coreset_walks_vs_scan =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40) (int_range 0 (Coreset.capacity - 1)))
        (triple bool bool bool))
  in
  QCheck.Test.make ~count:500
    ~name:"coreset next/iter/elements = membership scan" (QCheck.make gen)
    (fun (cores, (b62, b63, b125)) ->
      let edges =
        List.concat
          [
            (if b62 then [ 62 ] else []);
            (if b63 then [ 63 ] else []);
            (if b125 then [ 125 ] else []);
          ]
      in
      let s = Coreset.of_list (edges @ cores) in
      let ids = List.init Coreset.capacity Fun.id in
      let scan = List.filter (Coreset.mem s) ids in
      (* a step that does not move forward ends the walk, so a wrong
         index fails the property instead of looping *)
      let rec walk c acc =
        let n = Coreset.next s c in
        if n < c then List.rev acc else walk (n + 1) (n :: acc)
      in
      let first_from c =
        match List.find_opt (fun m -> m >= c) scan with Some m -> m | None -> -1
      in
      let iterated = ref [] in
      Coreset.iter (fun c -> iterated := c :: !iterated) s;
      scan = List.sort_uniq compare (edges @ cores)
      && walk 0 [] = scan
      && List.for_all (fun c -> Coreset.next s c = first_from c) ids
      && List.rev !iterated = scan
      && Coreset.elements s = scan)

let test_coreset_iter_ascending () =
  let s = Coreset.of_list [ 70; 3; 0; 65; 12; 63 ] in
  let seen = ref [] in
  Coreset.iter (fun c -> seen := c :: !seen) s;
  Alcotest.(check (list int)) "ascending" [ 0; 3; 12; 63; 65; 70 ]
    (List.rev !seen);
  let c = Coreset.copy s in
  Coreset.remove c 12;
  check_bool "copy is independent" true (Coreset.mem s 12);
  check_bool "equal detects the change" false (Coreset.equal s c)

(* -------------------------- Event_queue -------------------------- *)
(* qcheck: driving the heap through [pop_into] yields exactly the
   sorted-by-(time, insertion order) sequence of what was pushed,
   interleaving pushes and pops arbitrarily. *)

let qcheck_event_queue_heap_property =
  let gen =
    (* positive int = push at that time; negative = pop one *)
    QCheck.Gen.(list_size (int_range 0 300) (int_range (-1) 50))
  in
  QCheck.Test.make ~count:300 ~name:"pop_into drains in (time, seq) order"
    (QCheck.make gen) (fun script ->
      let q = Event_queue.create () in
      let p = Event_queue.make_popped () in
      let next_id = ref 0 in
      (* reference model: list of (time, id) sorted by (time, id) —
         insertion ids are assigned in push order, so (time, id) order
         is exactly the heap's (time, seq) contract *)
      let model = ref [] in
      let popped = ref [] in
      let pop_one () =
        match !model with
        | [] -> not (Event_queue.pop_into q p)
        | (mt, mid) :: rest ->
            Event_queue.pop_into q p
            && begin
                 p.Event_queue.p_run ();
                 model := rest;
                 p.Event_queue.p_time = mt
                 && (match !popped with id :: _ -> id = mid | [] -> false)
               end
      in
      let push time =
        let id = !next_id in
        incr next_id;
        Event_queue.push q ~time (fun () -> popped := id :: !popped);
        model :=
          List.merge
            (fun (t1, s1) (t2, s2) -> compare (t1, s1) (t2, s2))
            !model
            [ (time, id) ]
      in
      let ok =
        List.for_all
          (fun cmd ->
            if cmd < 0 then pop_one ()
            else begin
              push cmd;
              true
            end)
          script
      in
      (* drain the rest, still checking the model each step *)
      let rec drain () = !model = [] || (pop_one () && drain ()) in
      ok && drain ()
      && (not (Event_queue.pop_into q p))
      && Event_queue.length q = 0
      && List.length !popped = !next_id)

(* ------------------- parking = polling, exactly ------------------ *)
(* The heart of the tentpole: for every lock algorithm under heavy
   contention, a fixed-duration throughput run must produce the same
   per-thread operation counts whether spinners are parked event-driven
   or literally poll.  (Per-thread counts are a complete fingerprint of
   the simulated schedule for these closed-loop bodies.) *)

let lock_fingerprint ~parking p algo ~threads ~duration =
  let r =
    Harness.run ~parking p ~threads ~duration
      ~setup:(fun mem -> Simlock.create mem p ~n_threads:threads algo)
      ~body:(fun lock _mem ~tid ~deadline ->
        let ops = ref 0 in
        while Sim.now () < deadline do
          lock.Lock_type.acquire ~tid;
          Sim.pause 120;
          (* critical section *)
          lock.Lock_type.release ~tid;
          Sim.pause 40;
          (* think time *)
          incr ops
        done;
        !ops)
  in
  (Array.to_list r.Harness.ops, r.Harness.total_ops)

(* Known intentional exception: Niagara/TTAS resolves some
   same-timestamp races in a different event order when parked — the
   replayed probe is enqueued by the waking access, so it sorts after
   unrelated events at the same virtual time that a pre-scheduled poll
   probe would have preceded (the spin grid, hit 3 + poll 4, collides
   with the backoff timestamps).  The aggregate schedule is preserved —
   total throughput must still match exactly — but TTAS's unfairness
   shuffles which thread wins the tied races.  See DESIGN.md,
   "Simulator performance". *)
let tie_shuffled = [ (Arch.Niagara, Simlock.Ttas) ]

let test_parking_matches_polling () =
  List.iter
    (fun (pid, threads) ->
      let p = Platform.get pid in
      List.iter
        (fun algo ->
          let fp b = lock_fingerprint ~parking:b p algo ~threads
              ~duration:40_000
          in
          let parked = fp true and polled = fp false in
          let label =
            Printf.sprintf "%s/%s parked = polled" (Arch.platform_name pid)
              (Simlock.name algo)
          in
          if List.mem (pid, algo) tie_shuffled then
            check_int (label ^ " (total ops)") (snd polled) (snd parked)
          else
            Alcotest.(check (pair (list int) int)) label polled parked)
        (Simlock.algos_for p))
    [ (Arch.Opteron, 12); (Arch.Niagara, 16); (Arch.Xeon, 16);
      (Arch.Tilera, 16) ]

(* Same property through the message-passing layer: a ping-pong over a
   coherence channel (Xeon) and the hardware mesh (Tilera). *)
let mp_fingerprint ~parking pid ~prefetchw =
  let p = Platform.get pid in
  Sim.parking_default := parking;
  Fun.protect ~finally:(fun () -> Sim.parking_default := true) @@ fun () ->
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let ping =
    Ssync_simmp.Channel.create ~prefetchw mem p ~sender_core:0
      ~receiver_core:(Platform.place p 1)
  in
  let pong =
    Ssync_simmp.Channel.create ~prefetchw mem p
      ~sender_core:(Platform.place p 1) ~receiver_core:0
  in
  let rounds = 200 in
  let finish = ref (0, 0) in
  Sim.spawn sim ~core:0 (fun () ->
      for i = 1 to rounds do
        Ssync_simmp.Channel.send ping i;
        ignore (Ssync_simmp.Channel.recv pong)
      done;
      finish := (fst !finish, Sim.now ()));
  Sim.spawn sim ~core:(Platform.place p 1) (fun () ->
      for _ = 1 to rounds do
        let v = Ssync_simmp.Channel.recv ping in
        Ssync_simmp.Channel.send pong v
      done;
      finish := (Sim.now (), snd !finish));
  ignore (Sim.run sim);
  !finish

let test_parking_matches_polling_mp () =
  List.iter
    (fun (pid, prefetchw) ->
      let parked = mp_fingerprint ~parking:true pid ~prefetchw in
      let polled = mp_fingerprint ~parking:false pid ~prefetchw in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s%s ping-pong parked = polled"
           (Arch.platform_name pid)
           (if prefetchw then "/prefetchw" else ""))
        polled parked)
    [ (Arch.Xeon, false); (Arch.Opteron, true); (Arch.Tilera, false) ]

(* --------------------- counters and liveness --------------------- *)

let test_parking_collapses_events () =
  let p = Platform.opteron in
  let events ~parking =
    let r =
      Harness.run ~parking p ~threads:12 ~duration:40_000
        ~setup:(fun mem -> Simlock.create mem p ~n_threads:12 Simlock.Mcs)
        ~body:(fun lock _mem ~tid ~deadline ->
          let ops = ref 0 in
          while Sim.now () < deadline do
            lock.Lock_type.acquire ~tid;
            Sim.pause 500;
            lock.Lock_type.release ~tid;
            incr ops
          done;
          !ops)
    in
    r.Harness.perf
  in
  let parked = events ~parking:true and polled = events ~parking:false in
  check_bool "spinners parked" true (parked.Sim.parks > 0);
  check_bool "parked spinners woke" true
    (parked.Sim.wakeups > 0 && parked.Sim.wakeups <= parked.Sim.parks);
  check_bool "probes were elided" true (parked.Sim.elided_probes > 0);
  check_bool
    (Printf.sprintf "fewer events when parking (%d < %d)" parked.Sim.events
       polled.Sim.events)
    true
    (parked.Sim.events * 2 < polled.Sim.events);
  check_int "polling parks nothing" 0 polled.Sim.parks

(* A spinner whose wakeup can never come must not hang the run: the
   queue drains and the watchdog names it, with nothing dropped. *)
let test_parked_deadlock_drains () =
  let p = Platform.xeon in
  let sim = Sim.create ~parking:true p in
  let mem = Sim.memory sim in
  let flag = Memory.alloc mem in
  Sim.spawn sim ~core:0 (fun () ->
      ignore (Sim.spin_load flag ~while_:0 ~poll:25));
  let _, h = Sim.run_health sim ~until:1_000_000 in
  (match h.Sim.verdict with
  | Sim.Stalled { tid; _ } -> check_int "culprit tid" 0 tid
  | Sim.Completed -> Alcotest.fail "deadlocked run reported Completed");
  check_int "queue drained, nothing dropped" 0 h.Sim.dropped_events;
  check_int "the parked waiter is on the line" 1 (Memory.waiter_count mem flag)

(* Under fault injection the spin primitives fall back to literal
   stepping: same seed, same results, and nothing parks. *)
let test_faults_force_polling_fallback () =
  let p = Platform.opteron in
  let faults = Fault.preemption ~seed:7 ~cycles:(100, 2_000) 0.02 in
  let run () =
    let r =
      Harness.run ~faults ~parking:true p ~threads:8 ~duration:30_000
        ~setup:(fun mem -> Simlock.create mem p ~n_threads:8 Simlock.Ttas)
        ~body:(fun lock _mem ~tid ~deadline ->
          let ops = ref 0 in
          while Sim.now () < deadline do
            lock.Lock_type.acquire ~tid;
            Sim.pause 100;
            lock.Lock_type.release ~tid;
            incr ops
          done;
          !ops)
    in
    (Array.to_list r.Harness.ops, r.Harness.perf.Sim.parks)
  in
  let ops1, parks1 = run () in
  let ops2, parks2 = run () in
  Alcotest.(check (list int)) "same seed, same schedule" ops1 ops2;
  check_int "faults disable parking" 0 parks1;
  check_int "faults disable parking (2nd run)" 0 parks2

(* Latency jitter alone must NOT disable parking: jitter draws are
   charged per real (non-inert) memory op, parking elides only inert
   probes, so the parked and polled schedules — including every jitter
   draw — stay identical, and spinners still park. *)
let test_jitter_only_keeps_parking () =
  let p = Platform.opteron in
  let faults = Fault.jitter ~seed:11 ~cycles:(50, 400) 0.05 in
  let run ~parking =
    let r =
      Harness.run ~faults ~parking p ~threads:12 ~duration:40_000
        ~setup:(fun mem -> Simlock.create mem p ~n_threads:12 Simlock.Mcs)
        ~body:(fun lock _mem ~tid ~deadline ->
          let ops = ref 0 in
          while Sim.now () < deadline do
            lock.Lock_type.acquire ~tid;
            Sim.pause 120;
            lock.Lock_type.release ~tid;
            Sim.pause 40;
            incr ops
          done;
          !ops)
    in
    (Array.to_list r.Harness.ops, r.Harness.perf, r.Harness.health)
  in
  let ops_parked, perf_parked, health_parked = run ~parking:true in
  let ops_polled, perf_polled, health_polled = run ~parking:false in
  Alcotest.(check (list int)) "jitter-only: parked = polled" ops_polled
    ops_parked;
  check_bool "jitter fired" true (health_parked.Sim.jitter_events > 0);
  check_int "same jitter draws parked vs polled"
    health_polled.Sim.jitter_events health_parked.Sim.jitter_events;
  check_bool "spinners parked under jitter" true (perf_parked.Sim.parks > 0);
  check_int "polling still parks nothing" 0 perf_polled.Sim.parks

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_coreset_vs_list;
    QCheck_alcotest.to_alcotest qcheck_coreset_walks_vs_scan;
    Alcotest.test_case "coreset iteration and copy" `Quick
      test_coreset_iter_ascending;
    QCheck_alcotest.to_alcotest qcheck_event_queue_heap_property;
    Alcotest.test_case "locks: parked = polled (all algos)" `Slow
      test_parking_matches_polling;
    Alcotest.test_case "channels: parked = polled" `Quick
      test_parking_matches_polling_mp;
    Alcotest.test_case "parking collapses events" `Quick
      test_parking_collapses_events;
    Alcotest.test_case "parked deadlock drains the queue" `Quick
      test_parked_deadlock_drains;
    Alcotest.test_case "faults fall back to literal polling" `Quick
      test_faults_force_polling_fallback;
    Alcotest.test_case "jitter-only keeps parking exact" `Quick
      test_jitter_only_keeps_parking;
  ]
