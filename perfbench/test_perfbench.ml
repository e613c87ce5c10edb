(* Tests of the benchmark's own logic. *)

open Perfbench
open Ssync_platform
open Ssync_engine
open Ssync_simlocks

let check_float msg a b = Alcotest.(check (float 0.)) msg a b

(* ------------------------------------------------------------------ *)
(* Percentile rule. *)

let test_percentile () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  check_float "p50 of 1..100" 50. (Stat.median (xs 100));
  check_float "p90 of 1..100" 90. (Stat.percentile 0.9 (xs 100));
  check_float "p100 of 1..100" 100. (Stat.percentile 1. (xs 100));
  check_float "p50 of 1..5 is the middle" 3. (Stat.median (List.rev (xs 5)));
  Alcotest.(check int) "ten samples above p90 of 100" 10
    (Stat.samples_above 0.9 (xs 100));
  Alcotest.(check bool) "p90 reportable at 100 samples" true
    (Stat.tail_ok 0.9 (xs 100));
  Alcotest.(check bool) "p90 not reportable at 99 samples" false
    (Stat.tail_ok 0.9 (xs 99));
  Alcotest.check_raises "no samples" (Invalid_argument "Stat.percentile: no samples")
    (fun () -> ignore (Stat.median []));
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Stat.percentile: p outside (0, 1]") (fun () ->
      ignore (Stat.percentile 0. (xs 3)))

(* Every workload has enough jobs for its p90 to be reported from one
   pass. *)
let test_batch_sizes () =
  List.iter
    (fun (name, w) ->
      let n = List.length (Jobs.plan w) in
      Alcotest.(check bool) (name ^ " has >= 100 jobs") true (n >= 100))
    Jobs.workloads

(* ------------------------------------------------------------------ *)
(* Self time on nested spans. *)

let test_self_time () =
  let r = Span.create () in
  let root = Span.add r ~job:0 ~parent:Span.no_span "job" 0. 10. in
  (* overlapping children, one sticking out of the parent *)
  let c1 = Span.add r ~job:0 ~parent:root "a" 1. 3. in
  ignore (Span.add r ~job:0 ~parent:root "b" 2. 5.);
  ignore (Span.add r ~job:0 ~parent:root "c" 8. 12.);
  (* a grandchild only shortens its own parent *)
  ignore (Span.add r ~job:0 ~parent:c1 "g" 1.5 2.5);
  let self name =
    List.assoc name
      (List.map (fun (s, t) -> (s.Span.name, t)) (Span.self_times (Span.spans r)))
  in
  check_float "root: 10 - |[1,5] u [8,10]|" 4. (self "job");
  check_float "a: 2 - 1" 1. (self "a");
  check_float "leaf b" 3. (self "b");
  check_float "leaf c" 4. (self "c");
  Alcotest.(check int) "disabled recorder records nothing" Span.no_span
    (Span.add Span.disabled ~job:0 ~parent:Span.no_span "x" 0. 1.)

(* Setup, run loop, overhead and residual add up to the job span. *)
let test_accounts () =
  let r = Span.create () in
  let job = Span.add r ~job:3 ~parent:Span.no_span "job" 0. 100. in
  let h = Span.add r ~job:3 ~parent:job "harness.run" 5. 95. in
  ignore (Span.add r ~job:3 ~parent:h "setup" 10. 30. );
  ignore (Span.add r ~job:3 ~parent:h "sim.run_loop" 30. 80.);
  match Layers.accounts (Span.spans r) with
  | [ a ] ->
      check_float "setup" 20. a.Layers.setup_s;
      check_float "loop" 50. a.Layers.loop_s;
      check_float "overhead = harness.run self" 20. a.Layers.overhead_s;
      check_float "residual = job self" 10. a.Layers.residual_s;
      check_float "parts add up" a.Layers.job_s
        (a.Layers.setup_s +. a.Layers.loop_s +. a.Layers.overhead_s +. a.Layers.residual_s)
  | l -> Alcotest.failf "expected one account, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Metric names. *)

let valid_name s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok s

let valid_unit s =
  String.length s >= 1 && String.length s <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_metric_names () =
  let defs = Report.end_to_end @ Report.per_layer in
  let names = List.map (fun d -> d.Report.name) defs @ List.map fst Jobs.workloads in
  List.iter
    (fun d ->
      Alcotest.(check bool) (d.Report.name ^ " valid") true (valid_name d.Report.name);
      Alcotest.(check bool) (d.Report.unit_ ^ " valid unit") true (valid_unit d.Report.unit_);
      Alcotest.(check bool) (d.Report.name ^ " direction") true
        (List.mem d.Report.better [ "lower"; "higher" ]))
    defs;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "at most 128 per-layer metrics" true
    (List.length Report.per_layer <= 128);
  (* BENCHMARK.json declares exactly these metrics *)
  let json = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun d ->
      let entry =
        Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s"|} d.Report.name
          d.Report.unit_ d.Report.better
      in
      Alcotest.(check bool) (d.Report.name ^ " in BENCHMARK.json") true
        (contains ~sub:entry json))
    defs;
  List.iter
    (fun (w, _) ->
      Alcotest.(check bool) (w ^ " workload in BENCHMARK.json") true
        (contains ~sub:(Printf.sprintf {|{"name": "%s", "why": |} w) json))
    Jobs.workloads;
  let count = ref 0 and i = ref 0 in
  let key = {|"name": |} in
  while !i + String.length key <= String.length json do
    if String.sub json !i (String.length key) = key then incr count;
    incr i
  done;
  Alcotest.(check int) "no other names in BENCHMARK.json" (List.length names) !count

(* ------------------------------------------------------------------ *)
(* At the figure seed the job bodies are the figure code. *)

let done_ = function
  | Jobs.Done (d, h) -> (d, h)
  | Jobs.Raised e -> Alcotest.failf "job raised %s" e

let job pid threads duration kind = { Jobs.pid; threads; duration; kind }

let lock_job pid algo ~threads ~n_locks ~duration ~preempt =
  job pid threads duration (Jobs.Lock { algo; n_locks; preempt; jitter = 0.; replica = 0 })

let test_figure_locks () =
  List.iter
    (fun (pid, algo, threads, n_locks, duration) ->
      let r = Ssync_ccbench.Lock_bench.throughput ~duration pid algo ~threads ~n_locks in
      let d, _ =
        done_
          (Jobs.run ~seed:0 ~index:0
             (lock_job pid algo ~threads ~n_locks ~duration ~preempt:0.))
      in
      let name = Printf.sprintf "%s %s" (Arch.platform_name pid) (Simlock.name algo) in
      Alcotest.(check (array int)) (name ^ " ops") r.Harness.ops d.Jobs.ops;
      Alcotest.(check int) (name ^ " events") r.Harness.perf.Sim.events d.Jobs.events;
      Alcotest.(check int) (name ^ " cycles") r.Harness.perf.Sim.sim_cycles d.Jobs.sim_cycles;
      Alcotest.(check int) (name ^ " elided = stats")
        r.Harness.perf.Sim.elided_probes d.Jobs.stats.Ssync_coherence.Stats.elided_probes;
      Alcotest.(check int) (name ^ " link queue = stats")
        r.Harness.perf.Sim.link_queued_cycles
        d.Jobs.stats.Ssync_coherence.Stats.link_queued_cycles;
      Alcotest.(check bool) (name ^ " verdict") (Jobs.is_stalled r.Harness.health) d.Jobs.stalled)
    [
      (Arch.Opteron, Simlock.Mcs, 18, 1, 80_000);
      (Arch.Xeon, Simlock.Ttas, 20, 1, 80_000);
      (Arch.Tilera, Simlock.Ticket, 6, 512, 20_000);
      (Arch.Niagara, Simlock.Mutex, 8, 512, 20_000);
    ]

let test_figure_faults () =
  List.iter
    (fun (pid, algo, rate) ->
      let threads = Ssync_bench.Faults_bench.threads_for pid in
      let mops, stalled =
        Ssync_bench.Faults_bench.cell ~duration:Jobs.preempt_duration pid algo ~threads ~rate
      in
      let d, _ =
        done_
          (Jobs.run ~seed:0 ~index:0
             (lock_job pid algo ~threads ~n_locks:1 ~duration:Jobs.preempt_duration
                ~preempt:rate))
      in
      let p = Platform.get pid in
      let name = Printf.sprintf "%s %s p=%g" (Arch.platform_name pid) (Simlock.name algo) rate in
      check_float (name ^ " mops") mops
        (Platform.mops p ~ops:(Jobs.total_ops d) ~cycles:Jobs.preempt_duration);
      Alcotest.(check bool) (name ^ " stalled") stalled d.Jobs.stalled)
    [
      (Arch.Opteron, Simlock.Ticket, 0.005);
      (Arch.Niagara, Simlock.Tas, 0.001);
      (Arch.Tilera, Simlock.Clh, 0.005);
    ]

let test_figure_ssht () =
  let n_buckets, capacity = Jobs.ssht_config in
  let duration = Jobs.ssht_duration in
  List.iter
    (fun (pid, algo, threads) ->
      let p = Platform.get pid in
      let kind, expected =
        match algo with
        | Some algo ->
            ( Jobs.Ssht_lock { algo; n_buckets; capacity },
              Ssync_bench.Figures_app.ssht_lock_throughput pid algo ~threads ~n_buckets
                ~capacity ~duration )
        | None ->
            ( Jobs.Ssht_mp { n_buckets; capacity },
              Ssync_bench.Figures_app.ssht_mp_throughput pid ~threads ~n_buckets ~capacity
                ~duration )
      in
      let d, _ = done_ (Jobs.run ~seed:0 ~index:0 (job pid threads duration kind)) in
      check_float
        (Printf.sprintf "%s t%d mops" (Arch.platform_name pid) threads)
        expected
        (Platform.mops p ~ops:(Jobs.total_ops d) ~cycles:duration))
    [
      (Arch.Opteron, Some Simlock.Ticket, 18);
      (Arch.Tilera, Some Simlock.Mcs, 8);
      (Arch.Xeon, None, 18);
      (Arch.Niagara, None, 8);
    ]

(* ------------------------------------------------------------------ *)
(* Result check. *)

let subset w ~every =
  List.filteri (fun i _ -> i mod every = 0) (Jobs.plan w) |> Array.of_list

let test_reference_matches () =
  List.iter
    (fun (name, w) ->
      let plan = Array.of_list (Jobs.plan w) in
      let first = Array.sub plan 0 6 in
      List.iter
        (fun seed ->
          let reference = Check.load ~dir:"reference" ~workload:name ~seed in
          Alcotest.(check bool) (Printf.sprintf "%s seed %d covered" name seed) true
            (reference <> None);
          let p = Batch.run ~domains:1 ~seed first in
          Array.iteri
            (fun index o ->
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d job %d matches" name seed index)
                true
                (Check.check ?reference ~index ~key:(Jobs.key plan.(index)) ~first:None o))
            p.Batch.outcomes)
        [ 0; 3 ])
    Jobs.workloads;
  Alcotest.(check bool) "seed 10 not covered" true
    (Check.load ~dir:"reference" ~workload:"ssht" ~seed:10 = None)

let test_planted_mismatch () =
  let plan = subset Jobs.Locks ~every:40 in
  let p = Batch.run ~domains:1 ~seed:0 plan in
  let tbl : Check.table = Hashtbl.create 8 in
  Array.iteri
    (fun i o ->
      let d, _ = done_ o in
      Hashtbl.replace tbl i (Check.Full (Jobs.key plan.(i), Check.canonical d)))
    p.Batch.outcomes;
  let failures reference outcomes =
    Array.to_list
      (Array.mapi
         (fun index o ->
           Check.check ~reference ~index ~key:(Jobs.key plan.(index)) ~first:None o)
         outcomes)
    |> List.filter not |> List.length
  in
  Alcotest.(check int) "clean" 0 (failures tbl p.Batch.outcomes);
  (* one job's reference says one more operation was completed *)
  let d1, _ = done_ p.Batch.outcomes.(1) in
  let planted = { d1 with Jobs.ops = Array.mapi (fun i x -> if i = 0 then x + 1 else x) d1.Jobs.ops } in
  Hashtbl.replace tbl 1 (Check.Full (Jobs.key plan.(1), Check.canonical planted));
  Alcotest.(check int) "planted reference mismatch" 1 (failures tbl p.Batch.outcomes);
  (* the same, against a hashed reference *)
  let hashed : Check.table = Hashtbl.create 8 in
  Array.iteri
    (fun i o -> Hashtbl.replace hashed i (Check.Hashed (Check.hash (Check.canonical (fst (done_ o))))))
    p.Batch.outcomes;
  Hashtbl.replace hashed 2 (Check.Hashed (Check.hash (Check.canonical planted)));
  Alcotest.(check int) "planted hash mismatch" 1 (failures hashed p.Batch.outcomes);
  (* a raised job and a repeat that computed something else *)
  Alcotest.(check bool) "raised fails" false
    (Check.check ~index:0 ~key:"k" ~first:None (Jobs.Raised "boom"));
  Alcotest.(check bool) "repeat mismatch fails" false
    (Check.check ~index:1 ~key:(Jobs.key plan.(1)) ~first:(Some (Check.canonical planted))
       p.Batch.outcomes.(1));
  (* without a reference, a job that did no work fails the sanity rule *)
  Alcotest.(check bool) "no work fails" false
    (Check.check ~index:1 ~key:"k" ~first:None
       (Jobs.Done ({ d1 with Jobs.ops = Array.map (fun _ -> 0) d1.Jobs.ops }, snd (done_ p.Batch.outcomes.(1)))))

(* ------------------------------------------------------------------ *)
(* Virtual counters: identical untraced, traced, and at 1 and 2
   domains. *)

let test_virtual_identity () =
  List.iter
    (fun (name, w) ->
      let plan = subset w ~every:25 in
      let lines p =
        Array.to_list (Array.map (fun o -> Check.canonical (fst (done_ o))) p.Batch.outcomes)
      in
      let spans = Span.create () in
      let timed = lines (Batch.run ~domains:1 ~seed:5 plan) in
      let traced_pass = Batch.run ~spans ~domains:1 ~seed:5 plan in
      let two = lines (Batch.run ~domains:2 ~seed:5 plan) in
      Alcotest.(check (list string)) (name ^ " traced = timed") timed (lines traced_pass);
      Alcotest.(check (list string)) (name ^ " 2 domains = 1") timed two;
      let acc = Layers.accounts (Span.spans spans) in
      Alcotest.(check int) (name ^ " one account per job") (Array.length plan) (List.length acc);
      List.iter
        (fun a ->
          Alcotest.(check bool) (name ^ " run loop inside the job") true
            (a.Layers.loop_s > 0. && a.Layers.loop_s <= a.Layers.job_s);
          Alcotest.(check (float 1e-9)) (name ^ " parts add up") a.Layers.job_s
            (a.Layers.setup_s +. a.Layers.loop_s +. a.Layers.overhead_s +. a.Layers.residual_s))
        acc;
      Alcotest.check_raises "spans on two domains"
        (Invalid_argument "Batch.run: spans are recorded on one domain only") (fun () ->
          ignore (Batch.run ~spans ~domains:2 ~seed:5 plan)))
    Jobs.workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "logic",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile;
          Alcotest.test_case "batch sizes" `Quick test_batch_sizes;
          Alcotest.test_case "self time on nested spans" `Quick test_self_time;
          Alcotest.test_case "job span accounting" `Quick test_accounts;
          Alcotest.test_case "metric names" `Quick test_metric_names;
        ] );
      ( "identity",
        [
          Alcotest.test_case "lock jobs = Lock_bench.throughput" `Quick test_figure_locks;
          Alcotest.test_case "preempt jobs = Faults_bench cells" `Quick test_figure_faults;
          Alcotest.test_case "ssht jobs = Figures_app" `Quick test_figure_ssht;
          Alcotest.test_case "committed reference matches" `Quick test_reference_matches;
          Alcotest.test_case "planted mismatch fails" `Quick test_planted_mismatch;
          Alcotest.test_case "virtual counters identical" `Quick test_virtual_identity;
        ] );
    ]
