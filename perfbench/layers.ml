(* From passes, spans and probes to metric values. *)

open Ssync_platform
open Ssync_coherence

let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* End to end (tracing off). *)

let end_to_end (passes : Batch.pass list) : Report.value list =
  let medianp f = Stat.median (List.map f passes) in
  let jobs_ms =
    List.concat_map
      (fun p -> List.map (fun h -> h.Jobs.wall_s *. 1e3) (Batch.hosts p))
      passes
  in
  [
    Report.value "wall_s" (medianp (fun p -> p.Batch.makespan));
    Report.value "sim_mcycles_per_s"
      (medianp (fun p ->
           fi (sumi (fun d -> d.Jobs.sim_cycles) (Batch.digests p))
           /. 1e6 /. p.Batch.makespan));
    Report.value "job_ms_p50" (Stat.median jobs_ms);
    Report.value "job_ms_p90"
      (if Stat.tail_ok 0.9 jobs_ms then Stat.percentile 0.9 jobs_ms
       else invalid_arg "Layers.end_to_end: fewer than ten samples above p90");
    Report.value "alloc_mwords"
      (medianp (fun p -> sumf (fun h -> h.Jobs.minor_words) (Batch.hosts p) /. 1e6));
    Report.value "peak_rss_mb" (Report.peak_rss_mb ());
  ]

(* ------------------------------------------------------------------ *)
(* Job-span accounting.  Per job: the setup closure, the engine run
   loop, the self time of every other span under the job (the overhead
   of driving the simulation: [Harness.run] minus setup and loop, or
   [Sim.create] + spawn + [run_health] outside the loop +
   [Memory.dispose]), and the job span's own self time (the residual).
   The four add up to the job span. *)

type account = {
  job_s : float;
  setup_s : float;
  loop_s : float;
  overhead_s : float;
  residual_s : float;
}

let accounts (spans : Span.t list) : account list =
  let zero = { job_s = 0.; setup_s = 0.; loop_s = 0.; overhead_s = 0.; residual_s = 0. } in
  let by_job = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Span.t), self) ->
      let a = Option.value (Hashtbl.find_opt by_job s.job) ~default:zero in
      Hashtbl.replace by_job s.job
        (match s.name with
        | "job" -> { a with job_s = Span.dur s; residual_s = self }
        | "setup" -> { a with setup_s = a.setup_s +. Span.dur s }
        | "sim.run_loop" -> { a with loop_s = a.loop_s +. Span.dur s }
        | _ -> { a with overhead_s = a.overhead_s +. self }))
    (Span.self_times spans);
  Hashtbl.fold (fun job a acc -> (job, a) :: acc) by_job []
  |> List.sort compare |> List.map snd

(* ------------------------------------------------------------------ *)
(* Per layer (traced run). *)

let platform_key pid = String.lowercase_ascii (Arch.platform_name pid)

let per_layer ~(plan : Jobs.job array) ~(untraced : Batch.pass list)
    ~(traced : Batch.pass list) ~(spans : Span.t list) ~(pooled : Batch.pass list)
    ~(probes : Probes.t) : Report.value list =
  let v = Report.value in
  let medianp passes f = Stat.median (List.map f passes) in
  (* virtual counters are identical in every pass; take the first *)
  let dl = Batch.digests (List.hd untraced) in
  if List.length dl <> Array.length plan then
    invalid_arg "Layers.per_layer: a job raised";
  let events = fi (sumi (fun d -> d.Jobs.events) dl) in
  let loop_s = medianp untraced (fun p -> sumf (fun h -> h.Jobs.loop_s) (Batch.hosts p)) in
  let st f = fi (sumi (fun d -> f d.Jobs.stats) dl) in
  let accesses (s : Stats.t) =
    s.Stats.loads.Stats.count + s.Stats.stores.Stats.count + s.Stats.atomics.Stats.count
  in
  (* pool *)
  let sum_job_wall p = sumf (fun h -> h.Jobs.wall_s) (Batch.hosts p) in
  let make1 = medianp untraced (fun p -> p.Batch.makespan) in
  let make2 = medianp pooled (fun p -> p.Batch.makespan) in
  let pool =
    [
      v "pool.speedup" (ratio make1 make2);
      v "pool.job_inflation"
        (ratio (medianp pooled sum_job_wall) (medianp untraced sum_job_wall));
      v "pool.idle_frac"
        (medianp pooled (fun p ->
             1. -. ratio (sum_job_wall p) (fi p.Batch.domains *. p.Batch.makespan)));
    ]
  in
  (* spans *)
  let acc = accounts spans in
  let n_acc = fi (max 1 (List.length acc)) in
  let harness =
    [
      v "harness.setup_us" (sumf (fun a -> a.setup_s) acc /. n_acc *. 1e6);
      v "harness.overhead_us" (sumf (fun a -> a.overhead_s) acc /. n_acc *. 1e6);
      v "span.residual_frac"
        (ratio (sumf (fun a -> a.residual_s) acc) (sumf (fun a -> a.job_s) acc));
    ]
  in
  (* sim *)
  let sim =
    [
      v "sim.events" events;
      v "sim.run_s" loop_s;
      v "sim.ns_per_event" (ratio (loop_s *. 1e9) events);
      v "sim.parks" (fi (sumi (fun d -> d.Jobs.parks) dl));
      v "sim.wakeups" (fi (sumi (fun d -> d.Jobs.wakeups) dl));
      v "sim.elided_probes" (st (fun s -> s.Stats.elided_probes));
      v "sim.sim_cycles" (fi (sumi (fun d -> d.Jobs.sim_cycles) dl));
    ]
  in
  (* event queue: every logical event priced at the job's live depth
     (its thread count), an upper bound since direct-run continues
     bypass the queue *)
  let eq_cost d = List.assoc d probes.Probes.eventq in
  let eventq_est =
    sumf
      (fun (j, d) ->
        fi d.Jobs.events *. Probes.eventq_at probes.Probes.eventq j.Jobs.threads)
      (List.combine (Array.to_list plan) dl)
    *. 1e-9
  in
  let eventq =
    [
      v "eventq.push_pop_ns_d16" (eq_cost 16).Probes.ns;
      v "eventq.push_pop_ns_d64" (eq_cost 64).Probes.ns;
      v "eventq.push_pop_ns_d256" (eq_cost 256).Probes.ns;
      v "eventq.words_per_op" (eq_cost 64).Probes.words;
      v "eventq.est_s" eventq_est;
    ]
  in
  (* memory and cost model: real accesses (elided probes are booked in
     bulk, never performed) priced at the platform's probed hit and
     miss costs *)
  let mem_est, cm_est =
    List.fold_left
      (fun (m, c) (j, d) ->
        let pc = Probes.for_platform probes j.Jobs.pid in
        let s = d.Jobs.stats in
        let real = fi (max 0 (accesses s - s.Stats.elided_probes)) in
        let hits =
          Float.min real (fi (max 0 (s.Stats.local_hits - s.Stats.elided_probes)))
        in
        let misses = real -. hits in
        ( m +. (hits *. pc.Probes.hit.Probes.ns) +. (misses *. pc.Probes.miss.Probes.ns),
          c
          +. (real *. pc.Probes.op_latency.Probes.ns)
          +. (misses *. pc.Probes.fill_path.Probes.ns) ))
      (0., 0.)
      (List.combine (Array.to_list plan) dl)
  in
  let mem_est = mem_est *. 1e-9 and cm_est = cm_est *. 1e-9 in
  let pcs = probes.Probes.platforms in
  let over_platforms f = Stat.mean (List.map f pcs) in
  let total_acc = st accesses in
  let memory =
    [
      v "memory.accesses" total_acc;
      v "memory.local_hit_frac" (ratio (st (fun s -> s.Stats.local_hits)) total_acc);
      v "memory.invalidations" (st (fun s -> s.Stats.invalidations));
      v "memory.queued_cycles" (st (fun s -> s.Stats.queued_cycles));
      v "memory.link_queued_cycles" (st (fun s -> s.Stats.link_queued_cycles));
    ]
    @ List.map
        (fun pc ->
          v ("memory.access_ns." ^ platform_key pc.Probes.platform.Platform.id)
            pc.Probes.miss.Probes.ns)
        pcs
    @ List.map
        (fun pc ->
          v ("memory.hit_ns." ^ platform_key pc.Probes.platform.Platform.id)
            pc.Probes.hit.Probes.ns)
        pcs
    @ [
        v "memory.words_per_access"
          (Stat.mean
             (List.concat_map
                (fun pc -> List.map (fun c -> c.Probes.cost.Probes.words) pc.Probes.grid)
                pcs));
        v "memory.create_us" (over_platforms (fun pc -> pc.Probes.create.Probes.ns /. 1e3));
        v "memory.est_s" mem_est;
        v "cost_model.op_latency_ns" (over_platforms (fun pc -> pc.Probes.op_latency.Probes.ns));
        v "cost_model.fill_path_ns" (over_platforms (fun pc -> pc.Probes.fill_path.Probes.ns));
        v "cost_model.est_s" cm_est;
      ]
  in
  (* GC, from the untraced passes (spans allocate) *)
  let gc_sum f p = sumf f (Batch.hosts p) in
  let minor = gc_sum (fun h -> h.Jobs.minor_words) in
  let gc =
    [
      v "gc.minor_words_per_event" (medianp untraced (fun p -> ratio (minor p) events));
      v "gc.promoted_frac"
        (medianp untraced (fun p ->
             ratio (gc_sum (fun h -> h.Jobs.promoted_words) p) (minor p)));
      v "gc.major_collections"
        (medianp untraced (gc_sum (fun h -> fi h.Jobs.major_collections)));
    ]
  in
  let attrib =
    [
      v "attrib.eventq_frac" (ratio eventq_est loop_s);
      v "attrib.memory_frac" (ratio mem_est loop_s);
      v "attrib.unattributed_frac" (1. -. ratio (eventq_est +. mem_est) loop_s);
      v "trace.overhead_frac"
        (ratio (medianp traced (fun p -> p.Batch.makespan)) make1 -. 1.);
    ]
  in
  pool @ harness @ sim @ eventq @ memory @ gc @ attrib
