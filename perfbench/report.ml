(* The benchmark's metrics: their names, units and directions, the
   end-to-end metric each per-layer metric should move (and on which
   workload), and the arithmetic that turns passes, spans and probes
   into values.  Host time unless the description says virtual. *)

type def = {
  name : string;
  unit_ : string;
  better : string;  (** "lower" or "higher" *)
  moves : string;  (** the end-to-end metric it feeds, or what it guards *)
}

let d name unit_ better moves = { name; unit_; better; moves }

(* Tracing off.  [setup_s] is measured by the launcher (perfbench/run.py)
   around this program's process start. *)
let end_to_end =
  [
    d "wall_s" "s" "lower" "median makespan of one batch";
    d "sim_mcycles_per_s" "Mcycles/s" "higher" "virtual Mcycles simulated per host second";
    d "job_ms_p50" "ms" "lower" "median host latency of one simulation";
    d "job_ms_p90" "ms" "lower" "90th percentile host latency of one simulation";
    d "alloc_mwords" "Mwords" "lower" "minor words allocated per batch";
    d "peak_rss_mb" "MB" "lower" "VmHWM of the process that ran the workload";
    d "setup_s" "s" "lower" "process start to the first job";
  ]

let platforms = [ "opteron"; "xeon"; "niagara"; "tilera" ]

(* Traced run. *)
let per_layer =
  [
    d "pool.speedup" "x" "higher" "none gated (timed runs use one domain); for --jobs users";
    d "pool.job_inflation" "x" "lower" "none gated; sum of job wall at 2 domains over 1";
    d "pool.idle_frac" "frac" "lower" "none gated; idle share of the 2-domain pass";
    d "harness.setup_us" "us" "lower" "wall_s and job_ms_p50 on locks; ~0 share on ssht";
    d "harness.overhead_us" "us" "lower" "wall_s and job_ms_p50 on locks; ~0 share on ssht";
    d "span.residual_frac" "frac" "lower" "share of the job span outside setup, overhead and run loop";
    d "sim.events" "count" "lower" "virtual identity: must not move in a speed-only change";
    d "sim.run_s" "s" "lower" "wall_s on all three workloads";
    d "sim.ns_per_event" "ns" "lower" "wall_s on all three; direct-run on ssht, parking on locks";
    d "sim.parks" "count" "higher" "wall_s on locks (virtual identity)";
    d "sim.wakeups" "count" "higher" "wall_s on locks (virtual identity)";
    d "sim.elided_probes" "count" "higher" "wall_s on locks (virtual identity)";
    d "sim.sim_cycles" "cycles" "higher" "virtual identity: must never move in a speed-only change";
    d "eventq.push_pop_ns_d16" "ns" "lower" "wall_s on preempt";
    d "eventq.push_pop_ns_d64" "ns" "lower" "wall_s on preempt";
    d "eventq.push_pop_ns_d256" "ns" "lower" "wall_s on preempt";
    d "eventq.words_per_op" "words" "lower" "alloc_mwords on preempt";
    d "eventq.est_s" "s" "lower" "wall_s on preempt; little on ssht";
    d "memory.accesses" "count" "lower" "wall_s on ssht (virtual identity)";
    d "memory.local_hit_frac" "frac" "higher" "wall_s on ssht (virtual identity)";
    d "memory.invalidations" "count" "lower" "wall_s on ssht (virtual identity)";
    d "memory.queued_cycles" "cycles" "lower" "virtual identity";
    d "memory.link_queued_cycles" "cycles" "lower" "virtual identity";
  ]
  @ List.map
      (fun p -> d ("memory.access_ns." ^ p) "ns" "lower" "wall_s on ssht")
      platforms
  @ List.map
      (fun p -> d ("memory.hit_ns." ^ p) "ns" "lower" "wall_s on ssht")
      platforms
  @ [
      d "memory.words_per_access" "words" "lower" "alloc_mwords on ssht";
      d "memory.create_us" "us" "lower" "wall_s and job_ms_p50 on locks";
      d "memory.est_s" "s" "lower" "wall_s on ssht";
      d "cost_model.op_latency_ns" "ns" "lower" "wall_s on ssht (Opteron and Tilera routes)";
      d "cost_model.fill_path_ns" "ns" "lower" "wall_s on ssht (Opteron and Tilera routes)";
      d "cost_model.est_s" "s" "lower" "wall_s on ssht; part of memory.est_s";
      d "gc.minor_words_per_event" "words" "lower" "alloc_mwords on all three";
      d "gc.promoted_frac" "frac" "lower" "alloc_mwords on all three; wall_s on locks";
      d "gc.major_collections" "count" "lower" "wall_s on locks";
      d "attrib.eventq_frac" "frac" "lower" "share of sim.run_s estimated in Event_queue";
      d "attrib.memory_frac" "frac" "lower" "share of sim.run_s estimated in Memory";
      d "attrib.unattributed_frac" "frac" "lower" "share of sim.run_s no probe explains";
      d "trace.overhead_frac" "frac" "lower" "traced over untraced wall, minus one";
    ]

(* ------------------------------------------------------------------ *)
(* Values. *)

type value = { def : def; v : float }

let value name v =
  match
    List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
  with
  | Some def -> { def; v }
  | None -> invalid_arg ("Report.value: unknown metric " ^ name)

(* Every value is a finite number; a non-finite one is a defect of the
   benchmark, reported instead of printed as invalid JSON. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.json_number: non-finite metric"

let metrics_json values =
  "{"
  ^ String.concat ", "
      (List.map
         (fun { def; v } ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} def.name
             (json_number v) def.unit_)
         values)
  ^ "}"

let print_table values =
  List.iter
    (fun { def; v } ->
      Printf.printf "  %-28s %16.6g %-9s %s\n" def.name v def.unit_ def.moves)
    values

(* ------------------------------------------------------------------ *)
(* Host metadata, so numbers from different hosts are never compared. *)

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

(* Peak resident set of this process, MB: [VmHWM] where the kernel
   reports it, the GC's top heap size otherwise. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
               Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                 (fun kb -> Some (float_of_int kb /. 1024.))
             else None)
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let host_json ~domains =
  Printf.sprintf
    {|{"cpu_model": %s, "nproc": %d, "ocaml_version": %s, "domains": %d}|}
    (json_string (cpu_model ()))
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) domains
