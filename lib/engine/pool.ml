(* A fixed-size domain pool for fanning independent simulation jobs
   across cores.

   Jobs are pure thunks: each one builds its own [Sim.t] (simulations
   share no mutable state — the engine's counters are domain-local and
   everything else hangs off the per-run [Sim.t]/[Memory.t]), so any
   assignment of jobs to domains computes the same values.  [run]
   therefore returns results indexed by submission order no matter
   which domain ran what, which is what lets the benchmark driver
   render tables byte-identically at any [--jobs] count.

   Scheduling is a single atomic work counter: domains pull the next
   unclaimed job index until none remain.  That gives dynamic load
   balance (job durations vary by orders of magnitude across figure
   sections) without any ordering hazard, because ordering lives in the
   results array, not in execution time.

   Each job's engine-counter delta ([Sim.perf]), wall time and GC
   allocation deltas are captured inside the domain that executed it;
   callers sum the per-job stats into per-section totals instead of
   reading a global. *)

module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

type stats = {
  wall_ns : int;  (** wall-clock spent executing the job *)
  perf : Sim.perf;  (** engine-counter delta attributable to the job *)
  minor_words : int;  (** minor-heap words the job allocated *)
  promoted_words : int;  (** words promoted to the major heap meanwhile *)
  trace : Trace.t option;
      (** the job's trace, when tracing was requested ([Trace.requested]):
          one fresh sink per job, installed in the executing domain, so
          the per-job traces are independent of the job-to-domain
          assignment and merge deterministically in submission order *)
  metrics : Metrics.t option;
      (** the job's virtual-time metrics ([Metrics.requested]): like
          [trace], one fresh sink per job installed around it in the
          executing domain — samples are keyed by virtual time and
          stable ids only, so the dumps are byte-identical at any
          [--jobs] count *)
}

type 'a outcome = Ok_r of 'a | Error_r of exn | Not_run

exception Job_failures of (int * exn) list

let () =
  Printexc.register_printer (function
    | Job_failures fails ->
        Some
          (Printf.sprintf "Pool.Job_failures: %d jobs failed\n%s"
             (List.length fails)
             (String.concat "\n"
                (List.map
                   (fun (i, e) ->
                     Printf.sprintf "  job %d: %s" i (Printexc.to_string e))
                   fails)))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* Run [thunks.(i)] capturing its result, engine-counter delta, wall
   time and allocation.  Must execute in the domain that owns the
   slot's work so the domain-local counters attribute correctly: the
   engine counters and both GC counts ([Gc.minor_words] and
   [Gc.counters] read only this domain, unlike [Gc.quick_stat]). *)
let exec_one ~traced ~sampled (thunks : (unit -> 'a) array)
    (results : 'a outcome array) (stats : stats array) i =
  let trace = if traced then Some (Trace.start ()) else None in
  let metrics = if sampled then Some (Metrics.start ()) else None in
  let before = Sim.cumulative_perf () in
  let _, promoted0, _ = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  (results.(i) <-
    (match thunks.(i) () with
    | v -> Ok_r v
    | exception e -> Error_r e));
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let minor_words = int_of_float (Gc.minor_words () -. minor0) in
  let _, promoted1, _ = Gc.counters () in
  if traced then ignore (Trace.stop ());
  if sampled then ignore (Metrics.stop ());
  stats.(i) <-
    {
      wall_ns;
      perf = Sim.perf_diff (Sim.cumulative_perf ()) before;
      minor_words;
      promoted_words = int_of_float (promoted1 -. promoted0);
      trace;
      metrics;
    }

let finish (results : 'a outcome array) (stats : stats array) :
    ('a * stats) array =
  (* Collect every failure first: with independent jobs fanned wide, a
     single re-raised exception hides how broad the breakage was.  One
     failure re-raises the original exception unchanged (backtraces,
     matching callers); several raise [Job_failures], lowest index
     first. *)
  let fails =
    Array.to_seq results
    |> Seq.mapi (fun i r -> (i, r))
    |> Seq.filter_map (function
         | i, Error_r e -> Some (i, e)
         | _ -> None)
    |> List.of_seq
  in
  (match fails with
  | [] -> ()
  | [ (_, e) ] -> raise e
  | _ :: _ -> raise (Job_failures fails));
  Array.mapi
    (fun i r ->
      match r with
      | Ok_r v -> (v, stats.(i))
      | Error_r _ -> assert false
      | Not_run ->
          (* only reachable if a domain died without raising, which
             [Domain.join] would already have surfaced *)
          invalid_arg (Printf.sprintf "Pool.run: job %d never ran" i))
    results

let zero_stats =
  { wall_ns = 0; perf = Sim.perf_zero; minor_words = 0; promoted_words = 0;
    trace = None; metrics = None }

let run ?jobs (thunks : (unit -> 'a) array) : ('a * stats) array =
  let n = Array.length thunks in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let results = Array.make n Not_run in
  let stats = Array.make n zero_stats in
  (* read once in the submitting domain; workers capture the values, so
     no domain races on the flags themselves *)
  let traced = !Trace.requested in
  let sampled = !Metrics.requested in
  if jobs = 1 || n <= 1 then
    (* Inline path: no domains, no atomics — the reference behaviour
       the parallel path must reproduce byte-for-byte. *)
    for i = 0 to n - 1 do
      exec_one ~traced ~sampled thunks results stats i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          exec_one ~traced ~sampled thunks results stats i;
          loop ()
        end
      in
      loop ()
    in
    let n_domains = min (jobs - 1) (n - 1) in
    let domains = Array.init n_domains (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end;
  (* Re-raises the exception of the lowest-indexed failed job, so error
     reporting is as deterministic as success is. *)
  finish results stats

let total_stats (results : ('a * stats) array) : stats =
  Array.fold_left
    (fun acc (_, s) ->
      {
        wall_ns = acc.wall_ns + s.wall_ns;
        perf = Sim.perf_add acc.perf s.perf;
        minor_words = acc.minor_words + s.minor_words;
        promoted_words = acc.promoted_words + s.promoted_words;
        trace = None;
        metrics = None;
      })
    zero_stats results

(* Per-job traces in submission order (empty when tracing was off). *)
let traces (results : ('a * stats) array) : Trace.t list =
  Array.to_list results |> List.filter_map (fun (_, s) -> s.trace)

(* Per-job metrics sinks in submission order (empty when sampling was
   off). *)
let metrics (results : ('a * stats) array) : Metrics.t list =
  Array.to_list results |> List.filter_map (fun (_, s) -> s.metrics)
