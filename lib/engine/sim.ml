(* The discrete-event simulation engine.

   Simulated threads are ordinary OCaml functions running as coroutines
   via effect handlers: every memory operation (or explicit pause)
   performs an effect; the engine computes the operation's virtual-time
   cost against the coherent memory model and resumes the thread when it
   completes.  This lets the lock/message-passing algorithms be written
   in direct style, exactly as their native counterparts.

   Spin loops go through a dedicated effect ([E_spin], surfaced as
   {!spin_load} and friends): semantically the loop "probe; while the
   result equals [while_]: pause [poll]; probe", but executed
   event-driven — once the probes reach a steady state (inert local
   hits), the thread parks on the line's wait list inside the memory
   model and is woken, on the exact virtual-time grid the poll loop
   would have used, by the next real access to the line.  Simulated
   timestamps are preserved; only the O(poll-iterations) event churn
   collapses to O(1).  Under fault injection the same effect falls back
   to literal pause/probe stepping so every scheduling point draws from
   the per-thread fault streams in the original order.

   Two robustness layers sit on top of the pure engine:

   - Fault injection ([Fault.spec], strictly opt-in): every scheduling
     point — the completion of a memory op or pause — may be perturbed
     by deterministic, seeded preemption/jitter draws, and threads may
     crash-stop.  With [Fault.none] (the default) no draws are consumed
     and runs are bit-identical to the fault-free engine.

   - A progress watchdog: the engine records per-thread last-progress
     timestamps, so [run_health] can report *why* a run ended —
     [Completed] (all threads returned) versus [Stalled] (live threads
     remained at the [until] backstop or deadlocked on an empty queue)
     — instead of silently discarding the tail of the schedule.

   {2 Sharded (PDES) execution}

   With [create ~shards:n] (n > 1) the engine runs conservative-window
   parallel DES: simulated threads and cache lines are partitioned into
   shards along topology-node boundaries, each shard owns a private
   event queue and memory slot, and shards advance together through
   bounded time windows [w, w + lookahead) where [lookahead] is the
   minimum cross-node transfer latency of the platform's cost model.
   Inside a window a shard may touch only lines *resident* on it; any
   cross-shard interaction — a memory access to a foreign-resident
   line, a barrier arrival, a parker operation, a wakeup of a foreign
   waiter — is deferred as a timestamped entry into the shard's outbox
   and executed by a single-threaded coordinator at the window barrier,
   in global (time, per-shard FIFO) order, migrating line residency to
   the requester as it goes.

   The coherence model mutates line state at access-issue time, so the
   true lookahead on a *shared* line is zero: windows alone cannot make
   cross-shard interleavings safe.  Soundness therefore comes from
   conflict detection, not from the window width (which is only a
   batching heuristic): every access stamps its line with its (time,
   tid) key and any out-of-order service — including same-time
   different-thread pairs, whose serial tie-break order (queue
   insertion order) is unreconstructable across shards — aborts the
   entire attempt with [Shard_conflict].  Jobs are pure (they build
   their own [Sim.t]/[Memory.t]), so the serial run is the semantics,
   and a sharded run either produces byte-identical results or aborts.
   Workloads whose threads genuinely share hot lines (lock contention
   sweeps) conflict in nearly every window; partitioned workloads
   (per-node data, message passing between windows longer than the
   lookahead) keep their shards independent and scale.

   {2 Speculative replay}

   An abort no longer condemns the whole job to a serial re-run
   unconditionally.  Conflicts are *attributed*: a line-stamp failure
   records the conflicting line, a resource violation carries the
   implicated lines in its [Memory.Sharded_violation] payload, and the
   harness ([Harness.run]) rolls the memory back to a checkpoint taken
   at virtual time 0 (see [Memory.checkpoint]) and replays the attempt
   with those lines *promoted* — tagged with a residency sentinel no
   shard matches, so every access to them defers to the inter-window
   coordinator and executes in ascending global time, serial-within-
   window.  Replays are deterministic (jobs are pure, allocation order
   is fixed, the rollback restores every observable), so a replay
   either survives with the enlarged promoted set or surfaces the next
   conflict; after K failed replays — or on a conflict with no line
   attribution (cross-shard peek, same-time parker tie, mid-window
   alloc, runaway) — the attempt *escalates*: [Shard_conflict]
   propagates to [serial_fallback], which re-runs the job serially.
   [perf] reports the whole story per run: [windows],
   [speculative_replays], [promoted_lines], [serial_escalations].

   Tracing and crash-stop fault injection force [shards = 1] at
   creation: traces record engine-internal event order, and the
   crash bookkeeping mutates global state mid-run; both are defined by
   the serial engine.  The one exception is [Trace.allow_sharded]
   (speculation-lifecycle tracing): the per-access hooks stay dark on
   worker domains and only coordinator-context lifecycle events —
   window open/close, aborts, checkpoint/restore, promotion, replay,
   escalation — reach the ring, so sharding stays on.

   {2 Virtual-time metrics}

   With a [Metrics] sink installed (the [--metrics] / heatmap paths)
   the engine charges thread run-state gauges — how many simulated
   threads were runnable, spinning or parked on each virtual-time
   bucket — plus park/wake event counts into the executing shard's
   slot accumulator, alongside the coherence-level samples the memory
   model records there.  Accumulators ride [Memory]'s branch / merge /
   rollback discipline, so aborted speculative attempts leave no
   samples and totals are identical at any shard count.  The
   strategy-dependent tallies (windows, replays, promotions) go
   straight to the domain sink instead: they describe the execution
   strategy, not the simulated machine, and are excluded from
   deterministic dumps. *)

open Ssync_platform
open Ssync_coherence
module Rng = Ssync_workload.Rng
module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

(* Per-thread bookkeeping for faults and the watchdog.  [pend_ik] /
   [pend_uk] hold the thread's suspended continuation between the
   scheduling of its resumption and the event firing; [run_ik] /
   [run_uk] are closures allocated once per thread that continue it —
   the hot path schedules them directly instead of allocating a fresh
   closure per operation.  A coroutine has at most one pending
   resumption, so one slot of each type suffices. *)
type thread_state = {
  tid : int;
  core : int;
  sh : shard; (* the shard this thread executes on (shard 0 serially) *)
  rng : Rng.t; (* this thread's private fault stream *)
  crash_at : int; (* -1 = never *)
  mutable last_progress : int;
  mutable finished : bool;
  mutable crashed : bool;
  mutable pend_ik : (int, unit) Effect.Deep.continuation option;
  mutable pend_iv : int;
  mutable pend_uk : (unit, unit) Effect.Deep.continuation option;
  mutable run_ik : unit -> unit;
  mutable run_uk : unit -> unit;
  mutable m_state : int;
      (* metrics run-state: 0 runnable / 1 spinning / 2 parked /
         3 dead — codes chosen so [Metrics.k_runnable + m_state] is
         the gauge kind.  Maintained only while metrics are on. *)
  mutable m_since : int; (* virtual time the current run-state began *)
  mutable e_op : Arch.memop;
  mutable e_addr : int;
  mutable e_x : int;
  mutable e_y : int;
  mutable e_fetch : bool;
  mutable e_while : int;
  mutable e_poll : int;
      (* the payload of the thread's latest per-operation perform,
         stored by [effc] for the handlers [spawn] preallocates *)
}

(* One shard of the simulation.  Serial execution is the one-shard
   special case: shard 0 owns the only queue and the only clock, and
   every per-shard counter below is simply the engine's counter.
   Sharded counters are summed by the (single-threaded) run loop at
   barriers and run end — each worker domain writes only its own
   shard's fields inside a window, so nothing races. *)
and shard = {
  sid : int;
  q : Event_queue.t;
  slot : Memory.slot; (* this shard's memory scratch + stats *)
  popped : Event_queue.popped; (* preallocated pop-out cell *)
  mutable s_now : int; (* this shard's virtual clock *)
  mutable s_window_end : int;
      (* inclusive bound on event times this shard may execute:
         [max_int] serially, the window end inside a window, [-1] while
         the coordinator drains outboxes (disables direct-run) *)
  mutable s_fuel : int; (* consecutive direct-run steps since last pop *)
  mutable s_events : int; (* logical resumptions: pops + direct-runs *)
  mutable s_live : int;
  mutable s_parks : int;
  mutable s_wakeups : int;
  mutable s_preempt : int;
  mutable s_jitter : int;
  mutable out : outentry list; (* deferred cross-shard work, reversed *)
  mutable s_conflicts : int list;
      (* line ids implicated in conflicts this shard detected in the
         current attempt (per-shard so worker domains never race) *)
  mutable s_hard : bool;
      (* this shard hit a non-attributable conflict (peek, alloc,
         user-code exception): the attempt must escalate to serial
         instead of replaying speculatively *)
}

(* A deferred cross-shard operation: executed by the coordinator at the
   window barrier, in ascending [o_time] with per-shard FIFO order
   preserved (the serial tie-break for same-time entries of one shard;
   same-time entries of *different* shards have no reconstructable
   serial order — harmless for commuting entries, caught by the line
   stamps or the parker-order check otherwise). *)
and outentry = {
  o_time : int;
  o_kind : int; (* kind_wake / kind_mem / kind_barrier / kind_parker *)
  o_addr : int; (* line to migrate to [o_st]'s shard, -1 = none *)
  o_st : thread_state;
  o_run : unit -> unit;
}

let kind_wake = 0
let kind_mem = 1
let kind_barrier = 2
let kind_parker = 3

(* Cumulative engine counters for the benchmark harness's perf report.
   Domain-local: each domain accumulates the simulations it ran itself,
   so concurrent sims never race on the totals and a parallel harness
   can attribute counters per job by snapshotting around it in the
   executing domain. *)
type counters = {
  mutable c_events : int;
  mutable c_parks : int;
  mutable c_wakeups : int;
  mutable c_elided : int;
  mutable c_link_queued : int;
  mutable c_sim_cycles : int;
  mutable c_wall_ns : int;
  mutable c_windows : int;
  mutable c_replays : int;
  mutable c_promoted : int;
  mutable c_escalations : int;
      (* the speculation story: windows completes only on successful
         sharded runs; replays/promotions are booked as they happen (so
         an attempt that eventually escalates still shows its cost);
         escalations are booked by [serial_fallback] *)
}

let counters_key : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        c_events = 0;
        c_parks = 0;
        c_wakeups = 0;
        c_elided = 0;
        c_link_queued = 0;
        c_sim_cycles = 0;
        c_wall_ns = 0;
        c_windows = 0;
        c_replays = 0;
        c_promoted = 0;
        c_escalations = 0;
      })

let counters () = Domain.DLS.get counters_key

type t = {
  platform : Platform.t;
  mem : Memory.t;
  shards : shard array; (* at least one; serial execution = exactly one *)
  nshards : int;
  use_domains : bool; (* drain shards on worker domains (multicore)? *)
  lookahead : int; (* window width: min cross-node transfer latency *)
  mutable in_window : bool;
  mutable abort : bool; (* a conflict was detected; attempt is doomed *)
  mutable solo_run : bool;
      (* the current window runs exactly one shard (all other queues
         empty): line deferral and the resource ownership check are
         skipped — nothing runs concurrently — while all stamp checks
         stay on, so conflict detection is unchanged *)
  mutable stamps_armed : bool;
      (* window fusing: a previous [run_health] on this sim already
         cleared the stamps and derived residency; subsequent runs
         reuse both instead of re-deriving per call *)
  mutable promoted : int list;
      (* lines promoted to coordinator-mediated access (residency
         sentinel), accumulated across speculative replays *)
  mutable t_conflicts : int list; (* coordinator-detected conflict lines *)
  mutable t_hard : bool; (* coordinator-detected non-attributable abort *)
  mutable n_windows : int;
  mutable n_replays : int;
  mutable n_promoted : int;
  mutable res_hwm : int; (* lines below this have residency assigned *)
  mutable spawned : int;
  faults : Fault.spec;
  faults_active : bool;
  faults_parkable : bool;
      (* active spec is jitter-only: parking stays exact because inert
         probes draw nothing (see [event_driven] / [spin_loop]) *)
  parking : bool; (* event-driven waiter wakeup enabled? *)
  tstates : (int, thread_state) Hashtbl.t;
  mutable crashed_tids : int list; (* reversed; serial-only mutation *)
  mutable wall_ns : int;
  cum : counters; (* the creating domain's cumulative totals *)
  mutable booked_lq : int;
      (* [Stats.link_queued_cycles] already booked into
         [cum.c_link_queued]: successful runs book the delta, aborted
         attempts book nothing (their stats roll back with the
         memory), so the cumulative total never double-counts a
         replayed schedule *)
  mutable run_until : int; (* current run's [until] backstop *)
  trace : Trace.t option;
      (* the domain's trace sink, cached at creation time (zero
         overhead when off: one option match per hook site) *)
}

type barrier = {
  mutable expected : int;
  mutable arrived : int;
  mutable waiters : (thread_state * (unit, unit) Effect.Deep.continuation) list;
}

(* A single-waiter parking spot for non-memory waiting (e.g. the
   Tilera's hardware message queues): the waiter parks with its poll
   period; [unpark] wakes it at the first poll-grid point after the
   state change, exactly where the poll loop would have noticed. *)
type parker = {
  mutable seat :
    (thread_state * (unit, unit) Effect.Deep.continuation) option;
  mutable seat_at : int;
  mutable seat_poll : int;
}

type _ Effect.t +=
  | E_mem : Arch.memop * Memory.addr * int * int -> int Effect.t
  | E_casf : Memory.addr * int * int -> int Effect.t
    (* CAS returning the observed value instead of the success flag *)
  | E_spin : Arch.memop * Memory.addr * int * int * int * int -> int Effect.t
  | E_pause : int -> unit Effect.t
  | E_now : int Effect.t
  | E_self : (int * int) Effect.t (* (core, tid) *)
  | E_barrier : barrier -> unit Effect.t
  | E_park : parker * int -> unit Effect.t
  | E_unpark : parker -> unit Effect.t
  | E_evd : bool Effect.t (* is event-driven waiting active? *)
  | E_dead : int -> bool Effect.t
    (* has thread [tid] crash-stopped?  The oracle robust locks build
       their owner-death detection on: true from the moment virtual
       time reaches the victim's crash time, whether or not the crash
       event itself has fired yet *)

exception Simulation_runaway of int

exception Shard_conflict
(* a sharded attempt detected an interleaving it cannot order serially;
   the simulation object is dead — re-run the job with [serial_fallback] *)

(* Default for [create]'s [?parking] — lets tests A/B the event-driven
   path against literal polling without threading a flag through every
   harness layer. *)
let parking_default = ref true

(* Default for [create]'s [?shards] — set by the benchmark driver's
   [--shards] flag so sharding reaches every [Harness.run] without
   threading a parameter through the figure pipelines. *)
let default_shards = ref 1

(* Drain shards on worker domains?  Defaults to whether the host has
   them; tests force [true] to exercise the cross-domain machinery on
   any host (shards produce identical results either way — inside a
   window they touch disjoint state, so domain execution order cannot
   matter). *)
let shard_domains = ref (Domain.recommended_domain_count () > 1)

(* While set, [create] forces one shard whatever was requested: the
   retry arm of [serial_fallback]. *)
let force_serial_key : bool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> false)

(* Jobs that escalated once, remembered by caller-supplied key: a
   benchmark sweep re-runs the same structurally-serial job (in-window
   allocation, hardware channels) dozens of times, and without memory
   each run pays a doomed sharded attempt before its serial re-run.
   Domain-local like the perf counters, so pool workers learn
   independently rather than taking a lock. *)
let serial_jobs_key : (string, unit) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let run_forced_serial f =
  Domain.DLS.set force_serial_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set force_serial_key false) f

let serial_fallback ?policy_key f =
  let known_serial =
    match policy_key with
    | Some k -> Hashtbl.mem (Domain.DLS.get serial_jobs_key) k
    | None -> false
  in
  if known_serial then run_forced_serial f
  else
    try f ()
    with Shard_conflict ->
      (* speculative replay (if any) is exhausted: book the escalation
         and re-run the whole job serially *)
      let c = counters () in
      c.c_escalations <- c.c_escalations + 1;
      (match Trace.current () with
      | Some tr -> Trace.emit_end tr Trace.E_escalate
      | None -> ());
      (match policy_key with
      | Some k -> Hashtbl.replace (Domain.DLS.get serial_jobs_key) k ()
      | None -> ());
      run_forced_serial f

(* The window width: the smallest latency at which one shard's action
   can affect another, i.e. the platform's minimum cross-node transfer
   cost.  Sampled as a dirty-line read from core 0 against every
   foreign-node owner — on all four topologies node 0 has a
   minimum-distance neighbour, so the scan reaches the global minimum.
   Width is a *batching heuristic only*: every line and resource
   access is stamp-checked in both the window and coordinator phases,
   so a too-wide window can only raise the abort rate, never miss a
   conflict — which is why no clamp to the minimum resource hold is
   needed (earlier engines clamped the width to 1 cycle on every
   non-Niagara platform, paying a window barrier per simulated cycle).
   Cached per platform: the scan costs ~n_cores cost-model calls and
   [create] runs once per job. *)
let lookahead_cache : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let lookahead_of (platform : Platform.t) =
  let cache = Domain.DLS.get lookahead_cache in
  match Hashtbl.find_opt cache platform.Platform.name with
  | Some w -> w
  | None ->
      let topo = platform.Platform.topo in
      let v : Cost_model.line_view =
        {
          state = Arch.Modified;
          owner = -1;
          sharers = Coreset.create ();
          home = 0;
          llc_dirty = false;
        }
      in
      let n0 = topo.Topology.node_of_core 0 in
      let best = ref max_int in
      for c2 = 0 to topo.Topology.n_cores - 1 do
        let n2 = topo.Topology.node_of_core c2 in
        if n2 <> n0 then begin
          v.owner <- c2;
          v.home <- n2;
          let l = Cost_model.line_latency topo Arch.Load ~requester:0 v in
          if l < !best then best := l
        end
      done;
      let scan = if !best = max_int then 64 else max 1 !best in
      Hashtbl.replace cache platform.Platform.name scan;
      scan

let create ?(faults = Fault.none) ?parking ?shards platform =
  let faults = Fault.validate faults in
  let parking =
    match parking with Some p -> p | None -> !parking_default
  in
  let requested =
    match shards with
    | Some s ->
        if s < 1 then invalid_arg "Sim.create: shards must be >= 1";
        s
    | None -> !default_shards
  in
  let trace = Trace.current () in
  let topo = platform.Platform.topo in
  (* Crash-stop schedules mutate global bookkeeping mid-run and traces
     record engine-internal order: both are defined by the serial
     engine, so they force one shard (identity with serial runs is then
     trivially preserved rather than checked).  A trace sink that set
     [Trace.allow_sharded] wants only the coordinator-context
     speculation-lifecycle events, which the serial engine never has —
     it keeps sharding on and the per-access hooks dark. *)
  let nshards =
    if
      requested = 1
      || Domain.DLS.get force_serial_key
      || (trace <> None && not !Trace.allow_sharded)
      || faults.Fault.crashes <> []
    then 1
    else min requested topo.Topology.n_nodes
  in
  let mem = Memory.create platform in
  Memory.set_slots mem nshards;
  let shards =
    Array.init nshards (fun sid ->
        {
          sid;
          q = Event_queue.create ();
          slot = Memory.slot mem sid;
          popped = Event_queue.make_popped ();
          s_now = 0;
          s_window_end = max_int;
          s_fuel = 0;
          s_events = 0;
          s_live = 0;
          s_parks = 0;
          s_wakeups = 0;
          s_preempt = 0;
          s_jitter = 0;
          out = [];
          s_conflicts = [];
          s_hard = false;
        })
  in
  {
    platform;
    mem;
    shards;
    nshards;
    use_domains = nshards > 1 && !shard_domains;
    lookahead = (if nshards > 1 then lookahead_of platform else 0);
    in_window = false;
    abort = false;
    solo_run = false;
    stamps_armed = false;
    promoted = [];
    t_conflicts = [];
    t_hard = false;
    n_windows = 0;
    n_replays = 0;
    n_promoted = 0;
    res_hwm = 0;
    spawned = 0;
    faults;
    faults_active = not (Fault.is_none faults);
    faults_parkable = (not (Fault.is_none faults)) && Fault.parkable faults;
    parking;
    tstates = Hashtbl.create 64;
    crashed_tids = [];
    wall_ns = 0;
    cum = counters ();
    booked_lq = 0;
    run_until = max_int;
    trace;
  }

let memory t = t.mem
let platform t = t.platform
let shards_of t = t.nshards

(* The simulation's clock: the furthest shard clock (serially, shard
   0's).  Shard clocks are only meaningfully comparable between runs /
   at barriers — which is when this is called. *)
let now_of t =
  let n = ref t.shards.(0).s_now in
  for i = 1 to t.nshards - 1 do
    if t.shards.(i).s_now > !n then n := t.shards.(i).s_now
  done;
  !n

let ev_total t =
  Array.fold_left (fun acc sh -> acc + sh.s_events) 0 t.shards

let parks_total t =
  Array.fold_left (fun acc sh -> acc + sh.s_parks) 0 t.shards

let wakeups_total t =
  Array.fold_left (fun acc sh -> acc + sh.s_wakeups) 0 t.shards

let live_total t =
  Array.fold_left (fun acc sh -> acc + sh.s_live) 0 t.shards

let shard_for t core =
  if t.nshards = 1 then t.shards.(0)
  else
    t.shards.(t.platform.Platform.topo.Topology.node_of_core core
              mod t.nshards)

(* --------------------- speculative-replay support ------------------ *)

(* Residency sentinel for promoted lines: matches no shard id, so every
   in-window access to a promoted line defers to the coordinator, which
   executes deferred work in ascending global time — serial-within-
   window semantics for exactly the lines that conflicted. *)
let promoted_residency = -2

(* Re-tag the promoted set after any [Memory.assign_residency] pass
   (which tags by home node and would otherwise reclaim them). *)
let apply_promotions t =
  List.iter
    (fun li -> Memory.set_line_residency t.mem li promoted_residency)
    t.promoted

(* Enlarge the promoted set (idempotent per line) and apply it.  Books
   each newly promoted line in the per-run and cumulative counters. *)
let promote t lines =
  List.iter
    (fun li ->
      if not (List.mem li t.promoted) then begin
        t.promoted <- li :: t.promoted;
        t.n_promoted <- t.n_promoted + 1;
        t.cum.c_promoted <- t.cum.c_promoted + 1;
        (* strategy-dependent tallies go straight to the sink: they
           must survive the rollback that precedes the replay *)
        (match Metrics.current () with
        | Some m -> Metrics.tally m ~kind:Metrics.k_promoted ~id:0 1
        | None -> ());
        match t.trace with
        | Some tr -> Trace.emit_end tr (Trace.E_promote { line = li })
        | None -> ()
      end;
      Memory.set_line_residency t.mem li promoted_residency)
    lines

let promoted_lines t = t.promoted

(* The lines implicated in the aborted attempt's conflicts (deduped,
   all shards + coordinator).  Empty means no conflict was attributable
   to a line — the attempt must escalate to serial. *)
let conflict_lines t =
  let acc = ref t.t_conflicts in
  Array.iter
    (fun sh -> List.iter (fun li -> acc := li :: !acc) sh.s_conflicts)
    t.shards;
  List.sort_uniq compare !acc

(* Did the aborted attempt hit a conflict speculation cannot fix —
   a cross-shard peek, a same-time parker tie, a mid-window alloc, an
   event-budget blowout or a user-code exception? *)
let hard_aborted t =
  t.t_hard || Array.exists (fun sh -> sh.s_hard) t.shards

let record_replay t =
  t.n_replays <- t.n_replays + 1;
  t.cum.c_replays <- t.cum.c_replays + 1;
  (match Metrics.current () with
  | Some m -> Metrics.tally m ~kind:Metrics.k_replays ~id:0 1
  | None -> ());
  match t.trace with
  | Some tr -> Trace.emit_end tr (Trace.E_replay { attempt = t.n_replays })
  | None -> ()

(* Window fusing on/off (tests A/B it): when on, repeated [run_health]
   calls on one sim reuse the stamp clear and residency derivation of
   the first call. *)
let window_fusing = ref true

(* Reset the engine (not the memory — [Memory.restore] handles that)
   for a speculative replay of the same job: every shard queue, clock
   and per-attempt counter returns to its post-[create] state, the
   thread table empties so the harness can re-spawn, and the fused
   stamp/residency state is dropped (the rollback reverted migrations,
   so residency must be re-derived).  The promoted set and the
   replay/promotion tallies survive — they are the point. *)
let reset_for_replay t =
  Array.iter
    (fun sh ->
      Event_queue.clear sh.q;
      sh.s_now <- 0;
      sh.s_window_end <- max_int;
      sh.s_fuel <- 0;
      sh.s_events <- 0;
      sh.s_live <- 0;
      sh.s_parks <- 0;
      sh.s_wakeups <- 0;
      sh.s_preempt <- 0;
      sh.s_jitter <- 0;
      sh.out <- [];
      sh.s_conflicts <- [];
      sh.s_hard <- false)
    t.shards;
  Hashtbl.reset t.tstates;
  t.spawned <- 0;
  t.crashed_tids <- [];
  t.in_window <- false;
  t.abort <- false;
  t.solo_run <- false;
  t.stamps_armed <- false;
  t.t_conflicts <- [];
  t.t_hard <- false;
  t.res_hwm <- 0

(* Book a conflict detected while draining shard [sh] (worker domain:
   only this shard's fields are written). *)
let shard_conflict t sh lines =
  (match lines with
  | [] -> sh.s_hard <- true
  | ls -> sh.s_conflicts <- ls @ sh.s_conflicts);
  t.abort <- true

(* Event-driven waiting applies without faults and under jitter-only
   specs.  Jitter draws happen per *real* memory op; an inert probe —
   exactly the kind parking elides — is made to consume no draw (see
   [spin_loop]), so the per-thread draw sequence is identical whether
   the waiter parked or polled.  Preemption and crash specs keep the
   polling fallback: their draws key off every scheduling point, which
   parking removes. *)
let event_driven t =
  t.parking && ((not t.faults_active) || t.faults_parkable)

(* ---------------------- engine-side metrics ------------------------ *)

(* Thread run-state codes: chosen so [Metrics.k_runnable + state] is
   the gauge kind for the three live states.  [m_dead] spans are never
   charged. *)
let m_runnable = 0
let m_spinning = 1
let m_parked = 2
let m_dead = 3

(* The metrics accumulator of the *executing* context: the draining
   shard's slot on a worker domain, slot 0 at the coordinator and
   serially.  Charging where the step executes (not where the thread
   lives) keeps worker domains off each other's accumulators — a
   cross-shard wake charges the waker's shard — and costs nothing:
   the sums commute, so merged totals are placement-independent. *)
let macc_here t =
  let sid = Memory.exec_sid () in
  Memory.slot_metrics t.shards.(if sid >= 0 then sid else 0).slot

(* Close the thread's current run-state span at [at] and enter state
   [s].  No-op when metrics are off. *)
let m_trans t st ~at s =
  match macc_here t with
  | None -> ()
  | Some m ->
      if st.m_state < m_dead then
        Metrics.span m
          ~kind:(Metrics.k_runnable + st.m_state)
          ~id:0 ~t0:st.m_since ~t1:at ~weight:1;
      st.m_state <- s;
      if at > st.m_since then st.m_since <- at

let m_bump t ~kind ~ts =
  match macc_here t with
  | None -> ()
  | Some m -> Metrics.bump m ~kind ~id:0 ~ts 1

(* Every engine push targets a specific shard's queue at an absolute
   time.  No clamp against the shard clock: all call sites push at or
   after the affected thread's logical now, and the coordinator
   legitimately pushes *behind* a shard's (post-window) clock — the
   queue accepts regressing pushes. *)
let sched_on sh ~at run = Event_queue.push sh.q ~time:at run

(* Append a deferred cross-shard operation for the thread's own current
   step: always called from the thread's own shard, inside a window. *)
let defer st ~kind ~addr run =
  let sh = st.sh in
  sh.out <-
    { o_time = sh.s_now; o_kind = kind; o_addr = addr; o_st = st; o_run = run }
    :: sh.out

(* ------------------------------------------------------------------ *)
(* Operations available *inside* a simulated thread.  Calling them
   outside of [spawn]ed code raises [Effect.Unhandled]. *)

let load a = Effect.perform (E_mem (Arch.Load, a, 0, 0))
let store a v = ignore (Effect.perform (E_mem (Arch.Store, a, v, 0)))

(* Store posted through the store buffer: the thread pays only the
   retire cost while the transfer (value, invalidations, occupancy)
   completes in the background — [operand2 = 1] marks it for the
   memory model. *)
let store_posted a v = ignore (Effect.perform (E_mem (Arch.Store, a, v, 1)))

let cas a ~expected ~desired =
  Effect.perform (E_mem (Arch.Cas, a, expected, desired)) = 1

(* CAS that returns the value it observed (success iff it equals
   [expected]): a retry loop built on it sees the line's value at its
   own probe time instead of re-reading a stale snapshot. *)
let cas_fetch a ~expected ~desired =
  Effect.perform (E_casf (a, expected, desired))

let fai a = Effect.perform (E_mem (Arch.Fai, a, 1, 0))

(* Atomic fetch-and-add by [k] (k >= 0); [faa a 0] is an exclusive
   atomic read: it returns the value and leaves the line Modified at the
   caller, modeling a prefetchw+load probe. *)
let faa a k =
  if k < 0 then invalid_arg "Sim.faa: negative increment";
  Effect.perform (E_mem (Arch.Fai, a, k, 0))

(* Store-class fetch-and-add: an increment of a field only this thread
   writes (e.g. a ticket lock's [current] on release).  Applied
   atomically by the model but costed as a plain store. *)
let faa_store a k =
  if k < 0 then invalid_arg "Sim.faa_store: negative increment";
  Effect.perform (E_mem (Arch.Fai, a, k, 1))

(* [tas] returns [true] when the caller won (the previous value was 0). *)
let tas a = Effect.perform (E_mem (Arch.Tas, a, 0, 0)) = 0
let swap a v = Effect.perform (E_mem (Arch.Swap, a, v, 0))
let pause cycles = if cycles > 0 then Effect.perform (E_pause cycles)
let now () = Effect.perform E_now
let self_core () = fst (Effect.perform E_self)
let self_tid () = snd (Effect.perform E_self)

(* {2 Spin primitives}

   Each is exactly the loop [let x = probe in if x = while_ then
   (pause poll; retry) else x] of the hand-written spinlocks, executed
   event-driven (see the header comment).  The first probe runs
   immediately, pauses sit between probes, and the call returns the
   first probe result that differs from [while_]. *)

let spin_check poll =
  if poll < 0 then invalid_arg "Sim.spin: negative poll interval"

let spin_load a ~while_ ~poll =
  spin_check poll;
  Effect.perform (E_spin (Arch.Load, a, 0, 0, while_, poll))

(* Spin until the test-and-set wins (previous value 0); continues while
   the probe returns 1. *)
let spin_tas a ~poll =
  spin_check poll;
  ignore (Effect.perform (E_spin (Arch.Tas, a, 0, 0, 1, poll)))

(* Spin until the CAS succeeds; continues while the probe fails. *)
let spin_cas a ~expected ~desired ~poll =
  spin_check poll;
  ignore (Effect.perform (E_spin (Arch.Cas, a, expected, desired, 0, poll)))

let spin_swap a v ~while_ ~poll =
  spin_check poll;
  Effect.perform (E_spin (Arch.Swap, a, v, 0, while_, poll))

(* Spin probing with an exclusive atomic read (prefetchw-style
   [faa a 0]). *)
let spin_faa0 a ~while_ ~poll =
  spin_check poll;
  Effect.perform (E_spin (Arch.Fai, a, 0, 0, while_, poll))

let make_barrier n : barrier = { expected = n; arrived = 0; waiters = [] }
let await b = Effect.perform (E_barrier b)

let make_parker () : parker = { seat = None; seat_at = 0; seat_poll = 1 }

let park pk ~poll =
  if poll <= 0 then invalid_arg "Sim.park: poll must be positive";
  Effect.perform (E_park (pk, poll))

let unpark pk = Effect.perform (E_unpark pk)
let event_driven_waits () = Effect.perform E_evd

(* Cost-free oracle: robust locks model the OS's exact knowledge of
   which threads died (robust-futex EOWNERDEAD bookkeeping), so the
   query itself adds no events and no latency. *)
let tid_crashed tid = Effect.perform (E_dead tid)

(* ------------------------------------------------------------------ *)
(* Fault hooks. *)

(* Extra completion delay at a scheduling point: latency jitter (memory
   ops only) plus preemption — the thread is descheduled for the drawn
   duration, whatever it holds staying held.  Draws come from the
   thread's private stream, so faults in one thread never perturb
   another thread's draws. *)
(* Per-thread trace hooks stay dark when sharding runs with a trace
   installed ([Trace.allow_sharded]): worker domains must not touch the
   shared ring. *)
let trace_fault t st kind cycles =
  match t.trace with
  | Some tr when t.nshards = 1 ->
      Trace.emit tr ~ts:st.sh.s_now
        (Trace.E_fault { tid = st.tid; kind; cycles })
  | _ -> ()

let fault_extra t st ~mem_op =
  if not t.faults_active then 0
  else begin
    let f = t.faults in
    let sh = st.sh in
    let extra = ref 0 in
    if mem_op && f.Fault.jitter_prob > 0.
       && Rng.float st.rng < f.Fault.jitter_prob
    then begin
      let cy = Fault.sample st.rng f.Fault.jitter_cycles in
      extra := !extra + cy;
      sh.s_jitter <- sh.s_jitter + 1;
      trace_fault t st Trace.Jitter cy
    end;
    if f.Fault.preempt_prob > 0. && Rng.float st.rng < f.Fault.preempt_prob
    then begin
      let cy = Fault.sample st.rng f.Fault.preempt_cycles in
      extra := !extra + cy;
      sh.s_preempt <- sh.s_preempt + 1;
      trace_fault t st Trace.Preempt cy
    end;
    !extra
  end

(* Schedule [f] at [at] on [st]'s behalf — unless the thread's crash
   time falls first, in which case [f] is dropped and the crash is
   booked at the crash time itself (so it is recorded even when the
   never-to-happen step would fall past the [until] backstop).  A
   crash-stopped thread is simply never resumed: no unwinding, no
   cleanup — whatever it holds stays held, which is what crash-stop
   means.  Crash schedules imply one shard (see [create]). *)
let crash_sched t st ~at f =
  let sh = st.sh in
  if st.crash_at >= 0 && (not st.crashed) && at >= st.crash_at then
    sched_on sh ~at:(max sh.s_now st.crash_at) (fun () ->
        if not st.crashed then begin
          st.crashed <- true;
          t.crashed_tids <- st.tid :: t.crashed_tids;
          sh.s_live <- sh.s_live - 1;
          m_trans t st ~at:sh.s_now m_dead;
          trace_fault t st Trace.Crash 0
        end)
  else
    sched_on sh ~at (fun () ->
        st.last_progress <- sh.s_now;
        f ())

let resume : type a.
    t -> thread_state -> (a, unit) Effect.Deep.continuation -> at:int -> a -> unit
    =
 fun t st k ~at v -> crash_sched t st ~at (fun () -> Effect.Deep.continue k v)

(* Direct-run: a resumption may skip the event queue entirely and
   continue the thread synchronously when nothing can observe the
   difference — no faults active (fault draws key off event shapes),
   the completion time does not cross the run's [until] backstop (the
   queue would have dropped it) nor the shard's window end, and it
   falls *strictly* before every event queued on the shard (so no
   other event could interleave, and same-time FIFO order is
   preserved).  Timestamps, access order and results are exactly those
   of the queued schedule; only the per-operation queue round trip
   disappears.  Both a queue pop and a direct-run continue count as
   one logical resumption in [s_events], so the events counter is an
   execution-strategy-independent measure — serial and sharded runs
   report identical totals even though they make different direct-run
   decisions.  [s_fuel], reset at every real event pop, bounds
   consecutive synchronous continues so an event-free stretch cannot
   grow the native stack without limit. *)
let direct_fuel_max = 1000

let can_direct t sh ~at =
  (not t.faults_active)
  && at <= t.run_until
  && at <= sh.s_window_end
  && sh.s_fuel < direct_fuel_max
  && at < Event_queue.next_time sh.q

(* Hot-path resumptions: when the thread cannot crash, either continue
   it directly (see above) or park the continuation in its [pend_*]
   slot and schedule the preallocated runner — zero closure allocations
   per operation.  With a crash time set, fall back to [resume] so the
   crash bookkeeping (and its exact event shapes) stays byte-identical.
   Direct-run applies only to completions of the thread's own
   operations (memory ops, pauses): those run from the top of the
   engine loop, never from inside another thread's access processing,
   so continuing synchronously cannot re-enter the memory model. *)
let resume_int t st (k : (int, unit) Effect.Deep.continuation) ~at v =
  if st.crash_at >= 0 then resume t st k ~at v
  else begin
    let sh = st.sh in
    if can_direct t sh ~at then begin
      sh.s_fuel <- sh.s_fuel + 1;
      sh.s_events <- sh.s_events + 1;
      sh.s_now <- at;
      st.last_progress <- at;
      Effect.Deep.continue k v
    end
    else begin
      st.pend_ik <- Some k;
      st.pend_iv <- v;
      sched_on sh ~at st.run_ik
    end
  end

(* Unit-typed completion of the thread's own step (pause): direct-run
   capable, like [resume_int]. *)
let resume_unit_direct t st (k : (unit, unit) Effect.Deep.continuation) ~at =
  if st.crash_at >= 0 then resume t st k ~at ()
  else begin
    let sh = st.sh in
    if can_direct t sh ~at then begin
      sh.s_fuel <- sh.s_fuel + 1;
      sh.s_events <- sh.s_events + 1;
      sh.s_now <- at;
      st.last_progress <- at;
      Effect.Deep.continue k ()
    end
    else begin
      st.pend_uk <- Some k;
      sched_on sh ~at st.run_uk
    end
  end

(* Wakeups issued on behalf of *other* threads (barriers, parkers):
   always scheduled, because the issuing handler may wake several
   threads at one captured timestamp — running one synchronously would
   advance the clock under the others' feet.  Sharded, these run only
   at the coordinator (the issuing operations are deferred), so pushing
   onto the target thread's shard queue never races. *)
let resume_unit t st (k : (unit, unit) Effect.Deep.continuation) ~at =
  if st.crash_at >= 0 then resume t st k ~at ()
  else begin
    st.pend_uk <- Some k;
    sched_on st.sh ~at st.run_uk
  end

(* Schedule a preallocated engine-internal step ([f] updates
   [last_progress] itself at entry) without wrapping it in a fresh
   closure unless the crash path demands it. *)
let sched_step _t st ~at f =
  if st.crash_at >= 0 then crash_sched _t st ~at f else sched_on st.sh ~at f

(* Sharded memory operation: defer to the coordinator when the line is
   foreign-resident (the coordinator migrates it here), stamp-check
   otherwise, then perform the access against this shard's slot.  Also
   the body of coordinator-run deferred accesses — the coordinator sets
   [st.sh.s_now] to the entry's captured time first, and [in_window] is
   false there, so the access executes directly. *)
let rec mem_sharded t st (k : (int, unit) Effect.Deep.continuation) op a
    ~operand ~operand2 ~fetch =
  let sh = st.sh in
  if t.in_window && (not t.solo_run) && Memory.residency t.mem a <> sh.sid
  then
    defer st ~kind:kind_mem ~addr:a (fun () ->
        mem_sharded t st k op a ~operand ~operand2 ~fetch)
  else if not (Memory.stamp t.mem a ~time:sh.s_now ~tid:st.tid) then
    (* a stamp failure names its own line: promote it on replay *)
    shard_conflict t sh [ Memory.line_id t.mem a ]
  else begin
    let latency =
      Memory.access_lat_in t.mem ~slot:sh.slot ~core:st.core ~now:sh.s_now op
        a ~operand ~operand2 ~fetch
    in
    let v = Memory.last_result_in sh.slot in
    let latency = latency + fault_extra t st ~mem_op:true in
    resume_int t st k ~at:(sh.s_now + latency) v
  end

(* One memory operation of [st] ([E_mem] / [E_casf]). *)
let mem_op t st (k : (int, unit) Effect.Deep.continuation) op a ~operand
    ~operand2 ~fetch =
  if t.nshards = 1 then begin
    let sh = st.sh in
    (match t.trace with
    | Some tr -> Trace.set_tid tr st.tid
    | None -> ());
    let latency =
      Memory.access_lat_in t.mem ~slot:sh.slot ~core:st.core ~now:sh.s_now op
        a ~operand ~operand2 ~fetch
    in
    let v = Memory.last_result_in sh.slot in
    let latency = latency + fault_extra t st ~mem_op:true in
    resume_int t st k ~at:(sh.s_now + latency) v
  end
  else mem_sharded t st k op a ~operand ~operand2 ~fetch

(* The [E_spin] state machine.  Invoked with the thread suspended right
   after observing [while_]; the first probe issues at [now + poll],
   exactly like the poll loop's [pause poll; probe].  Whenever the next
   probe would be inert, the thread parks on the line and the memory
   model wakes it — via [replay], on the original probe grid — when a
   real access disturbs the line. *)
let spin_loop t st (k : (int, unit) Effect.Deep.continuation) op a ~operand
    ~operand2 ~while_ ~poll =
  let core = st.core in
  let sh = st.sh in
  (* [probe] and [continue_spin] are allocated once per spin episode and
     update [last_progress] themselves, so the per-probe steps schedule
     them directly ([sched_step]) with no wrapper closure.  Both defer
     themselves whole when the line is foreign-resident: the
     coordinator re-runs the closure with [s_now] set to the deferral
     time, so the captured [sh.s_now] reads stay correct. *)
  let rec probe () =
    if
      t.nshards > 1 && t.in_window && (not t.solo_run)
      && Memory.residency t.mem a <> sh.sid
    then defer st ~kind:kind_mem ~addr:a probe
    else begin
      (* [sh.s_now] is the probe's issue time *)
      st.last_progress <- sh.s_now;
      (match t.trace with
      | Some tr when t.nshards = 1 -> Trace.set_tid tr st.tid
      | _ -> ());
      if
        t.nshards > 1
        && not (Memory.stamp t.mem a ~time:sh.s_now ~tid:st.tid)
      then shard_conflict t sh [ Memory.line_id t.mem a ]
      else begin
        (* Under a jitter-only spec an inert probe consumes no fault
           draw: parking elides exactly the inert probes, so charging
           draws only to non-inert probes keeps the per-thread draw
           sequence — and so the whole schedule — identical parked or
           polled. *)
        let inert =
          t.faults_parkable
          && Memory.probe_would_elide t.mem ~core op a ~operand ~operand2
               ~while_
        in
        let latency =
          Memory.access_lat_in t.mem ~slot:sh.slot ~core ~now:sh.s_now op a
            ~operand ~operand2 ~fetch:false
        in
        let x = Memory.last_result_in sh.slot in
        let latency =
          if inert then latency else latency + fault_extra t st ~mem_op:true
        in
        if x <> while_ then begin
          m_trans t st ~at:(sh.s_now + latency) m_runnable;
          resume_int t st k ~at:(sh.s_now + latency) x
        end
        else sched_step t st ~at:(sh.s_now + latency) continue_spin
      end
    end
  and continue_spin () =
    if
      t.nshards > 1 && t.in_window && (not t.solo_run)
      && Memory.residency t.mem a <> sh.sid
    then defer st ~kind:kind_mem ~addr:a continue_spin
    else begin
      (* [sh.s_now] is the completion time of a probe that returned
         [while_]; emulate [pause poll; probe] — or park. *)
      st.last_progress <- sh.s_now;
      if
        t.nshards > 1
        && not (Memory.stamp t.mem a ~time:sh.s_now ~tid:st.tid)
      then shard_conflict t sh [ Memory.line_id t.mem a ]
      else if
        event_driven t
        && Memory.try_park_in t.mem ~slot:sh.slot ~core ~now:sh.s_now op a
             ~operand ~operand2 ~while_ ~poll ~replay:(fun at ->
               (* [replay] may fire from whichever shard's access
                  disturbed the line: foreign wakes are deferred into
                  the *executing* shard's outbox (its own counter takes
                  the wakeup — totals match the serial count), the
                  coordinator and same-shard wakes push directly. *)
               if t.nshards > 1 && t.in_window then begin
                 let esid = Memory.exec_sid () in
                 if esid >= 0 && esid <> sh.sid then begin
                   let esh = t.shards.(esid) in
                   esh.s_wakeups <- esh.s_wakeups + 1;
                   m_bump t ~kind:Metrics.k_wakes ~ts:at;
                   esh.out <-
                     {
                       o_time = at;
                       o_kind = kind_wake;
                       o_addr = -1;
                       o_st = st;
                       o_run =
                         (fun () ->
                           (* the parked span closes where the wake
                              executes: the coordinator, at [at] *)
                           m_trans t st ~at m_spinning;
                           sched_step t st ~at probe);
                     }
                     :: esh.out
                 end
                 else begin
                   sh.s_wakeups <- sh.s_wakeups + 1;
                   m_bump t ~kind:Metrics.k_wakes ~ts:at;
                   m_trans t st ~at m_spinning;
                   sched_step t st ~at probe
                 end
               end
               else begin
                 sh.s_wakeups <- sh.s_wakeups + 1;
                 m_bump t ~kind:Metrics.k_wakes ~ts:at;
                 m_trans t st ~at m_spinning;
                 (match t.trace with
                 | Some tr when t.nshards = 1 ->
                     Trace.emit tr ~ts:at
                       (Trace.E_wake { tid = st.tid; addr = a })
                 | _ -> ());
                 sched_step t st ~at probe
               end)
      then begin
        sh.s_parks <- sh.s_parks + 1;
        m_trans t st ~at:sh.s_now m_parked;
        m_bump t ~kind:Metrics.k_parks ~ts:sh.s_now;
        match t.trace with
        | Some tr when t.nshards = 1 ->
            Trace.emit tr ~ts:sh.s_now
              (Trace.E_park { tid = st.tid; addr = a })
        | _ -> ()
      end
      else if poll = 0 then probe ()
      else begin
        let cy = max 1 poll + fault_extra t st ~mem_op:false in
        sched_step t st ~at:(sh.s_now + cy) probe
      end
    end
  in
  m_trans t st ~at:sh.s_now m_spinning;
  continue_spin ()

(* Barrier arrival: runs in-window serially, at the coordinator when
   sharded (so the shared barrier record is never mutated
   concurrently).  The releasing arrival is the latest-timed one, so
   executing arrivals in ascending time order wakes every waiter at the
   serial release time. *)
let barrier_arrive t st (k : (unit, unit) Effect.Deep.continuation) b =
  let at = st.sh.s_now in
  st.last_progress <- at;
  b.arrived <- b.arrived + 1;
  if b.arrived >= b.expected then begin
    let to_wake = b.waiters in
    b.waiters <- [];
    b.arrived <- 0;
    List.iter (fun (wst, w) -> resume_unit t wst w ~at) to_wake;
    resume_unit t st k ~at
  end
  else b.waiters <- (st, k) :: b.waiters

(* Parker seat/wake logic, shared by the serial path and the
   coordinator-deferred one. *)
let park_seat t st (k : (unit, unit) Effect.Deep.continuation) pk poll =
  let sh = st.sh in
  if event_driven t then begin
    if pk.seat <> None then invalid_arg "Sim.park: parker already occupied";
    pk.seat <- Some (st, k);
    pk.seat_at <- sh.s_now;
    pk.seat_poll <- poll;
    sh.s_parks <- sh.s_parks + 1;
    m_trans t st ~at:sh.s_now m_parked;
    m_bump t ~kind:Metrics.k_parks ~ts:sh.s_now;
    match t.trace with
    | Some tr when t.nshards = 1 ->
        Trace.emit tr ~ts:sh.s_now (Trace.E_park { tid = st.tid; addr = -1 })
    | _ -> ()
  end
  else begin
    (* literal polling: one pause quantum, the caller's loop re-checks *)
    let cy = max 1 poll + fault_extra t st ~mem_op:false in
    resume_unit t st k ~at:(sh.s_now + cy)
  end

let unpark_wake t st pk =
  match pk.seat with
  | Some (wst, wk) ->
      pk.seat <- None;
      (* first poll-grid point after the state change *)
      let dt = st.sh.s_now - pk.seat_at in
      let steps = max 1 ((dt + pk.seat_poll - 1) / pk.seat_poll) in
      let wake_at = pk.seat_at + (steps * pk.seat_poll) in
      st.sh.s_wakeups <- st.sh.s_wakeups + 1;
      m_bump t ~kind:Metrics.k_wakes ~ts:wake_at;
      m_trans t wst ~at:wake_at m_runnable;
      (match t.trace with
      | Some tr when t.nshards = 1 ->
          Trace.emit tr ~ts:wake_at (Trace.E_wake { tid = wst.tid; addr = -1 })
      | _ -> ());
      resume_unit t wst wk ~at:wake_at
  | None -> ()

(* ------------------------------------------------------------------ *)

let spawn t ~core body =
  Topology.check t.platform.Platform.topo core;
  let tid = t.spawned in
  t.spawned <- tid + 1;
  let sh = shard_for t core in
  sh.s_live <- sh.s_live + 1;
  let st =
    {
      tid;
      core;
      sh;
      rng = Fault.stream t.faults ~tid;
      crash_at = Fault.crash_time t.faults ~tid;
      last_progress = now_of t;
      finished = false;
      crashed = false;
      pend_ik = None;
      pend_iv = 0;
      pend_uk = None;
      run_ik = ignore;
      run_uk = ignore;
      m_state = m_runnable;
      m_since = now_of t;
      e_op = Arch.Load;
      e_addr = 0;
      e_x = 0;
      e_y = 0;
      e_fetch = false;
      e_while = 0;
      e_poll = 0;
    }
  in
  st.run_ik <-
    (fun () ->
      st.last_progress <- sh.s_now;
      match st.pend_ik with
      | Some k ->
          st.pend_ik <- None;
          Effect.Deep.continue k st.pend_iv
      | None -> ());
  st.run_uk <-
    (fun () ->
      st.last_progress <- sh.s_now;
      match st.pend_uk with
      | Some k ->
          st.pend_uk <- None;
          Effect.Deep.continue k ()
      | None -> ());
  Hashtbl.replace t.tstates tid st;
  (match t.trace with
  | Some tr -> Trace.emit tr ~ts:sh.s_now (Trace.E_thread { tid; core })
  | None -> ());
  let open Effect.Deep in
  (* The per-operation handlers, allocated once per thread: [effc]
     stores the payload in [st] and returns one of these instead of a
     fresh [Some (fun k -> ...)] closure per perform.  Each reads the
     payload before anything else — a direct-run continue inside it may
     perform again and overwrite it. *)
  let on_mem =
    Some
      (fun (k : (int, unit) continuation) ->
        mem_op t st k st.e_op st.e_addr ~operand:st.e_x ~operand2:st.e_y
          ~fetch:st.e_fetch)
  in
  let on_spin =
    Some
      (fun (k : (int, unit) continuation) ->
        spin_loop t st k st.e_op st.e_addr ~operand:st.e_x ~operand2:st.e_y
          ~while_:st.e_while ~poll:st.e_poll)
  in
  let on_pause =
    Some
      (fun (k : (unit, unit) continuation) ->
        let cycles = st.e_x in
        let cycles = max 1 cycles + fault_extra t st ~mem_op:false in
        resume_unit_direct t st k ~at:(sh.s_now + cycles))
  in
  let on_now = Some (fun (k : (int, unit) continuation) -> continue k sh.s_now) in
  let self_id = (core, tid) in
  let on_self =
    Some (fun (k : (int * int, unit) continuation) -> continue k self_id)
  in
  let on_evd =
    Some (fun (k : (bool, unit) continuation) -> continue k (event_driven t))
  in
  let on_dead =
    Some
      (fun (k : (bool, unit) continuation) ->
        let dead =
          match Hashtbl.find_opt t.tstates st.e_x with
          | Some qst ->
              qst.crashed || (qst.crash_at >= 0 && sh.s_now >= qst.crash_at)
          | None -> false
        in
        continue k dead)
  in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          st.finished <- true;
          st.last_progress <- sh.s_now;
          m_trans t st ~at:sh.s_now m_dead;
          sh.s_live <- sh.s_live - 1);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | E_mem (op, a, op1, op2) ->
              st.e_op <- op;
              st.e_addr <- a;
              st.e_x <- op1;
              st.e_y <- op2;
              st.e_fetch <- false;
              on_mem
          | E_casf (a, expected, desired) ->
              st.e_op <- Arch.Cas;
              st.e_addr <- a;
              st.e_x <- expected;
              st.e_y <- desired;
              st.e_fetch <- true;
              on_mem
          | E_spin (op, a, op1, op2, while_, poll) ->
              st.e_op <- op;
              st.e_addr <- a;
              st.e_x <- op1;
              st.e_y <- op2;
              st.e_while <- while_;
              st.e_poll <- poll;
              on_spin
          | E_pause cycles ->
              st.e_x <- cycles;
              on_pause
          | E_now -> on_now
          | E_self -> on_self
          | E_barrier b ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if t.nshards > 1 && t.in_window then
                    defer st ~kind:kind_barrier ~addr:(-1) (fun () ->
                        barrier_arrive t st k b)
                  else barrier_arrive t st k b)
          | E_park (pk, poll) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if t.nshards > 1 && t.in_window then
                    defer st ~kind:kind_parker ~addr:(-1) (fun () ->
                        park_seat t st k pk poll)
                  else park_seat t st k pk poll)
          | E_unpark pk ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* the seat processing is deferred; the caller itself
                     continues immediately — unpark is costless for it
                     in either mode *)
                  if t.nshards > 1 && t.in_window then
                    defer st ~kind:kind_parker ~addr:(-1) (fun () ->
                        unpark_wake t st pk)
                  else unpark_wake t st pk;
                  continue k ())
          | E_evd -> on_evd
          | E_dead qtid ->
              st.e_x <- qtid;
              on_dead
          | _ -> None);
    }
  in
  sched_on sh ~at:(now_of t) (fun () ->
      st.last_progress <- sh.s_now;
      match_with body () handler)

(* ------------------------------------------------------------------ *)
(* Run loop and watchdog. *)

type verdict =
  | Completed
  | Stalled of { tid : int; core : int; last_progress : int }

type health = {
  verdict : verdict;
  crashed : int list; (* tids crash-stopped by fault injection *)
  preemptions : int; (* injected preemption events *)
  jitter_events : int; (* injected latency-jitter events *)
  dropped_events : int; (* events discarded past [until] *)
}

let verdict_to_string = function
  | Completed -> "completed"
  | Stalled { tid; core; last_progress } ->
      Printf.sprintf "stalled (tid %d on core %d, last progress at %d)" tid
        core last_progress

let health_to_string h =
  let base = verdict_to_string h.verdict in
  let extras =
    List.filter
      (fun s -> s <> "")
      [
        (if h.crashed = [] then ""
         else
           Printf.sprintf "crashed tids: %s"
             (String.concat "," (List.map string_of_int h.crashed)));
        (if h.preemptions = 0 then ""
         else Printf.sprintf "%d preemptions" h.preemptions);
        (if h.jitter_events = 0 then ""
         else Printf.sprintf "%d jittered ops" h.jitter_events);
        (if h.dropped_events = 0 then ""
         else Printf.sprintf "%d events dropped" h.dropped_events);
      ]
  in
  if extras = [] then base
  else Printf.sprintf "%s; %s" base (String.concat "; " extras)

(* The live thread that has gone the longest without progress — the
   watchdog's culprit.  Ties break toward the lowest tid so the verdict
   is deterministic. *)
let most_stalled t =
  let best = ref None in
  for tid = 0 to t.spawned - 1 do
    match Hashtbl.find_opt t.tstates tid with
    | Some st when (not st.finished) && not st.crashed -> (
        match !best with
        | Some b when b.last_progress <= st.last_progress -> ()
        | _ -> best := Some st)
    | _ -> ()
  done;
  !best

(* ----------------------- sharded run loop ------------------------- *)

(* Drain one shard up to its window end.  Runs on a worker domain (or
   the main one); touches only this shard's queue/clock/slot and
   resident lines, so shards never race.  Any exception — a stamp
   violation surfacing as [Memory.Sharded_violation], a mid-window
   [Memory.Sharded_alloc], or user code failing — dooms the attempt;
   the serial re-run reproduces (or avoids) it with serial
   semantics. *)
let drain_window t sh =
  let p = sh.popped in
  let continue_run = ref true in
  while !continue_run && not t.abort do
    (* an empty queue reports [next_time = max_int]: a solo window's
       end is also [max_int], so test emptiness explicitly rather than
       relying on the strict comparison *)
    let nt = Event_queue.next_time sh.q in
    if nt = max_int || nt > sh.s_window_end then continue_run := false
    else begin
      ignore (Event_queue.pop_into sh.q p);
      sh.s_fuel <- 0;
      sh.s_events <- sh.s_events + 1;
      sh.s_now <- p.Event_queue.p_time;
      p.Event_queue.p_run ()
    end
  done

let drain_window_safe t sh =
  Memory.set_exec_sid sh.sid;
  (try drain_window t sh with
  | Memory.Sharded_violation lines -> shard_conflict t sh lines
  | _ ->
      (* [Sharded_alloc], user code failing, engine bugs: not
         attributable to lines, so the serial re-run owns it *)
      sh.s_hard <- true;
      t.abort <- true);
  Memory.set_exec_sid (-1)

(* A persistent worker-domain crew, one domain per shard beyond the
   first, driven window-by-window over a mutex/condition pair (no busy
   waiting: the host may have fewer cores than shards).  Crews live in
   a process-global pool and are reused across simulations — spawning
   and joining (nshards - 1) domains per [run_health] call used to be
   a fixed tax on every sharded job — so the per-epoch work is handed
   over as data ([c_job]) rather than captured in the worker closure.
   Workers beyond [c_active] ack the epoch without working, which lets
   one crew serve runs of different shard counts. *)
type crew = {
  cm : Mutex.t;
  c_go : Condition.t;
  c_done : Condition.t;
  mutable c_epoch : int;
  mutable c_done_n : int;
  mutable c_quit : bool;
  mutable c_workers : int; (* worker loops spawned for this crew *)
  mutable c_active : int; (* workers given work this epoch *)
  mutable c_job : int -> unit; (* worker index (1-based) -> work *)
  mutable c_doms : unit Domain.t list;
}

let crew_loop cr w () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock cr.cm;
    while cr.c_epoch = !seen && not cr.c_quit do
      Condition.wait cr.c_go cr.cm
    done;
    if cr.c_quit then begin
      running := false;
      Mutex.unlock cr.cm
    end
    else begin
      seen := cr.c_epoch;
      let job = if w <= cr.c_active then Some cr.c_job else None in
      Mutex.unlock cr.cm;
      (match job with Some j -> j w | None -> ());
      Mutex.lock cr.cm;
      cr.c_done_n <- cr.c_done_n + 1;
      if cr.c_done_n = cr.c_workers then Condition.signal cr.c_done;
      Mutex.unlock cr.cm
    end
  done

let crew_pool : crew list ref = ref []
let crew_pool_mx = Mutex.create ()

(* Join every pooled (idle) crew at exit.  In-use crews are always
   returned to the pool by [run_health]'s cleanup, so by the time
   [at_exit] runs the pool holds them all. *)
let crew_exit_registered = ref false

let crew_shutdown () =
  let crews =
    Mutex.lock crew_pool_mx;
    let cs = !crew_pool in
    crew_pool := [];
    Mutex.unlock crew_pool_mx;
    cs
  in
  List.iter
    (fun cr ->
      Mutex.lock cr.cm;
      cr.c_quit <- true;
      Condition.broadcast cr.c_go;
      Mutex.unlock cr.cm;
      List.iter Domain.join cr.c_doms)
    crews

(* Take a crew with at least [n] workers out of the pool (spawning a
   fresh crew or extra workers as needed; safe — the crew is idle). *)
let crew_acquire n =
  Mutex.lock crew_pool_mx;
  if not !crew_exit_registered then begin
    crew_exit_registered := true;
    at_exit crew_shutdown
  end;
  let cr =
    match !crew_pool with
    | c :: rest ->
        crew_pool := rest;
        c
    | [] ->
        {
          cm = Mutex.create ();
          c_go = Condition.create ();
          c_done = Condition.create ();
          c_epoch = 0;
          c_done_n = 0;
          c_quit = false;
          c_workers = 0;
          c_active = 0;
          c_job = ignore;
          c_doms = [];
        }
  in
  Mutex.unlock crew_pool_mx;
  while cr.c_workers < n do
    cr.c_workers <- cr.c_workers + 1;
    cr.c_doms <- Domain.spawn (crew_loop cr cr.c_workers) :: cr.c_doms
  done;
  cr

let crew_release cr =
  Mutex.lock crew_pool_mx;
  crew_pool := cr :: !crew_pool;
  Mutex.unlock crew_pool_mx

let crew_window t cr =
  Mutex.lock cr.cm;
  cr.c_job <- (fun w -> drain_window_safe t t.shards.(w));
  cr.c_active <- t.nshards - 1;
  cr.c_epoch <- cr.c_epoch + 1;
  cr.c_done_n <- 0;
  Condition.broadcast cr.c_go;
  Mutex.unlock cr.cm;
  drain_window_safe t t.shards.(0);
  Mutex.lock cr.cm;
  while cr.c_done_n < cr.c_workers do
    Condition.wait cr.c_done cr.cm
  done;
  Mutex.unlock cr.cm

(* Drain the outboxes between windows: merge all shards' deferred
   entries into ascending time order (per-shard FIFO preserved — the
   serial tie-break for one shard's same-time entries) and execute them
   single-threaded against the full memory.  Migrates deferred-access
   lines to the requesting shard, refuses lines the window peeked at
   without an ordering key, and aborts on same-time parker operations
   from different shards (their serial order was queue insertion order,
   which no longer exists). *)
let run_coordinator t =
  let entries = ref [] in
  for i = t.nshards - 1 downto 0 do
    let sh = t.shards.(i) in
    entries := List.rev_append sh.out !entries;
    sh.out <- []
  done;
  let entries =
    List.stable_sort (fun a b -> compare a.o_time b.o_time) !entries
  in
  let last_parker_t = ref (-1) in
  let last_parker_sid = ref (-1) in
  (try
     List.iter
       (fun e ->
         if not t.abort then begin
           if e.o_kind = kind_parker then begin
             let sid = e.o_st.sh.sid in
             if e.o_time = !last_parker_t && sid <> !last_parker_sid then begin
               (* same-time parkers from different shards: their serial
                  tie-break (queue insertion order) is gone, and no set
                  of line promotions recreates it *)
               t.t_hard <- true;
               t.abort <- true
             end;
             last_parker_t := e.o_time;
             last_parker_sid := sid
           end;
           if not t.abort then begin
             if e.o_kind = kind_mem && e.o_addr >= 0 then begin
               if Memory.peeked_this_window t.mem e.o_addr then begin
                 t.t_hard <- true;
                 t.abort <- true
               end
               else if
                 Memory.line_residency t.mem (Memory.line_id t.mem e.o_addr)
                 <> promoted_residency
               then
                 (* promoted lines stay coordinator-mediated: migrating
                    one to the requester would let the next window run
                    it shard-locally again, re-creating the very race
                    the promotion was meant to serialize *)
                 Memory.set_residency t.mem e.o_addr e.o_st.sh.sid
             end;
             if not t.abort then begin
               e.o_st.sh.s_now <- e.o_time;
               e.o_run ()
             end
           end
         end)
       entries
   with
  | Memory.Sharded_violation lines ->
      (match lines with
      | [] -> t.t_hard <- true
      | ls -> t.t_conflicts <- ls @ t.t_conflicts);
      t.abort <- true
  | _ ->
      t.t_hard <- true;
      t.abort <- true)

let run_windows t cr ~until ~max_events ~ev_base ~dropped =
  let continue_run = ref true in
  while !continue_run && not t.abort do
    let mn = ref max_int in
    let busy = ref 0 in
    let solo_sid = ref 0 in
    Array.iter
      (fun sh ->
        let nt = Event_queue.next_time sh.q in
        if nt <> max_int then begin
          incr busy;
          solo_sid := sh.sid
        end;
        if nt < !mn then mn := nt)
      t.shards;
    if !mn = max_int then continue_run := false
    else if !mn > until then begin
      Array.iter
        (fun sh -> dropped := !dropped + Event_queue.length sh.q)
        t.shards;
      continue_run := false
    end
    else begin
      (* Solo window: exactly one shard holds events, so no other shard
         can race it inside this window — stretch the window to [until],
         drain on the calling domain (skipping the crew handshake), and
         run foreign-resident lines directly instead of deferring them.
         Stamp checks stay armed, so if the window surfaces work for
         another shard mid-flight (a cross-shard wake) any resulting
         mis-order aborts and replays like any other conflict. *)
      let solo = !busy = 1 in
      let wend =
        if solo || until - !mn <= t.lookahead then until
        else !mn + t.lookahead
      in
      Array.iter (fun sh -> sh.s_window_end <- wend) t.shards;
      t.n_windows <- t.n_windows + 1;
      (* booked immediately (not on run success) so aborted attempts'
         windows show up in the cumulative telemetry too *)
      t.cum.c_windows <- t.cum.c_windows + 1;
      (match Metrics.current () with
      | Some m -> Metrics.tally m ~kind:Metrics.k_windows ~id:0 1
      | None -> ());
      (match t.trace with
      | Some tr ->
          Trace.emit tr ~ts:!mn
            (Trace.E_window
               {
                 upto = (if wend = max_int then -1 else wend);
                 shards = t.nshards;
                 solo;
               })
      | None -> ());
      t.in_window <- true;
      t.solo_run <- solo;
      Memory.set_solo t.mem solo;
      Memory.freeze t.mem true;
      (if solo then drain_window_safe t t.shards.(!solo_sid)
       else
         match cr with
         | Some c -> crew_window t c
         | None -> Array.iter (fun sh -> drain_window_safe t sh) t.shards);
      t.in_window <- false;
      t.solo_run <- false;
      Memory.set_solo t.mem false;
      Memory.freeze t.mem false;
      (* [-1] disables direct-run while the coordinator executes *)
      Array.iter (fun sh -> sh.s_window_end <- -1) t.shards;
      if not t.abort then run_coordinator t;
      (match t.trace with
      | Some tr ->
          Trace.emit tr ~ts:(now_of t)
            (Trace.E_window_done { aborted = t.abort })
      | None -> ());
      if not t.abort then begin
        t.res_hwm <-
          Memory.assign_residency t.mem
            ~shard_of_node:(fun n -> n mod t.nshards)
            ~from:t.res_hwm;
        apply_promotions t;
        if ev_total t - ev_base > max_events then begin
          t.t_hard <- true;
          t.abort <- true
        end
      end
    end
  done

(* Run the simulation until no events remain.  [until] stops the run at
   that virtual time (a backstop against threads that spin forever);
   [max_events] bounds total logical resumptions.  Returns the final
   time plus a structured health record: [Completed] when every thread
   returned, [Stalled] when live threads remained — either because the
   [until] backstop dropped their pending events or because the queue
   drained with threads still blocked (a deadlock, e.g. a barrier that
   never fills, a lock whose holder crash-stopped, or a parked waiter
   no access will ever wake). *)
let run_health ?(until = max_int) ?(max_events = 200_000_000) t =
  let wall_start = Unix.gettimeofday () in
  let start_now = now_of t in
  let start_elided = (Memory.stats t.mem).Stats.elided_probes in
  let ev_base = ev_total t in
  let parks_base = parks_total t in
  let wakeups_base = wakeups_total t in
  let dropped = ref 0 in
  t.run_until <- until;
  if t.nshards = 1 then begin
    let sh = t.shards.(0) in
    let p = sh.popped in
    let continue_run = ref true in
    while !continue_run do
      if not (Event_queue.pop_into sh.q p) then continue_run := false
      else if p.Event_queue.p_time > until then begin
        (* the popped event plus everything still queued is discarded *)
        dropped := 1 + Event_queue.length sh.q;
        continue_run := false
      end
      else begin
        sh.s_events <- sh.s_events + 1;
        if sh.s_events - ev_base > max_events then
          raise (Simulation_runaway (sh.s_events - ev_base));
        sh.s_fuel <- 0;
        sh.s_now <- p.Event_queue.p_time;
        p.Event_queue.p_run ()
      end
    done
  end
  else begin
    (* workloads holding cross-thread state outside the simulated
       memory (hardware message queues) declared themselves unshardable
       at setup time — abort before doing any work *)
    if Memory.serial_required t.mem then raise Shard_conflict;
    t.abort <- false;
    (* window fusing: a second [run_health] on an already-windowed sim
       (the harness probing in slices) keeps the first call's stamps and
       residency.  Leftover stamps are only ever *higher* than a fresh
       clear would leave, so fusing can only add aborts — never hide a
       conflict — and residency is monotone under [assign_residency]. *)
    if not (t.stamps_armed && !window_fusing) then begin
      Memory.clear_stamps t.mem;
      t.res_hwm <-
        Memory.assign_residency t.mem
          ~shard_of_node:(fun n -> n mod t.nshards)
          ~from:0;
      apply_promotions t
    end;
    t.stamps_armed <- true;
    let cr = if t.use_domains then Some (crew_acquire (t.nshards - 1)) else None in
    Fun.protect
      ~finally:(fun () ->
        (match cr with Some c -> crew_release c | None -> ());
        t.in_window <- false;
        t.solo_run <- false;
        Memory.set_solo t.mem false;
        Memory.freeze t.mem false)
      (fun () -> run_windows t cr ~until ~max_events ~ev_base ~dropped);
    if t.abort then begin
      (match t.trace with
      | Some tr ->
          let line = match conflict_lines t with l :: _ -> l | [] -> -1 in
          Trace.emit_end tr
            (Trace.E_spec_abort { line; hard = hard_aborted t })
      | None -> ());
      raise Shard_conflict
    end;
    (* the run is good: merge per-shard memory statistics into slot 0
       so [Memory.stats] / [perf] report serial-identical totals *)
    Memory.merge_slots t.mem
  end;
  (* close the open run-state spans so the thread gauges cover the
     whole run, whichever state each thread ends it in *)
  if macc_here t <> None then begin
    let fin = now_of t in
    Hashtbl.iter
      (fun _ st ->
        if st.m_state < m_dead then m_trans t st ~at:fin st.m_state)
      t.tstates
  end;
  let executed = ev_total t - ev_base in
  t.cum.c_events <- t.cum.c_events + executed;
  t.cum.c_parks <- t.cum.c_parks + (parks_total t - parks_base);
  t.cum.c_wakeups <- t.cum.c_wakeups + (wakeups_total t - wakeups_base);
  t.cum.c_sim_cycles <- t.cum.c_sim_cycles + (now_of t - start_now);
  t.cum.c_elided <-
    t.cum.c_elided
    + ((Memory.stats t.mem).Stats.elided_probes - start_elided);
  (* link-queued cycles book only what this run added beyond what was
     already booked: an aborted attempt raises before reaching here and
     its stats roll back with the memory, so replays never double-count *)
  let lq = (Memory.stats t.mem).Stats.link_queued_cycles in
  t.cum.c_link_queued <- t.cum.c_link_queued + (lq - t.booked_lq);
  t.booked_lq <- lq;
  (* the run survived: its slot accumulators hold the serial-equivalent
     schedule's metric samples and may reach the domain sink.  Draining
     only here — never on the abort path above — keeps a replayed
     attempt from re-contributing samples (the abort raises first, and
     [Memory.restore] rolls the accumulators back with everything
     else); the merge empties the accumulators, so callers that step a
     simulation through several runs drain incrementally without
     overlap. *)
  Memory.drain_metrics t.mem;
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. wall_start) *. 1e9)
  in
  t.wall_ns <- t.wall_ns + wall_ns;
  t.cum.c_wall_ns <- t.cum.c_wall_ns + wall_ns;
  let verdict =
    if live_total t <= 0 then Completed
    else
      match most_stalled t with
      | Some st ->
          Stalled
            { tid = st.tid; core = st.core; last_progress = st.last_progress }
      | None -> Completed
  in
  ( now_of t,
    {
      verdict;
      crashed = List.rev t.crashed_tids;
      preemptions =
        Array.fold_left (fun acc sh -> acc + sh.s_preempt) 0 t.shards;
      jitter_events =
        Array.fold_left (fun acc sh -> acc + sh.s_jitter) 0 t.shards;
      dropped_events = !dropped;
    } )

let run ?until ?max_events t = fst (run_health ?until ?max_events t)

(* ------------------------------------------------------------------ *)
(* Engine performance counters. *)

type perf = {
  events : int; (* logical resumptions: event pops + direct-run continues *)
  parks : int; (* threads parked event-driven *)
  wakeups : int; (* parked threads woken by a real access *)
  elided_probes : int; (* inert spin probes accounted without an event *)
  link_queued_cycles : int;
      (* cycles memory ops spent queued behind busy interconnect
         resources (links and home directories); strategy-independent
         like the fields above it *)
  sim_cycles : int; (* virtual time advanced *)
  wall_ns : int; (* wall-clock spent in the run loop *)
  (* Speculation telemetry (all zero on serial runs).  These depend on
     the execution strategy — shard count, replay luck, policy — so
     identity checks between serial and sharded runs must exclude
     them. *)
  windows : int; (* PDES windows executed (including aborted ones) *)
  speculative_replays : int; (* aborted attempts replayed with promotions *)
  promoted_lines : int; (* lines promoted to coordinator-mediated access *)
  serial_escalations : int; (* runs that gave up on sharding entirely *)
}

let perf t =
  {
    events = ev_total t;
    parks = parks_total t;
    wakeups = wakeups_total t;
    elided_probes = (Memory.stats t.mem).Stats.elided_probes;
    link_queued_cycles = (Memory.stats t.mem).Stats.link_queued_cycles;
    sim_cycles = now_of t;
    wall_ns = t.wall_ns;
    windows = t.n_windows;
    speculative_replays = t.n_replays;
    promoted_lines = t.n_promoted;
    serial_escalations = 0 (* per-run escalation is booked by the harness *);
  }

(* Totals across every simulation run by the *calling domain* (the
   benchmark harness samples deltas around each job in the domain that
   executes it, then sums per-job deltas). *)
let cumulative_perf () =
  let c = counters () in
  {
    events = c.c_events;
    parks = c.c_parks;
    wakeups = c.c_wakeups;
    elided_probes = c.c_elided;
    link_queued_cycles = c.c_link_queued;
    sim_cycles = c.c_sim_cycles;
    wall_ns = c.c_wall_ns;
    windows = c.c_windows;
    speculative_replays = c.c_replays;
    promoted_lines = c.c_promoted;
    serial_escalations = c.c_escalations;
  }

(* Pure arithmetic on perf records, for aggregating per-job deltas. *)
let perf_zero =
  {
    events = 0;
    parks = 0;
    wakeups = 0;
    elided_probes = 0;
    link_queued_cycles = 0;
    sim_cycles = 0;
    wall_ns = 0;
    windows = 0;
    speculative_replays = 0;
    promoted_lines = 0;
    serial_escalations = 0;
  }

let perf_add a b =
  {
    events = a.events + b.events;
    parks = a.parks + b.parks;
    wakeups = a.wakeups + b.wakeups;
    elided_probes = a.elided_probes + b.elided_probes;
    link_queued_cycles = a.link_queued_cycles + b.link_queued_cycles;
    sim_cycles = a.sim_cycles + b.sim_cycles;
    wall_ns = a.wall_ns + b.wall_ns;
    windows = a.windows + b.windows;
    speculative_replays = a.speculative_replays + b.speculative_replays;
    promoted_lines = a.promoted_lines + b.promoted_lines;
    serial_escalations = a.serial_escalations + b.serial_escalations;
  }

let perf_diff a b =
  {
    events = a.events - b.events;
    parks = a.parks - b.parks;
    wakeups = a.wakeups - b.wakeups;
    elided_probes = a.elided_probes - b.elided_probes;
    link_queued_cycles = a.link_queued_cycles - b.link_queued_cycles;
    sim_cycles = a.sim_cycles - b.sim_cycles;
    wall_ns = a.wall_ns - b.wall_ns;
    windows = a.windows - b.windows;
    speculative_replays = a.speculative_replays - b.speculative_replays;
    promoted_lines = a.promoted_lines - b.promoted_lines;
    serial_escalations = a.serial_escalations - b.serial_escalations;
  }
