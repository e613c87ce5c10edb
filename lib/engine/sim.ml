(* The discrete-event simulation engine.

   Simulated threads are ordinary OCaml functions running as coroutines
   under an effect handler, written in direct style exactly like their
   native counterparts.  A memory operation, pause or spin is a plain
   call on the calling thread's own stack: it finds the engine through
   a domain-local slot (set while [run_health] runs) and the running
   thread through the engine's [cur] field, charges the operation's
   virtual-time cost against the coherent memory model at the current
   clock, and — when nothing else could run first — advances the clock
   and returns the value.  Only when the thread must wait (another
   event falls due before its completion, faults are active, or it
   waits on a barrier, a parker or a spinning line) does it perform
   the one effect the engine handles, the payload-free [E_block]; the
   completion time and value wait in the thread state, and the handler
   queues the resumption (or leaves it to whoever will wake the
   thread).

   Spin loops go through {!spin_load} and friends: semantically the
   loop "probe; while the result equals [while_]: pause [poll]; probe",
   but executed event-driven — once the probes reach a steady state
   (inert local hits), the thread parks on the line's wait list inside
   the memory model and is woken, on the exact virtual-time grid the
   poll loop would have used, by the next real access to the line.
   Simulated timestamps are preserved; only the O(poll-iterations)
   event churn collapses to O(1).  Under fault injection the same
   machinery falls back to literal pause/probe stepping so every
   scheduling point draws from the per-thread fault streams in the
   original order.

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

   One simulation runs serially on the domain that created it: one
   event queue, one clock.  Parallelism lives a level up — a benchmark
   is many independent simulations, and [Pool] fans them across
   domains — because the workloads the paper studies share a few hot
   lines, so splitting one simulation across cores would serialize on
   exactly those lines.

   {2 Virtual-time metrics}

   With a [Metrics] sink installed (the [--metrics] / heatmap paths)
   the engine charges thread run-state gauges — how many simulated
   threads were runnable, spinning or parked on each virtual-time
   bucket — plus park/wake event counts into the memory's metrics
   accumulator, alongside the coherence-level samples the memory model
   records there.  The accumulator drains into the domain sink when a
   run completes. *)

open Ssync_platform
open Ssync_coherence
module Rng = Ssync_workload.Rng
module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

(* Per-thread bookkeeping for faults and the watchdog.  A blocked
   thread's continuation waits in [pend_k]; [pend_at] is when to resume
   it (-1: another party — a barrier, a parker, its spin — wakes it)
   and [pend_v] the value it resumes with.  [run_k], allocated once per
   thread, continues it: the engine schedules it directly instead of a
   fresh closure per wait.  A coroutine has at most one pending
   resumption, so one slot suffices. *)
type thread_state = {
  tid : int;
  core : int;
  rng : Rng.t; (* this thread's private fault stream *)
  crash_at : int; (* -1 = never *)
  mutable last_progress : int;
  mutable finished : bool;
  mutable crashed : bool;
  mutable pend_k : (int, unit) Effect.Deep.continuation option;
  mutable pend_at : int;
  mutable pend_v : int;
  mutable run_k : unit -> unit;
  mutable m_state : int;
      (* metrics run-state: 0 runnable / 1 spinning / 2 parked /
         3 dead — codes chosen so [Metrics.k_runnable + m_state] is
         the gauge kind.  Maintained only while metrics are on. *)
  mutable m_since : int; (* virtual time the current run-state began *)
}

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
      })

let counters () = Domain.DLS.get counters_key

type t = {
  platform : Platform.t;
  mem : Memory.t;
  q : Event_queue.t;
  popped : Event_queue.popped; (* preallocated pop-out cell *)
  mutable clock : int; (* virtual time of the executing event *)
  mutable cur : thread_state; (* the thread the engine last continued *)
  mutable n_events : int; (* logical resumptions: pops + direct-runs *)
  mutable ev_base : int; (* [n_events] when the current run began *)
  mutable max_events : int; (* the current run's resumption budget *)
  mutable n_live : int;
  mutable n_parks : int;
  mutable n_wakeups : int;
  mutable n_preempt : int;
  mutable n_jitter : int;
  mutable spawned : int;
  faults : Fault.spec;
  faults_active : bool;
  faults_parkable : bool;
      (* active spec is jitter-only: parking stays exact because inert
         probes draw nothing (see [event_driven] / [spin_start]) *)
  parking : bool; (* event-driven waiter wakeup enabled? *)
  tstates : (int, thread_state) Hashtbl.t;
  mutable crashed_tids : int list; (* reversed *)
  mutable wall_ns : int;
  cum : counters; (* the creating domain's cumulative totals *)
  mutable booked_lq : int;
      (* [Stats.link_queued_cycles] already booked into
         [cum.c_link_queued]: each run books the delta, accesses made
         outside a run (workload setup) included *)
  mutable run_until : int; (* current run's [until] backstop *)
  trace : Trace.t option;
      (* the domain's trace sink, cached at creation time (zero
         overhead when off: one option match per hook site) *)
  macc : Metrics.t option;
      (* the memory's metrics accumulator, cached at creation like
         [trace]: [None] when metrics are off *)
}

type barrier = {
  mutable expected : int;
  mutable arrived : int;
  mutable waiters : thread_state list;
}

(* A single-waiter parking spot for non-memory waiting (e.g. the
   Tilera's hardware message queues): the waiter parks with its poll
   period; [unpark] wakes it at the first poll-grid point after the
   state change, exactly where the poll loop would have noticed. *)
type parker = {
  mutable seat : thread_state option;
  mutable seat_at : int;
  mutable seat_poll : int;
}

(* The running thread must wait: its resumption time and value are in
   its [thread_state]. *)
type _ Effect.t += E_block : int Effect.t

exception Simulation_runaway of int

(* [cur] before the first thread runs. *)
let no_thread =
  {
    tid = -1;
    core = 0;
    rng = Rng.create ~seed:0;
    crash_at = -1;
    last_progress = 0;
    finished = true;
    crashed = false;
    pend_k = None;
    pend_at = -1;
    pend_v = 0;
    run_k = ignore;
    m_state = 3; (* dead: never charged *)
    m_since = 0;
  }

(* Default for [create]'s [?parking] — lets tests A/B the event-driven
   path against literal polling without threading a flag through every
   harness layer. *)
let parking_default = ref true

let create ?(faults = Fault.none) ?parking platform =
  let faults = Fault.validate faults in
  let parking =
    match parking with Some p -> p | None -> !parking_default
  in
  let trace = Trace.current () in
  let mem = Memory.create platform in
  {
    platform;
    mem;
    q = Event_queue.create ();
    popped = Event_queue.make_popped ();
    clock = 0;
    cur = no_thread;
    n_events = 0;
    ev_base = 0;
    max_events = max_int;
    n_live = 0;
    n_parks = 0;
    n_wakeups = 0;
    n_preempt = 0;
    n_jitter = 0;
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
    macc = Memory.metrics mem;
  }

let memory t = t.mem
let platform t = t.platform
let now_of t = t.clock

(* Event-driven waiting applies without faults and under jitter-only
   specs.  Jitter draws happen per *real* memory op; an inert probe —
   exactly the kind parking elides — is made to consume no draw (see
   [spin_start]), so the per-thread draw sequence is identical whether
   the waiter parked or polled.  Preemption and crash specs keep the
   polling fallback: their draws key off every scheduling point, which
   parking removes. *)
let event_driven t =
  t.parking && ((not t.faults_active) || t.faults_parkable)

(* The simulation whose [run_health] is executing on this domain.
   Operations called outside spawned code find no engine here (or none
   running them) and raise [Effect.Unhandled], as an unhandled perform
   would. *)
let running : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let engine () =
  match Domain.DLS.get running with
  | Some t -> t
  | None -> raise (Effect.Unhandled E_block)

(* ---------------------- engine-side metrics ------------------------ *)

(* Thread run-state codes: chosen so [Metrics.k_runnable + state] is
   the gauge kind for the three live states.  [m_dead] spans are never
   charged. *)
let m_runnable = 0
let m_spinning = 1
let m_parked = 2
let m_dead = 3

(* Close the thread's current run-state span at [at] and enter state
   [s].  No-op when metrics are off. *)
let m_trans t st ~at s =
  match t.macc with
  | None -> ()
  | Some m ->
      if st.m_state < m_dead then
        Metrics.span m
          ~kind:(Metrics.k_runnable + st.m_state)
          ~id:0 ~t0:st.m_since ~t1:at ~weight:1;
      st.m_state <- s;
      if at > st.m_since then st.m_since <- at

let m_bump t ~kind ~ts =
  match t.macc with
  | None -> ()
  | Some m -> Metrics.bump m ~kind ~id:0 ~ts 1

(* Every engine push targets an absolute time at or after the affected
   thread's logical now. *)
let sched t ~at run = Event_queue.push t.q ~time:at run

(* ------------------------------------------------------------------ *)
(* Fault hooks. *)

(* Extra completion delay at a scheduling point: latency jitter (memory
   ops only) plus preemption — the thread is descheduled for the drawn
   duration, whatever it holds staying held.  Draws come from the
   thread's private stream, so faults in one thread never perturb
   another thread's draws. *)
let trace_fault t st kind cycles =
  match t.trace with
  | Some tr ->
      Trace.emit tr ~ts:t.clock (Trace.E_fault { tid = st.tid; kind; cycles })
  | None -> ()

let fault_extra t st ~mem_op =
  if not t.faults_active then 0
  else begin
    let f = t.faults in
    let extra = ref 0 in
    if mem_op && f.Fault.jitter_prob > 0.
       && Rng.below st.rng f.Fault.jitter_prob
    then begin
      let cy = Fault.sample st.rng f.Fault.jitter_cycles in
      extra := !extra + cy;
      t.n_jitter <- t.n_jitter + 1;
      trace_fault t st Trace.Jitter cy
    end;
    if f.Fault.preempt_prob > 0. && Rng.below st.rng f.Fault.preempt_prob
    then begin
      let cy = Fault.sample st.rng f.Fault.preempt_cycles in
      extra := !extra + cy;
      t.n_preempt <- t.n_preempt + 1;
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
   means. *)
let crash_sched t st ~at f =
  if st.crash_at >= 0 && (not st.crashed) && at >= st.crash_at then
    sched t ~at:(max t.clock st.crash_at) (fun () ->
        if not st.crashed then begin
          st.crashed <- true;
          t.crashed_tids <- st.tid :: t.crashed_tids;
          t.n_live <- t.n_live - 1;
          m_trans t st ~at:t.clock m_dead;
          trace_fault t st Trace.Crash 0
        end)
  else
    sched t ~at (fun () ->
        st.last_progress <- t.clock;
        f ())

(* Schedule a preallocated engine step of [st] ([f] updates
   [last_progress] itself at entry) without wrapping it in a fresh
   closure unless the crash path demands it. *)
let sched_step t st ~at f =
  if st.crash_at >= 0 then crash_sched t st ~at f else sched t ~at f

(* One logical resumption, counted against the run's budget: the run
   loop counts its pops here and the direct-run path its inline
   completions, so a thread that never yields still hits
   [max_events]. *)
let count_event t =
  t.n_events <- t.n_events + 1;
  if t.n_events - t.ev_base > t.max_events then
    raise (Simulation_runaway (t.n_events - t.ev_base))

(* ------------------------------------------------------------------ *)
(* Completions and wakeups. *)

(* Direct-run: a completion may skip the event queue entirely — the
   thread just carries on — when nothing can observe the difference:
   no faults active (fault draws key off event shapes), the completion
   time does not cross the run's [until] backstop (the queue would have
   dropped it), and it falls *strictly* before every queued event (so
   no other event could interleave, and same-time FIFO order is
   preserved).  Timestamps, access order and results are exactly those
   of the queued schedule; only the queue round trip disappears.  Both
   a queue pop and a direct-run count as one logical resumption in
   [n_events], so the events counter measures the simulated work, not
   the execution strategy.  A direct-run returns to the thread's own
   code without a continue, so the native stack does not grow however
   long the thread runs ahead. *)
let can_direct t ~at =
  (not t.faults_active) && at <= t.run_until && at < Event_queue.next_time t.q

(* Continue [st]'s blocked continuation with [v]. *)
let continue_thread t st v =
  match st.pend_k with
  | Some k ->
      st.pend_k <- None;
      t.cur <- st;
      Effect.Deep.continue k v
  | None -> ()

(* Suspend the running thread [st] until [at], to resume with [v]; with
   [at = -1], until another party wakes it with its own value. *)
let block st ~at v =
  st.pend_at <- at;
  st.pend_v <- v;
  Effect.perform E_block

(* The running thread's own operation completes at [at] with value
   [v]: return it directly or wait for the queue. *)
let complete t st ~at v =
  if can_direct t ~at then begin
    count_event t;
    t.clock <- at;
    st.last_progress <- at;
    v
  end
  else block st ~at v

(* Schedule the blocked [st]'s resumption with [v] at [at], on behalf
   of another thread (barrier releases, unparks) or of an engine step.
   Always queued: the waker may wake several threads at one captured
   timestamp, and running one synchronously would advance the clock
   under the others' feet. *)
let wake t st ~at v =
  st.pend_v <- v;
  sched_step t st ~at st.run_k

(* ------------------------------------------------------------------ *)
(* Operations available *inside* a simulated thread.  Calling them
   outside of [spawn]ed code raises [Effect.Unhandled]. *)

(* One memory operation of the running thread. *)
let access op a ~operand ~operand2 ~fetch =
  let t = engine () in
  let st = t.cur in
  (match t.trace with
  | Some tr -> Trace.set_tid tr st.tid
  | None -> ());
  let latency =
    Memory.access t.mem ~core:st.core ~now:t.clock op a ~operand ~operand2
      ~fetch
  in
  let v = Memory.last_result t.mem in
  let latency = latency + fault_extra t st ~mem_op:true in
  complete t st ~at:(t.clock + latency) v

let load a = access Arch.Load a ~operand:0 ~operand2:0 ~fetch:false

let store a v =
  ignore (access Arch.Store a ~operand:v ~operand2:0 ~fetch:false)

(* Store posted through the store buffer: the thread pays only the
   retire cost while the transfer (value, invalidations, occupancy)
   completes in the background — [operand2 = 1] marks it for the
   memory model. *)
let store_posted a v =
  ignore (access Arch.Store a ~operand:v ~operand2:1 ~fetch:false)

let cas a ~expected ~desired =
  access Arch.Cas a ~operand:expected ~operand2:desired ~fetch:false = 1

(* CAS that returns the value it observed (success iff it equals
   [expected]): a retry loop built on it sees the line's value at its
   own probe time instead of re-reading a stale snapshot. *)
let cas_fetch a ~expected ~desired =
  access Arch.Cas a ~operand:expected ~operand2:desired ~fetch:true

let fai a = access Arch.Fai a ~operand:1 ~operand2:0 ~fetch:false

(* Atomic fetch-and-add by [k] (k >= 0); [faa a 0] is an exclusive
   atomic read: it returns the value and leaves the line Modified at the
   caller, modeling a prefetchw+load probe. *)
let faa a k =
  if k < 0 then invalid_arg "Sim.faa: negative increment";
  access Arch.Fai a ~operand:k ~operand2:0 ~fetch:false

(* Store-class fetch-and-add: an increment of a field only this thread
   writes (e.g. a ticket lock's [current] on release).  Applied
   atomically by the model but costed as a plain store. *)
let faa_store a k =
  if k < 0 then invalid_arg "Sim.faa_store: negative increment";
  access Arch.Fai a ~operand:k ~operand2:1 ~fetch:false

(* [tas] returns [true] when the caller won (the previous value was 0). *)
let tas a = access Arch.Tas a ~operand:0 ~operand2:0 ~fetch:false = 0
let swap a v = access Arch.Swap a ~operand:v ~operand2:0 ~fetch:false

let pause cycles =
  if cycles > 0 then begin
    let t = engine () in
    let st = t.cur in
    let cycles = max 1 cycles + fault_extra t st ~mem_op:false in
    ignore (complete t st ~at:(t.clock + cycles) 0)
  end

let now () = (engine ()).clock
let self_core () = (engine ()).cur.core
let self_tid () = (engine ()).cur.tid

(* {2 Spin primitives}

   Each is exactly the loop [let x = probe in if x = while_ then
   (pause poll; retry) else x] of the hand-written spinlocks, executed
   event-driven (see the header comment).  The first probe runs
   immediately, pauses sit between probes, and the call returns the
   first probe result that differs from [while_]. *)

(* The spin state machine.  Started on the spinning thread's stack at
   [t.clock]: the first step emulates [pause poll; probe] — or parks.
   Whenever the next probe would be inert, the thread parks on the line
   and the memory model wakes it — via [replay], on the original probe
   grid — when a real access disturbs the line.  A probe that ends the
   spin while the machine still runs on the thread's stack (a [poll = 0]
   spin whose first probe succeeds) leaves its completion in
   [pend_at]/[pend_v] for [spin] to return; one that ends it from a
   queued step resumes the blocked thread, directly when nothing else
   could run first. *)
let spin_start t st op a ~operand ~operand2 ~while_ ~poll =
  let core = st.core in
  let inline = ref true in
  (* [probe] and [continue_spin] are allocated once per spin episode and
     update [last_progress] themselves, so the per-probe steps schedule
     them directly ([sched_step]) with no wrapper closure. *)
  let rec probe () =
    (* [t.clock] is the probe's issue time *)
    st.last_progress <- t.clock;
    (match t.trace with
    | Some tr -> Trace.set_tid tr st.tid
    | None -> ());
    (* Under a jitter-only spec an inert probe consumes no fault draw:
       parking elides exactly the inert probes, so charging draws only
       to non-inert probes keeps the per-thread draw sequence — and so
       the whole schedule — identical parked or polled. *)
    let inert =
      t.faults_parkable
      && Memory.probe_would_elide t.mem ~core op a ~operand ~operand2 ~while_
    in
    let latency =
      Memory.access t.mem ~core ~now:t.clock op a ~operand ~operand2
        ~fetch:false
    in
    let x = Memory.last_result t.mem in
    let latency =
      if inert then latency else latency + fault_extra t st ~mem_op:true
    in
    let at = t.clock + latency in
    if x <> while_ then begin
      m_trans t st ~at m_runnable;
      if !inline then begin
        st.pend_at <- at;
        st.pend_v <- x
      end
      else if can_direct t ~at then begin
        count_event t;
        t.clock <- at;
        st.last_progress <- at;
        continue_thread t st x
      end
      else wake t st ~at x
    end
    else sched_step t st ~at continue_spin
  and continue_spin () =
    (* [t.clock] is the completion time of a probe that returned
       [while_]; emulate [pause poll; probe] — or park. *)
    st.last_progress <- t.clock;
    if
      event_driven t
      && Memory.try_park t.mem ~core ~now:t.clock op a ~operand ~operand2
           ~while_ ~poll ~replay:(fun at ->
             t.n_wakeups <- t.n_wakeups + 1;
             m_bump t ~kind:Metrics.k_wakes ~ts:at;
             m_trans t st ~at m_spinning;
             (match t.trace with
             | Some tr ->
                 Trace.emit tr ~ts:at (Trace.E_wake { tid = st.tid; addr = a })
             | None -> ());
             sched_step t st ~at probe)
    then begin
      t.n_parks <- t.n_parks + 1;
      m_trans t st ~at:t.clock m_parked;
      m_bump t ~kind:Metrics.k_parks ~ts:t.clock;
      match t.trace with
      | Some tr ->
          Trace.emit tr ~ts:t.clock (Trace.E_park { tid = st.tid; addr = a })
      | None -> ()
    end
    else if poll = 0 then probe ()
    else begin
      let cy = max 1 poll + fault_extra t st ~mem_op:false in
      sched_step t st ~at:(t.clock + cy) probe
    end
  in
  m_trans t st ~at:t.clock m_spinning;
  st.pend_at <- -1;
  continue_spin ();
  inline := false

let spin op a ~operand ~operand2 ~while_ ~poll =
  if poll < 0 then invalid_arg "Sim.spin: negative poll interval";
  let t = engine () in
  let st = t.cur in
  spin_start t st op a ~operand ~operand2 ~while_ ~poll;
  if st.pend_at >= 0 then complete t st ~at:st.pend_at st.pend_v
  else block st ~at:(-1) 0

let spin_load a ~while_ ~poll =
  spin Arch.Load a ~operand:0 ~operand2:0 ~while_ ~poll

(* Spin until the test-and-set wins (previous value 0); continues while
   the probe returns 1. *)
let spin_tas a ~poll =
  ignore (spin Arch.Tas a ~operand:0 ~operand2:0 ~while_:1 ~poll)

(* Spin until the CAS succeeds; continues while the probe fails. *)
let spin_cas a ~expected ~desired ~poll =
  ignore (spin Arch.Cas a ~operand:expected ~operand2:desired ~while_:0 ~poll)

let spin_swap a v ~while_ ~poll =
  spin Arch.Swap a ~operand:v ~operand2:0 ~while_ ~poll

(* Spin probing with an exclusive atomic read (prefetchw-style
   [faa a 0]). *)
let spin_faa0 a ~while_ ~poll =
  spin Arch.Fai a ~operand:0 ~operand2:0 ~while_ ~poll

(* {2 Barriers and parkers} *)

let make_barrier n : barrier = { expected = n; arrived = 0; waiters = [] }

(* Barrier arrival.  The releasing arrival is the latest-timed one, so
   every waiter wakes at the release time. *)
let await b =
  let t = engine () in
  let st = t.cur in
  let at = t.clock in
  st.last_progress <- at;
  b.arrived <- b.arrived + 1;
  if b.arrived >= b.expected then begin
    let to_wake = b.waiters in
    b.waiters <- [];
    b.arrived <- 0;
    List.iter (fun w -> wake t w ~at 0) to_wake;
    ignore (block st ~at 0)
  end
  else begin
    b.waiters <- st :: b.waiters;
    ignore (block st ~at:(-1) 0)
  end

let make_parker () : parker = { seat = None; seat_at = 0; seat_poll = 1 }

let park pk ~poll =
  if poll <= 0 then invalid_arg "Sim.park: poll must be positive";
  let t = engine () in
  let st = t.cur in
  if event_driven t then begin
    if pk.seat <> None then invalid_arg "Sim.park: parker already occupied";
    pk.seat <- Some st;
    pk.seat_at <- t.clock;
    pk.seat_poll <- poll;
    t.n_parks <- t.n_parks + 1;
    m_trans t st ~at:t.clock m_parked;
    m_bump t ~kind:Metrics.k_parks ~ts:t.clock;
    (match t.trace with
    | Some tr ->
        Trace.emit tr ~ts:t.clock (Trace.E_park { tid = st.tid; addr = -1 })
    | None -> ());
    ignore (block st ~at:(-1) 0)
  end
  else begin
    (* literal polling: one pause quantum, the caller's loop re-checks *)
    let cy = max 1 poll + fault_extra t st ~mem_op:false in
    ignore (block st ~at:(t.clock + cy) 0)
  end

(* Costless for the caller: it carries on at once. *)
let unpark pk =
  let t = engine () in
  match pk.seat with
  | Some wst ->
      pk.seat <- None;
      (* first poll-grid point after the state change *)
      let dt = t.clock - pk.seat_at in
      let steps = max 1 ((dt + pk.seat_poll - 1) / pk.seat_poll) in
      let wake_at = pk.seat_at + (steps * pk.seat_poll) in
      t.n_wakeups <- t.n_wakeups + 1;
      m_bump t ~kind:Metrics.k_wakes ~ts:wake_at;
      m_trans t wst ~at:wake_at m_runnable;
      (match t.trace with
      | Some tr ->
          Trace.emit tr ~ts:wake_at (Trace.E_wake { tid = wst.tid; addr = -1 })
      | None -> ());
      wake t wst ~at:wake_at 0
  | None -> ()

let event_driven_waits () = event_driven (engine ())

(* Cost-free oracle: robust locks model the OS's exact knowledge of
   which threads died (robust-futex EOWNERDEAD bookkeeping), so the
   query itself adds no events and no latency. *)
let tid_crashed tid =
  let t = engine () in
  match Hashtbl.find_opt t.tstates tid with
  | Some qst -> qst.crashed || (qst.crash_at >= 0 && t.clock >= qst.crash_at)
  | None -> false

(* ------------------------------------------------------------------ *)

let spawn t ~core body =
  Topology.check t.platform.Platform.topo core;
  let tid = t.spawned in
  t.spawned <- tid + 1;
  t.n_live <- t.n_live + 1;
  let st =
    {
      tid;
      core;
      rng = Fault.stream t.faults ~tid;
      crash_at = Fault.crash_time t.faults ~tid;
      last_progress = t.clock;
      finished = false;
      crashed = false;
      pend_k = None;
      pend_at = -1;
      pend_v = 0;
      run_k = ignore;
      m_state = m_runnable;
      m_since = t.clock;
    }
  in
  st.run_k <-
    (fun () ->
      st.last_progress <- t.clock;
      continue_thread t st st.pend_v);
  Hashtbl.replace t.tstates tid st;
  (match t.trace with
  | Some tr -> Trace.emit tr ~ts:t.clock (Trace.E_thread { tid; core })
  | None -> ());
  let open Effect.Deep in
  (* The [E_block] handler, allocated once per thread: it parks the
     continuation and queues the resumption unless another party will
     wake the thread. *)
  let on_block =
    Some
      (fun (k : (int, unit) continuation) ->
        st.pend_k <- Some k;
        if st.pend_at >= 0 then sched_step t st ~at:st.pend_at st.run_k)
  in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          st.finished <- true;
          st.last_progress <- t.clock;
          m_trans t st ~at:t.clock m_dead;
          t.n_live <- t.n_live - 1);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with E_block -> on_block | _ -> None);
    }
  in
  sched t ~at:t.clock (fun () ->
      st.last_progress <- t.clock;
      t.cur <- st;
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

(* Run the simulation until no events remain.  [until] stops the run at
   that virtual time (a backstop against threads that spin forever);
   [max_events] bounds total logical resumptions.  Returns the final
   time plus a structured health record: [Completed] when every thread
   returned, [Stalled] when live threads remained — either because the
   [until] backstop dropped their pending events or because the queue
   drained with threads still blocked (a deadlock, e.g. a barrier that
   never fills, a lock whose holder crash-stopped, or a parked waiter
   no access will ever wake).  While it runs, the domain's [running]
   slot names [t], so the operations its threads call find it; the
   previous occupant (none, or the simulation whose thread called
   [run_health]) is restored on every exit. *)
let run_health ?(until = max_int) ?(max_events = 200_000_000) t =
  let wall_start = Unix.gettimeofday () in
  let start_now = t.clock in
  let start_elided = (Memory.stats t.mem).Stats.elided_probes in
  let ev_base = t.n_events in
  let parks_base = t.n_parks in
  let wakeups_base = t.n_wakeups in
  let dropped = ref 0 in
  t.run_until <- until;
  t.ev_base <- ev_base;
  t.max_events <- max_events;
  let p = t.popped in
  let continue_run = ref true in
  let outer = Domain.DLS.get running in
  Domain.DLS.set running (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set running outer)
    (fun () ->
      while !continue_run do
        if not (Event_queue.pop_into t.q p) then continue_run := false
        else if p.Event_queue.p_time > until then begin
          (* the popped event plus everything still queued is discarded *)
          dropped := 1 + Event_queue.length t.q;
          continue_run := false
        end
        else begin
          count_event t;
          t.clock <- p.Event_queue.p_time;
          p.Event_queue.p_run ()
        end
      done);
  (* close the open run-state spans so the thread gauges cover the
     whole run, whichever state each thread ends it in *)
  if t.macc <> None then begin
    let fin = t.clock in
    Hashtbl.iter
      (fun _ st ->
        if st.m_state < m_dead then m_trans t st ~at:fin st.m_state)
      t.tstates
  end;
  t.cum.c_events <- t.cum.c_events + (t.n_events - ev_base);
  t.cum.c_parks <- t.cum.c_parks + (t.n_parks - parks_base);
  t.cum.c_wakeups <- t.cum.c_wakeups + (t.n_wakeups - wakeups_base);
  t.cum.c_sim_cycles <- t.cum.c_sim_cycles + (t.clock - start_now);
  t.cum.c_elided <-
    t.cum.c_elided
    + ((Memory.stats t.mem).Stats.elided_probes - start_elided);
  let lq = (Memory.stats t.mem).Stats.link_queued_cycles in
  t.cum.c_link_queued <- t.cum.c_link_queued + (lq - t.booked_lq);
  t.booked_lq <- lq;
  (* the accumulator empties as it drains, so callers that step a
     simulation through several runs drain incrementally without
     overlap *)
  Memory.drain_metrics t.mem;
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. wall_start) *. 1e9)
  in
  t.wall_ns <- t.wall_ns + wall_ns;
  t.cum.c_wall_ns <- t.cum.c_wall_ns + wall_ns;
  let verdict =
    if t.n_live <= 0 then Completed
    else
      match most_stalled t with
      | Some st ->
          Stalled
            { tid = st.tid; core = st.core; last_progress = st.last_progress }
      | None -> Completed
  in
  ( t.clock,
    {
      verdict;
      crashed = List.rev t.crashed_tids;
      preemptions = t.n_preempt;
      jitter_events = t.n_jitter;
      dropped_events = !dropped;
    } )

let run ?until ?max_events t = fst (run_health ?until ?max_events t)

(* ------------------------------------------------------------------ *)
(* Engine performance counters. *)

type perf = {
  events : int; (* logical resumptions: event pops + direct-run completions *)
  parks : int; (* threads parked event-driven *)
  wakeups : int; (* parked threads woken by a real access *)
  elided_probes : int; (* inert spin probes accounted without an event *)
  link_queued_cycles : int;
      (* cycles memory ops spent queued behind busy interconnect
         resources (links and home directories) *)
  sim_cycles : int; (* virtual time advanced *)
  wall_ns : int; (* wall-clock spent in the run loop *)
}

let perf t =
  {
    events = t.n_events;
    parks = t.n_parks;
    wakeups = t.n_wakeups;
    elided_probes = (Memory.stats t.mem).Stats.elided_probes;
    link_queued_cycles = (Memory.stats t.mem).Stats.link_queued_cycles;
    sim_cycles = t.clock;
    wall_ns = t.wall_ns;
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
  }
