(* The benchmark's workloads: fixed batches of independent simulations,
   each built through the same public entry points the figure code uses
   ([Harness.run], [Sim.create]/[spawn]/[run_health], [Simlock.create],
   [Ssht_sim], [Memory.alloc], [Fault.preemption]).

   The workload seed drives only the simulated threads' random choices
   (keys, lock indices) and the fault streams; the list of jobs is the
   same for every seed.  At seed 0 every job body reproduces its figure
   counterpart bit for bit ([Lock_bench.throughput], the
   [Faults_bench] cells, [Figures_app.ssht_lock_throughput] and
   [ssht_mp_throughput]); the benchmark's tests check that.

   Every simulation starts with empty modelled caches, and the ssht
   prefill runs inside the simulation before the start barrier, so its
   virtual cycles and host time count towards the job. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks
open Ssync_workload

type kind =
  | Ssht_lock of {
      algo : Simlock.algo;
      n_buckets : int;
      capacity : int;
    }
  | Ssht_mp of { n_buckets : int; capacity : int }
  | Lock of {
      algo : Simlock.algo;
      n_locks : int;
      preempt : float;
      jitter : float;
      replica : int;  (** selects an independent fault stream *)
    }

type job = { pid : Arch.platform_id; threads : int; duration : int; kind : kind }

type workload = Ssht | Locks | Preempt

let workloads = [ ("ssht", Ssht); ("locks", Locks); ("preempt", Preempt) ]

let workload_of_string s = List.assoc_opt s workloads

(* ------------------------------------------------------------------ *)
(* Seeds.  Seed 0 maps every stream onto the figure code's constant. *)

let seed_stride = 1_000_003
let lcg_next = Ssync_ccbench.Lock_bench.lcg_next
let lock_stream ~seed ~tid = lcg_next (tid + 7 + (seed * seed_stride))
let key_stream ~seed ~tid = Rng.create ~seed:(tid + 1 + (seed * seed_stride))

(* [Faults_bench] draws every fault stream from seed 42. *)
let fault_seed ~seed ~replica = 42 + (seed * seed_stride) + (replica * 7919)

(* Preemption quantum of the [Faults_bench] experiment. *)
let preempt_cycles = (2_000, 20_000)
let jitter_cycles = (20, 400)

let faults_of ~seed ~replica ~preempt ~jitter =
  let seed = fault_seed ~seed ~replica in
  if preempt = 0. && jitter = 0. then Fault.none
  else
    let spec = Fault.preemption ~seed ~cycles:preempt_cycles preempt in
    if jitter = 0. then spec
    else Fault.validate { spec with Fault.jitter_prob = jitter; jitter_cycles }

(* ------------------------------------------------------------------ *)
(* Plans. *)

let platforms = Arch.paper_platform_ids
let algos pid = Simlock.algos_for (Platform.get pid)

(* fig11 thread samples, shared by the lock and message-passing halves *)
let ssht_threads = function
  | Arch.Opteron -> [ 1; 6; 18; 36 ]
  | Arch.Xeon -> [ 1; 10; 18; 36 ]
  | _ -> [ 1; 8; 18; 36 ]

let ssht_duration = 60_000
let ssht_config = (512, 12)

let locks_threads = function
  | Arch.Opteron -> [ 6; 18; 36 ]
  | Arch.Xeon -> [ 10; 20; 40 ]
  | Arch.Niagara -> [ 8; 16; 32 ]
  | _ -> [ 6; 18; 36 ]

(* fig5 quick window at one lock: shorter windows leave TAS-family
   threads stalled behind the 4x-window backstop *)
let locks_duration = function 1 -> 80_000 | _ -> 20_000
let preempt_duration = 60_000
let preempt_rates = [ 0.001; 0.005 ]
let jitter_rates = [ 0.; 0.02 ]

(* Whether a faulted run stalls depends on its fault stream, so one
   stream per cell would make the batch's tail latency a property of
   the seed; several independent streams per cell average that out. *)
let preempt_replicas = 4

let plan = function
  | Ssht ->
      let n_buckets, capacity = ssht_config in
      List.concat_map
        (fun pid ->
          List.concat_map
            (fun threads ->
              { pid; threads; duration = ssht_duration;
                kind = Ssht_mp { n_buckets; capacity } }
              :: List.map
                   (fun algo ->
                     { pid; threads; duration = ssht_duration;
                       kind = Ssht_lock { algo; n_buckets; capacity } })
                   (algos pid))
            (ssht_threads pid))
        platforms
  | Locks ->
      List.concat_map
        (fun n_locks ->
          List.concat_map
            (fun pid ->
              List.concat_map
                (fun algo ->
                  List.map
                    (fun threads ->
                      { pid; threads; duration = locks_duration n_locks;
                        kind =
                          Lock { algo; n_locks; preempt = 0.; jitter = 0.; replica = 0 } })
                    (locks_threads pid))
                (algos pid))
            platforms)
        [ 1; 512 ]
  | Preempt ->
      List.concat_map
        (fun pid ->
          List.concat_map
            (fun algo ->
              List.concat_map
                (fun preempt ->
                  List.concat_map
                    (fun jitter ->
                      List.init preempt_replicas (fun replica ->
                          { pid; threads = Ssync_bench.Faults_bench.threads_for pid;
                            duration = preempt_duration;
                            kind = Lock { algo; n_locks = 1; preempt; jitter; replica } }))
                    jitter_rates)
                preempt_rates)
            (algos pid))
        platforms

let key j =
  let p = Arch.platform_name j.pid in
  match j.kind with
  | Ssht_lock { algo; n_buckets; capacity } ->
      Printf.sprintf "ssht-lock/%s/%s/t%d/%dx%d/d%d" p (Simlock.name algo)
        j.threads n_buckets capacity j.duration
  | Ssht_mp { n_buckets; capacity } ->
      Printf.sprintf "ssht-mp/%s/t%d/%dx%d/d%d" p j.threads n_buckets capacity
        j.duration
  | Lock { algo; n_locks; preempt; jitter; replica } ->
      Printf.sprintf "lock/%s/%s/t%d/l%d/p%g/j%g/r%d/d%d" p (Simlock.name algo)
        j.threads n_locks preempt jitter replica j.duration

(* ------------------------------------------------------------------ *)
(* What one simulation computed: the identity of its virtual-time
   results.  A speed-only change must leave all of it unchanged. *)

type digest = {
  ops : int array;  (** per simulated thread *)
  stalled : bool;  (** the harness verdict was [Stalled] *)
  sim_cycles : int;
  events : int;
  parks : int;
  wakeups : int;
  stats : Stats.t;  (** the run's [Memory.stats] *)
}

let total_ops d = Array.fold_left ( + ) 0 d.ops

(* Host-side measurements of one job, taken inside the job thunk on the
   domain that ran it ([Gc.minor_words] counts per domain). *)
type host = {
  wall_s : float;
  loop_s : float;  (** [Sim.perf.wall_ns]: the engine's run loop *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

type outcome = Done of digest * host | Raised of string

let is_stalled (h : Sim.health) =
  match h.Sim.verdict with Sim.Completed -> false | Sim.Stalled _ -> true

let stats_copy (s : Stats.t) =
  let c = Stats.create () in
  Stats.add c s;
  c

(* ------------------------------------------------------------------ *)
(* Job bodies.  [spans] records the layer boundaries when tracing. *)

let ssht_lock spans ~job ~parent ~seed j ~algo ~n_buckets ~capacity =
  let p = Platform.get j.pid in
  let threads = j.threads and duration = j.duration in
  let sim =
    Span.wrap spans ~job ~parent "sim.create" (fun _ -> Sim.create p)
  in
  let mem = Sim.memory sim in
  let t =
    Span.wrap spans ~job ~parent "setup" (fun _ ->
        Ssync_ssht.Ssht_sim.create ~lock_algo:algo
          ~home_core:(Platform.place p 0) mem p ~n_threads:threads ~n_buckets
          ~capacity)
  in
  let key_space = n_buckets * capacity in
  let local_work = Platform.local_work_for p ~threads in
  let ops = Array.make threads 0 in
  Span.wrap spans ~job ~parent "sim.spawn" (fun _ ->
      let b = Sim.make_barrier threads in
      for tid = 0 to threads - 1 do
        Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
            if tid = 0 then Ssync_ssht.Ssht_sim.prefill t ~tid ~key_space;
            Sim.await b;
            let rng = key_stream ~seed ~tid in
            let deadline = Sim.now () + duration in
            let n = ref 0 in
            while Sim.now () < deadline do
              let k = Rng.int rng key_space in
              Sim.pause local_work;
              (match Op_mix.sample Op_mix.paper rng with
              | Op_mix.Get ->
                  ignore (Ssync_ssht.Ssht_sim.get_or t ~tid k ~default:0)
              | Op_mix.Put -> ignore (Ssync_ssht.Ssht_sim.put t ~tid k (k * 2))
              | Op_mix.Remove -> ignore (Ssync_ssht.Ssht_sim.remove t ~tid k));
              incr n
            done;
            ops.(tid) <- !n)
      done);
  let health =
    Span.wrap spans ~job ~parent "sim.run_health" (fun _ ->
        snd (Sim.run_health sim ~until:((duration * 12) + 80_000_000)))
  in
  let stats = stats_copy (Memory.stats mem) in
  Span.wrap spans ~job ~parent "memory.dispose" (fun _ -> Memory.dispose mem);
  (ops, health, Sim.perf sim, stats)

let ssht_mp spans ~job ~parent ~seed j ~n_buckets ~capacity =
  let p = Platform.get j.pid in
  let threads = j.threads and duration = j.duration in
  let n_servers = max 1 (threads / 3) in
  let n_clients = max 1 (threads - n_servers) in
  let sim =
    Span.wrap spans ~job ~parent "sim.create" (fun _ -> Sim.create p)
  in
  let mem = Sim.memory sim in
  let key_space = n_buckets * capacity in
  let t =
    Span.wrap spans ~job ~parent "setup" (fun _ ->
        let server_cores = Array.init n_servers (fun i -> Platform.place p i) in
        let client_cores =
          Array.init n_clients (fun i -> Platform.place p (n_servers + i))
        in
        let t =
          Ssync_ssht.Ssht_mp.create mem p ~server_cores ~client_cores
            ~touch_lines:3 ~server_work:(Platform.local_work p)
        in
        for k = 0 to (key_space / 2) - 1 do
          let s = Ssync_ssht.Ssht_mp.server_of t k in
          Hashtbl.replace
            t.Ssync_ssht.Ssht_mp.servers.(s).Ssync_ssht.Ssht_mp.table k (k * 2)
        done;
        t)
  in
  let ops = Array.make n_clients 0 in
  Span.wrap spans ~job ~parent "sim.spawn" (fun _ ->
      for i = 0 to n_servers - 1 do
        Sim.spawn sim ~core:(Platform.place p i) (fun () ->
            Ssync_ssht.Ssht_mp.run_server t i)
      done;
      let b = Sim.make_barrier n_clients in
      for c = 0 to n_clients - 1 do
        Sim.spawn sim ~core:(Platform.place p (n_servers + c)) (fun () ->
            Sim.await b;
            let rng = key_stream ~seed ~tid:c in
            let deadline = Sim.now () + duration in
            let n = ref 0 in
            while Sim.now () < deadline do
              let k = Rng.int rng key_space in
              Sim.pause (Platform.local_work p);
              (match Op_mix.sample Op_mix.paper rng with
              | Op_mix.Get -> ignore (Ssync_ssht.Ssht_mp.get t ~client:c k)
              | Op_mix.Put ->
                  ignore (Ssync_ssht.Ssht_mp.put t ~client:c k (k * 2))
              | Op_mix.Remove ->
                  ignore (Ssync_ssht.Ssht_mp.remove t ~client:c k));
              incr n
            done;
            ops.(c) <- !n;
            Ssync_ssht.Ssht_mp.stop t ~client:c)
      done);
  let health =
    Span.wrap spans ~job ~parent "sim.run_health" (fun _ ->
        snd (Sim.run_health sim ~until:(duration * 12)))
  in
  let stats = stats_copy (Memory.stats mem) in
  Span.wrap spans ~job ~parent "memory.dispose" (fun _ -> Memory.dispose mem);
  (ops, health, Sim.perf sim, stats)

(* [Lock_bench.throughput] with seeded lock choices. *)
let lock spans ~job ~parent ~seed j ~algo ~n_locks ~preempt ~jitter ~replica =
  let p = Platform.get j.pid in
  let threads = j.threads in
  let local_work = Platform.local_work_for p ~threads in
  let faults = faults_of ~seed ~replica ~preempt ~jitter in
  let mem_ref = ref None in
  let r =
    Span.wrap spans ~job ~parent "harness.run" (fun hid ->
        Harness.run ~faults p ~threads ~duration:j.duration
          ~setup:(fun mem ->
            Span.wrap spans ~job ~parent:hid "setup" (fun _ ->
                mem_ref := Some mem;
                let home = Platform.place p 0 in
                let locks =
                  Array.init n_locks (fun _ ->
                      Simlock.create ~home_core:home mem p ~n_threads:threads
                        algo)
                in
                let data =
                  Array.init n_locks (fun _ -> Memory.alloc ~home_core:home mem)
                in
                (locks, data)))
          ~body:(fun (locks, data) _mem ~tid ~deadline ->
            let n = ref 0 in
            let s = ref (lock_stream ~seed ~tid) in
            while Sim.now () < deadline do
              s := lcg_next !s;
              let i = !s mod n_locks in
              let lock = locks.(i) in
              lock.Lock_type.acquire ~tid;
              let v = Sim.load data.(i) in
              Sim.store data.(i) (v + 1);
              lock.Lock_type.release ~tid;
              Sim.pause local_work;
              incr n
            done;
            !n))
  in
  (* [Harness.run] disposes the memory; its statistics record is not
     recycled, so reading it afterwards is safe *)
  let stats = stats_copy (Memory.stats (Option.get !mem_ref)) in
  (r.Harness.ops, r.Harness.health, r.Harness.perf, stats)

(* Run one job, catching any exception as a failed outcome.  [index] is
   the job id its spans carry.  The job span is the root; the run loop
   is added as a child of the span that drove the engine, with the
   duration [Sim.perf] measured. *)
let run ?(spans = Span.disabled) ~seed ~index j : outcome =
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Span.now () in
  let jid = Span.start spans ~job:index ~parent:Span.no_span "job" in
  match
    match j.kind with
    | Ssht_lock { algo; n_buckets; capacity } ->
        ssht_lock spans ~job:index ~parent:jid ~seed j ~algo ~n_buckets
          ~capacity
    | Ssht_mp { n_buckets; capacity } ->
        ssht_mp spans ~job:index ~parent:jid ~seed j ~n_buckets ~capacity
    | Lock { algo; n_locks; preempt; jitter; replica } ->
        lock spans ~job:index ~parent:jid ~seed j ~algo ~n_locks ~preempt
          ~jitter ~replica
  with
  | exception e ->
      Span.stop spans jid;
      Raised (Printexc.to_string e)
  | ops, health, perf, stats ->
      let t1 = Span.now () in
      Span.stop spans jid;
      let w1 = Gc.minor_words () in
      let gc1 = Gc.quick_stat () in
      let loop_s = float_of_int perf.Sim.wall_ns *. 1e-9 in
      (if spans.Span.on then
         (* The run loop sits inside the span that drove it: inside
            [sim.run_health] for direct simulations, and after the setup
            closure inside [harness.run]. *)
         let mine name =
           List.find_opt
             (fun s -> s.Span.job = index && s.Span.name = name)
             spans.Span.spans
         in
         let placed =
           match (mine "sim.run_health", mine "harness.run", mine "setup") with
           | Some d, _, _ -> Some (d, d.Span.t0)
           | None, Some d, Some s -> Some (d, s.Span.t1)
           | _ -> None
         in
         (* the engine times its loop with another clock: clip to the
            enclosing span so the children never overlap *)
         match placed with
         | Some (d, start) ->
             ignore
               (Span.add spans ~job:index ~parent:d.Span.id "sim.run_loop" start
                  (Float.min d.Span.t1 (start +. loop_s)))
         | None -> ());
      Done
        ( {
            ops;
            stalled = is_stalled health;
            sim_cycles = perf.Sim.sim_cycles;
            events = perf.Sim.events;
            parks = perf.Sim.parks;
            wakeups = perf.Sim.wakeups;
            stats;
          },
          {
            wall_s = t1 -. t0;
            loop_s;
            minor_words = w1 -. w0;
            promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
            major_collections =
              gc1.Gc.major_collections - gc0.Gc.major_collections;
          } )
