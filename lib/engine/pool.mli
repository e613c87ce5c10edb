(** A fixed-size domain pool with deterministic job-to-result ordering.

    Submit independent simulation jobs as pure thunks; [run] fans them
    across up to [jobs] domains (the calling domain included) and
    returns results in submission order, so downstream rendering is
    byte-identical whatever the parallelism.  Each result carries the
    wall time, the engine-counter delta ({!Sim.perf}) and the GC
    allocation deltas measured inside the domain that executed the job
    — all of them domain-local, so concurrent jobs never race on
    them. *)

type stats = {
  wall_ns : int;  (** wall-clock spent executing the job *)
  perf : Sim.perf;  (** engine-counter delta attributable to the job *)
  minor_words : int;
      (** words the job allocated on the minor heap, read with the
          domain-local [Gc.minor_words]: jobs running on other domains
          never leak into the count, and at [jobs = 1] it repeats
          exactly from run to run *)
  promoted_words : int;
      (** words the executing domain promoted to the major heap while
          the job ran ([Gc.counters], domain-local too) *)
  trace : Ssync_trace.Trace.t option;
      (** the job's trace when [Ssync_trace.Trace.requested] was set at
          submission time: a fresh sink installed around the job in
          whatever domain executed it, so per-job traces are
          independent of scheduling and merge deterministically in
          submission order *)
  metrics : Ssync_metrics.Metrics.t option;
      (** the job's virtual-time metrics when
          [Ssync_metrics.Metrics.requested] was set at submission time;
          per-job sinks like [trace], so dumps are byte-identical at
          any [jobs] count *)
}

exception Job_failures of (int * exn) list
(** Raised by {!run} when two or more jobs failed: every
    [(job index, exception)] pair, lowest index first.  A registered
    printer renders all of them.  A single failing job re-raises its
    original exception unchanged instead. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val run : ?jobs:int -> (unit -> 'a) array -> ('a * stats) array
(** [run ~jobs thunks] executes every thunk and returns
    [(value, stats)] per job, indexed like [thunks].  [jobs] defaults
    to {!default_jobs}; [jobs = 1] (or a single job) executes inline on
    the calling domain with no domains or atomics involved.  Domains
    pull jobs off a shared counter, so long and short jobs balance
    dynamically.  If exactly one job raises, its exception is re-raised
    after all jobs finish; if several fail, {!Job_failures} reports
    them all.  Raises [Invalid_argument] when [jobs < 1]. *)

val total_stats : ('a * stats) array -> stats
(** Sum of the per-job stats (field-wise; [trace] is [None] — merge
    traces with {!traces} instead). *)

val traces : ('a * stats) array -> Ssync_trace.Trace.t list
(** The per-job traces in submission order; empty when tracing was
    off. *)

val metrics : ('a * stats) array -> Ssync_metrics.Metrics.t list
(** The per-job metrics sinks in submission order; empty when sampling
    was off. *)
