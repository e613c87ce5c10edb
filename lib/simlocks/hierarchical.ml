(* Hierarchical locks: hticket (hierarchical ticket, Dice et al.'s lock
   cohorting applied to ticket locks — the paper's footnote 3 notes the
   two are the same construction) and HCLH (its CLH counterpart,
   realized as a CLH-of-CLH cohort; the splice-based HCLH of Luchangco
   et al. has the same performance signature: waiters spin node-locally
   and the lock is handed over within a socket whenever possible).

   Structure: one global lock plus one local lock per cluster (die on
   the Opteron, socket on the Xeon).  The first thread of a cluster to
   win its local lock also takes the global lock; on release the holder
   hands over locally while local waiters exist (bounded by [max_pass]
   to preserve long-term fairness), and only then releases the global
   lock.  Each local lock is sized to its cluster: it speaks the
   members' indices within the cluster ([layout]), so HCLH allocates one
   queue node per thread, not one per thread per cluster, and a cluster
   no thread is placed on gets no local lock at all.

   Robust composition: the global lock's robust id space is the
   cluster ids, with liveness delegated to the local locks' shadows —
   a cluster is dead exactly when no live thread is engaged with its
   local lock (nobody is left to drive the cluster's global handle).
   Intra-cluster owner death recovers locally and the global lock never
   notices.  When the cluster's global *driver* dies but live local
   threads remain, the next local winner adopts the cluster's global
   handle mid-queue ([Rshadow.x_adopt]).  When a whole cluster dies,
   the other clusters excise it from the global queue; the excision
   harvests the cluster's dead in-CS holders for the EOWNERDEAD witness
   and resets the cluster's ownership flags. *)

open Ssync_platform

type inner = {
  lock : Lock_type.t;
  waiters : tid:int -> bool; (* is someone queued behind the holder? *)
  robust : Rshadow.ext Rshadow.paths Lazy.t;
      (* the local lock's robust paths, built on first use *)
}

(* Robust shadow probes of a local lock (forces its robust state). *)
let rext l = (Lazy.force l.robust).Rshadow.ext

(* Stands in for the local lock of a cluster no thread is placed on:
   no tid maps to such a cluster, and the global lock only queries the
   ids that entered it, so nothing ever calls it. *)
let vacant : inner =
  let unused ~tid:_ = invalid_arg "Hierarchical: no thread on this cluster" in
  {
    lock =
      {
        Lock_type.name = "vacant";
        acquire = unused;
        release = unused;
        try_acquire = unused;
        acquire_robust = unused;
        release_robust = unused;
        rstats = Lock_type.rstats_zero ();
      };
    waiters = unused;
    robust = lazy (invalid_arg "Hierarchical: no thread on this cluster");
  }

let default_max_pass = 64

(* Where each thread sits in the cohort: [cluster.(tid)] is the node of
   the core it is placed on, [local.(tid)] its index among that
   cluster's members, and [members.(c)] the member tids of cluster [c]
   in ascending order.  A local lock speaks member indices, so it is
   sized to its cluster, not to every thread. *)
type layout = {
  cluster : int array;
  local : int array;
  members : int array array;
}

let layout platform ~place ~n_threads =
  let topo = platform.Platform.topo in
  let cluster =
    Array.init n_threads (fun tid -> topo.Topology.node_of_core (place tid))
  in
  let sizes = Array.make topo.Topology.n_nodes 0 in
  let local = Array.make n_threads 0 in
  Array.iteri
    (fun tid c ->
      local.(tid) <- sizes.(c);
      sizes.(c) <- sizes.(c) + 1)
    cluster;
  let members = Array.map (fun n -> Array.make n 0) sizes in
  Array.iteri (fun tid c -> members.(c).(local.(tid)) <- tid) cluster;
  { cluster; local; members }

(* The local locks: [build c members] for each cluster with members,
   [vacant] for the others. *)
let locals_of layout build =
  Array.mapi
    (fun c members ->
      if Array.length members = 0 then vacant else build c members)
    layout.members

(* First core of each cluster under the platform's placement, used to
   home each cluster's local lock on its own node. *)
let cluster_home platform cluster =
  let topo = platform.Platform.topo in
  let rec find c =
    if c >= topo.Topology.n_cores then 0
    else if topo.Topology.node_of_core c = cluster then c
    else find (c + 1)
  in
  find 0

(* [global_owned]/[passes] are created by the lock constructors (the
   global lock's removal hook must reset them, and it is built before
   the cohort record exists).  They are only read and written by the
   thread currently holding the cluster's local lock — or excising the
   cluster after its death — so plain OCaml state models node-local
   flags with no extra coherence traffic. *)
let cohort ~name ~layout ?(max_pass = default_max_pass)
    ~(global : Lock_type.t) ~(global_robust : Rshadow.ext Rshadow.paths Lazy.t)
    ~(global_owned : bool array) ~(passes : int array)
    ~(locals : inner array) ~rstats () : Lock_type.t =
  let n_clusters = Array.length locals in
  if n_clusters = 0 then invalid_arg "cohort: no clusters";
  let { cluster; local; _ } = layout in
  {
    name;
    acquire =
      (fun ~tid ->
        let c = cluster.(tid) in
        locals.(c).lock.Lock_type.acquire ~tid:local.(tid);
        if not global_owned.(c) then begin
          (* the global lock is acquired on behalf of the cluster *)
          global.Lock_type.acquire ~tid:c;
          global_owned.(c) <- true
        end);
    release =
      (fun ~tid ->
        let c = cluster.(tid) in
        let li = local.(tid) in
        if passes.(c) < max_pass && locals.(c).waiters ~tid:li then begin
          passes.(c) <- passes.(c) + 1;
          (* hand over within the cluster: the global lock stays owned *)
          locals.(c).lock.Lock_type.release ~tid:li
        end
        else begin
          passes.(c) <- 0;
          global_owned.(c) <- false;
          global.Lock_type.release ~tid:c;
          locals.(c).lock.Lock_type.release ~tid:li
        end);
    (* trylock both levels; back out of the local lock if the global one
       is taken, so a failed try leaves the cohort state untouched *)
    try_acquire =
      (fun ~tid ->
        let c = cluster.(tid) in
        let li = local.(tid) in
        if not (locals.(c).lock.Lock_type.try_acquire ~tid:li) then false
        else if global_owned.(c) then true
        else if global.Lock_type.try_acquire ~tid:c then begin
          global_owned.(c) <- true;
          true
        end
        else begin
          locals.(c).lock.Lock_type.release ~tid:li;
          false
        end);
    acquire_robust =
      (fun ~tid ->
        let c = cluster.(tid) in
        let gl = locals.(c).lock.Lock_type.acquire_robust ~tid:local.(tid) in
        let gg =
          if global_owned.(c) then Lock_type.Clean
          else begin
            let global_ext = (Lazy.force global_robust).Rshadow.ext in
            let g =
              match global_ext.Rshadow.x_phase c with
              | Rshadow.Waiting | Rshadow.Holder ->
                  (* the cluster is already in the global queue (or its
                     grant landed) but its driver died: adopt the
                     handle and keep waiting in its place *)
                  global_ext.Rshadow.x_adopt c
              | Rshadow.Out | Rshadow.Releasing ->
                  (* [Releasing] is unreachable for the ticket/CLH
                     globals (their release is atomic with its store),
                     so both mean: no outstanding handle *)
                  global.Lock_type.acquire_robust ~tid:c
            in
            global_owned.(c) <- true;
            g
          end
        in
        Lock_type.merge_grant gl gg);
    release_robust =
      (fun ~tid ->
        let c = cluster.(tid) in
        let li = local.(tid) in
        if passes.(c) < max_pass && (rext locals.(c)).Rshadow.x_waiting_live ()
        then begin
          passes.(c) <- passes.(c) + 1;
          (* hand over within the cluster — but only to a live waiter:
             passing to a queue of corpses would just delay the
             inter-cluster recovery *)
          locals.(c).lock.Lock_type.release_robust ~tid:li
        end
        else begin
          passes.(c) <- 0;
          global_owned.(c) <- false;
          global.Lock_type.release_robust ~tid:c;
          locals.(c).lock.Lock_type.release_robust ~tid:li
        end);
    rstats;
  }

(* Wire a cohort's robust delegation: the global lock judges cluster
   [c] dead when no live thread is engaged with [c]'s local lock, its
   EOWNERDEAD witness for [c] is the harvest of [c]'s dead in-CS
   holders, and removing [c] from the global queue resets [c]'s
   ownership flags. *)
let cluster_hooks (locals : inner array) ~global_owned ~passes =
  let is_dead c = not ((rext locals.(c)).Rshadow.x_engaged_live ()) in
  let dead_of c = (rext locals.(c)).Rshadow.x_harvest () in
  let on_removed c =
    global_owned.(c) <- false;
    passes.(c) <- 0
  in
  (is_dead, dead_of, on_removed)

(* A local lock's witnesses name workload tids, not member indices. *)
let member_tids members i = [ members.(i) ]

let hticket ?max_pass mem platform ~home_core ~n_threads ~place : Lock_type.t =
  let n_clusters = platform.Platform.topo.Topology.n_nodes in
  let layout = layout platform ~place ~n_threads in
  let stats = Lock_type.rstats_zero () in
  let locals =
    locals_of layout (fun c members ->
        (* intra-socket handoffs are short: spin with a small backoff *)
        let lk, waiters, robust =
          Spinlocks.ticket_ext ~backoff_base:180 ~rstats:stats
            ~dead_of:(member_tids members) mem
            ~home_core:(cluster_home platform c) ~n_ids:(Array.length members)
        in
        { lock = lk; waiters = (fun ~tid:_ -> waiters ()); robust })
  in
  let global_owned = Array.make n_clusters false in
  let passes = Array.make n_clusters 0 in
  let is_dead, dead_of, on_removed =
    cluster_hooks locals ~global_owned ~passes
  in
  let global, _, global_robust =
    Spinlocks.ticket_ext ~rstats:stats ~is_dead ~dead_of ~on_removed mem
      ~home_core ~n_ids:n_clusters
  in
  cohort ~name:"HTICKET" ~layout ?max_pass ~global ~global_robust
    ~global_owned ~passes ~locals ~rstats:stats ()

let hclh ?max_pass mem platform ~home_core ~n_threads ~place : Lock_type.t =
  let n_clusters = platform.Platform.topo.Topology.n_nodes in
  let layout = layout platform ~place ~n_threads in
  let stats = Lock_type.rstats_zero () in
  let locals =
    locals_of layout (fun c members ->
        (* one queue node per member, homed at the member's core *)
        let lk, waiters, robust =
          Queue_locks.clh_ext ~rstats:stats ~dead_of:(member_tids members) mem
            ~home_core:(cluster_home platform c)
            ~n_threads:(Array.length members)
            ~place:(fun i -> place members.(i))
        in
        { lock = lk; waiters; robust })
  in
  let global_owned = Array.make n_clusters false in
  let passes = Array.make n_clusters 0 in
  let is_dead, dead_of, on_removed =
    cluster_hooks locals ~global_owned ~passes
  in
  (* the global CLH queue is entered per-cluster, so cluster ids act as
     its thread ids *)
  let global, _, global_robust =
    Queue_locks.clh_ext ~rstats:stats ~is_dead ~dead_of ~on_removed mem
      ~home_core ~n_threads:n_clusters ~place:(fun c ->
        cluster_home platform c)
  in
  cohort ~name:"HCLH" ~layout ?max_pass ~global ~global_robust
    ~global_owned ~passes ~locals ~rstats:stats ()
