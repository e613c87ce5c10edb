(* The simple spin locks of libslock: test-and-set, test-and-test-and-set
   with exponential backoff, the ticket lock (three variants, Figure 3),
   the array-based lock, and a futex-style Pthread-Mutex model.

   Every lock carries two disjoint code paths: the plain path (exactly
   the paper's algorithm, untouched by the robust layer) and a robust
   path modeled on robust futexes — see [Rshadow] for the shadow
   discipline that keeps owner/queue bookkeeping exact with zero extra
   simulated memory traffic.  Robust waiters use honest costed probes
   plus explicit pauses (literal polling: under crash-stop faults the
   engine polls anyway), then peek-and-issue atomically to recover. *)

open Ssync_coherence
open Ssync_engine

(* ------------------------- TAS / TTAS ---------------------------- *)
(* Robust owner-word path shared by TAS and TTAS: the word encodes the
   owner as tid+2 (0 free, 1 a plain-path holder), the way a robust
   futex stores the owner's TID — any waiter can match the word against
   the dead-thread oracle and steal from a dead owner.  The steal is
   crash-safe because crash-stop is permanent: a value naming a dead
   owner stays naming a dead owner until somebody overwrites it, and
   the peek-predicted CAS overwrites exactly the value it peeked. *)
let robust_word_paths mem ~stats ~n_threads lock ~mk_backoff :
    unit Rshadow.paths =
  let sh = Rshadow.create ~stats n_threads in
  let acquire ~tid =
    Rshadow.register sh tid;
    let det = ref (-1) in
    let backoff = mk_backoff tid in
    let rec loop () =
      ignore (Sim.load lock);
      (* honest probe above for the traffic; exact decision below *)
      let v = Memory.peek mem lock in
      if v = 0 then begin
        sh.Rshadow.phase.(tid) <- Rshadow.Holder;
        ignore (Sim.cas lock ~expected:0 ~desired:(tid + 2));
        Rshadow.grant sh det
      end
      else if v >= 2 && Rshadow.dead sh (v - 2) then begin
        Rshadow.detect det;
        Rshadow.claim_holder sh (v - 2);
        sh.Rshadow.phase.(tid) <- Rshadow.Holder;
        ignore (Sim.cas lock ~expected:v ~desired:(tid + 2));
        Rshadow.grant sh det
      end
      else begin
        Sim.pause (backoff ());
        loop ()
      end
    in
    loop ()
  in
  let release ~tid =
    sh.Rshadow.phase.(tid) <- Rshadow.Out;
    Sim.store lock 0
  in
  { Rshadow.acquire; release; ext = () }

(* ------------------------------ TAS ------------------------------ *)
(* Spin directly on the atomic: every probe is an exclusive transaction
   on the lock line, the classic non-scalable spin lock. *)
let tas mem ~home_core ~n_threads : Lock_type.t =
  let lock = Memory.alloc ~home_core mem in
  let rstats = Lock_type.rstats_zero () in
  let acquire_robust, release_robust =
    (* the plain TAS hammers with poll 0; the robust path's probe pair
       (load + peek-gated CAS) needs a short gap to stay comparable *)
    Rshadow.entries
      (lazy
        (robust_word_paths mem ~stats:rstats ~n_threads lock
           ~mk_backoff:(fun _tid () -> 16)))
  in
  {
    name = "TAS";
    acquire = (fun ~tid:_ -> Sim.spin_tas lock ~poll:0);
    release = (fun ~tid:_ -> Sim.store lock 0);
    try_acquire = (fun ~tid:_ -> Sim.tas lock);
    acquire_robust;
    release_robust;
    rstats;
  }

(* ------------------------------ TTAS ----------------------------- *)
(* Spin with plain loads (served from the local cache while the holder
   keeps the line) and only attempt the TAS when the lock looks free;
   back off exponentially after a lost race. *)
let ttas mem ~home_core ~n_threads : Lock_type.t =
  let lock = Memory.alloc ~home_core mem in
  (* one backoff per thread, created on its first acquire and reset at
     each later one — state identical to a fresh one, without
     allocating on the lock's hot path *)
  let backoffs = Array.make n_threads None in
  let backoff_for tid =
    match backoffs.(tid) with
    | Some b ->
        Backoff.reset b;
        b
    | None ->
        let b = Backoff.create ~seed:tid () in
        backoffs.(tid) <- Some b;
        b
  in
  let rstats = Lock_type.rstats_zero () in
  let acquire_robust, release_robust =
    Rshadow.entries
      (lazy
        (robust_word_paths mem ~stats:rstats ~n_threads lock
           ~mk_backoff:(fun tid ->
             let b = backoff_for tid in
             fun () -> Backoff.once b)))
  in
  {
    name = "TTAS";
    acquire =
      (fun ~tid ->
        let b = backoff_for tid in
        let rec loop v =
          if v = 0 then begin
            if not (Sim.tas lock) then begin
              Sim.pause (Backoff.once b);
              loop (Sim.load lock)
            end
          end
          else
            (* re-read every 4 cycles; local while cached *)
            loop (Sim.spin_load lock ~while_:v ~poll:4)
        in
        loop (Sim.load lock));
    release = (fun ~tid:_ -> Sim.store lock 0);
    (* probe first so a failed try costs one local load, not a TAS miss *)
    try_acquire = (fun ~tid:_ -> Sim.load lock = 0 && Sim.tas lock);
    acquire_robust;
    release_robust;
    rstats;
  }

(* ----------------------------- TICKET ---------------------------- *)

type ticket_variant =
  | Ticket_spin          (* non-optimized: spin on current with raw loads *)
  | Ticket_backoff       (* back-off proportional to the queue position *)
  | Ticket_prefetchw
      (* back-off + keep the line Modified at the prober (the Opteron
         prefetchw optimization of section 5.3): the probe is an atomic
         read (faa 0) that acquires the line exclusively, so the
         releaser's update finds a Modified line instead of paying the
         shared-store broadcast. *)

let ticket_variant_name = function
  | Ticket_spin -> "TICKET-SPIN"
  | Ticket_backoff -> "TICKET"
  | Ticket_prefetchw -> "TICKET-PFW"

(* Both counters live in ONE cache line, as in libslock: acquiring the
   ticket (fetch-and-add on the next half) brings the whole line to the
   core, so the subsequent read of [current] is a local hit and an
   uncontested release stays local.  Layout: next counter in the high
   bits, current in the low 24 bits. *)
let ticket_shift = 1 lsl 24
let ticket_mask = ticket_shift - 1

(* Robust path of a ticket lock on [line].  Shadow: which raw ticket
   each id drew ([tick], -1 none) — set in the same plain block as the
   faa that draws it, via a peek of the line, so the mapping turn ->
   owner is exact.  A waiter whose turn is held up by a dead owner
   advances [current] past the dead turn with a peek-predicted CAS (the
   robust "skip"): a dead waiter's turn is simply consumed, a dead
   holder's turn additionally queues the EOWNERDEAD witness. *)
let ticket_robust mem line ~backoff_base ~stats ?is_dead ?dead_of ?on_removed
    n_ids : Rshadow.ext Rshadow.paths =
  let sh = Rshadow.create ~stats ?is_dead ?dead_of ?on_removed n_ids in
  let tick = Array.make (max 1 n_ids) (-1) in
  let owner_of turn =
    let rec go i =
      if i >= n_ids then None
      else if tick.(i) = turn then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec wait_robust ~id ~my det =
    ignore (Sim.load line);
    let v = Memory.peek mem line in
    let cur = v land ticket_mask in
    if cur = my then begin
      sh.Rshadow.phase.(id) <- Rshadow.Holder;
      Rshadow.grant sh det
    end
    else begin
      (match owner_of cur with
      | Some d when Rshadow.dead sh d ->
          Rshadow.detect det;
          (if sh.Rshadow.phase.(d) = Rshadow.Holder then
             Rshadow.claim_holder sh d
           else Rshadow.excise sh d);
          tick.(d) <- -1;
          (* skip the dead turn: advance current past it (guaranteed:
             [v] was peeked in this same plain block) *)
          ignore (Sim.cas line ~expected:v ~desired:(v + 1))
      | _ ->
          let dist = (my - cur + ticket_shift) land ticket_mask in
          Sim.pause (max 1 (dist * max 1 (backoff_base / 2))));
      wait_robust ~id ~my det
    end
  in
  let acquire ~tid =
    Rshadow.register sh tid;
    let det = ref (-1) in
    (* predict the drawn ticket in the same plain block as the faa *)
    let v0 = Memory.peek mem line in
    let my = (v0 lsr 24) land ticket_mask in
    tick.(tid) <- my;
    if v0 land ticket_mask = my then begin
      (* uncontended: granted at the draw itself *)
      sh.Rshadow.phase.(tid) <- Rshadow.Holder;
      ignore (Sim.faa line ticket_shift);
      Rshadow.grant sh det
    end
    else begin
      sh.Rshadow.phase.(tid) <- Rshadow.Waiting;
      ignore (Sim.faa line ticket_shift);
      wait_robust ~id:tid ~my det
    end
  in
  let release ~tid =
    tick.(tid) <- -1;
    sh.Rshadow.phase.(tid) <- Rshadow.Out;
    ignore (Sim.faa_store line 1)
  in
  let ext =
    {
      Rshadow.x_phase = (fun id -> sh.Rshadow.phase.(id));
      x_adopt =
        (fun id ->
          let det = ref (Sim.now ()) in
          if sh.Rshadow.phase.(id) = Rshadow.Holder then Rshadow.grant sh det
          else wait_robust ~id ~my:tick.(id) det);
      x_waiting_live = (fun () -> Rshadow.waiting_live sh);
      x_engaged_live = (fun () -> Rshadow.engaged_live sh);
      x_harvest = (fun () -> Rshadow.harvest_dead_holders sh);
    }
  in
  { Rshadow.acquire; release; ext }

(* Returns the lock plus a [waiters] probe (does anybody queue behind
   the current holder?) and the robust paths with their extension
   (built on first use), both needed by the hierarchical cohort locks.
   [n_ids] bounds the id space of the robust path (thread ids, a
   cluster's member indices when this is a cohort's local lock, or
   cluster ids when it is a cohort's global lock — then
   [is_dead]/[dead_of]/[on_removed] translate the ids to thread
   liveness and witnesses). *)
let ticket_ext ?(variant = Ticket_backoff) ?(backoff_base = 1500) ?rstats
    ?is_dead ?dead_of ?on_removed mem ~home_core ~n_ids :
    Lock_type.t * (unit -> bool) * Rshadow.ext Rshadow.paths Lazy.t =
  let line = Memory.alloc ~home_core mem in
  let wait_turn my =
    let probe () =
      match variant with
      | Ticket_spin | Ticket_backoff -> Sim.load line
      | Ticket_prefetchw ->
          (* exclusive-prefetch probe: atomic read leaving the line
             Modified here *)
          Sim.faa line 0
    in
    let spin v ~poll =
      match variant with
      | Ticket_spin | Ticket_backoff -> Sim.spin_load line ~while_:v ~poll
      | Ticket_prefetchw -> Sim.spin_faa0 line ~while_:v ~poll
    in
    (* spin while the whole line is unchanged; any change (a new ticket
       drawn, a release) re-derives the position and its backoff *)
    let rec loop v =
      let cur = v land ticket_mask in
      if cur <> my then begin
        let poll =
          match variant with
          | Ticket_spin -> 0
          | Ticket_backoff -> max 1 ((my - cur) * backoff_base)
          | Ticket_prefetchw ->
              (* the reservation makes over-eager probes harmless (a
                 foreign probe degrades to a directed read that does not
                 occupy the line), so poll twice as tightly: the next
                 holder notices its turn sooner without slowing the
                 releaser down *)
              max 1 ((my - cur) * backoff_base / 2)
        in
        loop (spin v ~poll)
      end
    in
    loop (probe ())
  in
  let rstats =
    match rstats with Some s -> s | None -> Lock_type.rstats_zero ()
  in
  let robust =
    lazy
      (ticket_robust mem line ~backoff_base ~stats:rstats ?is_dead ?dead_of
         ?on_removed n_ids)
  in
  let acquire_robust, release_robust = Rshadow.entries robust in
  let lock : Lock_type.t =
    {
      name = ticket_variant_name variant;
      acquire =
        (fun ~tid:_ ->
          let old = Sim.faa line ticket_shift in
          let my = (old lsr 24) land ticket_mask in
          if old land ticket_mask <> my then wait_turn my);
      release = (fun ~tid:_ -> ignore (Sim.faa_store line 1));
      (* a drawn ticket cannot be abandoned, so the trylock only draws
         one when it wins on the spot: CAS the whole line from
         "next = current" to "next+1 = current" *)
      try_acquire =
        (fun ~tid:_ ->
          let v = Sim.load line in
          let cur = v land ticket_mask in
          let nxt = (v lsr 24) land ticket_mask in
          nxt = cur && Sim.cas line ~expected:v ~desired:(v + ticket_shift));
      acquire_robust;
      release_robust;
      rstats;
    }
  in
  let waiters () =
    let v = Sim.load line in
    (v lsr 24) land ticket_mask > (v land ticket_mask) + 1
  in
  (lock, waiters, robust)

let ticket ?variant ?backoff_base mem ~home_core ~n_threads : Lock_type.t =
  let lock, _, _ =
    ticket_ext ?variant ?backoff_base mem ~home_core ~n_ids:n_threads
  in
  lock

(* ----------------------------- ARRAY ----------------------------- *)
(* Anderson's array lock: waiters spin each on their own slot (line);
   release flips the next slot.

   Robust path: mutual exclusion rests on a shadow [turn] (the absolute
   position currently granted) advanced atomically with each release or
   excision; the slot flags remain the wake-up vehicle, so a stale flag
   left by a dead thread is harmless (the turn check rejects it) and a
   missing flag whose writer died is compensated by a self-grant.  The
   first turn is the tail's current value: 0 on a fresh lock, the next
   position to be drawn on one that quiesced after plain use (whose
   grant flag the last plain release already set). *)
let array_robust mem ~tail ~slots ~stats ~n_threads : unit Rshadow.paths =
  let n_slots = Array.length slots in
  let sh = Rshadow.create ~stats n_threads in
  let pos_of = Array.make (max 1 n_threads) (-1) in
  (* absolute position drawn by each id *)
  let turn = ref (Memory.peek mem tail) in
  let flag_writer = ref (-1) in
  (* who owes the current turn its grant flag; -1 = already written
     (the initial poke of slots.(0), or the last plain release) *)
  let owner_at pos =
    let rec go i =
      if i >= n_threads then None
      else if pos_of.(i) = pos then Some i
      else go (i + 1)
    in
    go 0
  in
  let acquire ~tid =
    Rshadow.register sh tid;
    let det = ref (-1) in
    let t0 = Memory.peek mem tail in
    pos_of.(tid) <- t0;
    sh.Rshadow.phase.(tid) <- Rshadow.Waiting;
    ignore (Sim.fai tail);
    let idx = t0 mod n_slots in
    let rec wait () =
      ignore (Sim.load slots.(idx));
      let flag = Memory.peek mem slots.(idx) in
      if
        !turn = t0
        && (flag = 1
           ||
           let w = !flag_writer in
           w = tid || (w >= 0 && Rshadow.dead sh w))
      then begin
        (* granted: the turn is ours and the flag either arrived, or
           its writer is this thread (we advanced the turn to our own
           position during an excision), or its writer died before
           writing (a dead writer's store can never land later: the
           model applies stores at issue) *)
        sh.Rshadow.phase.(tid) <- Rshadow.Holder;
        Rshadow.grant sh det
      end
      else begin
        (if !turn <> t0 then begin
           let g = !turn in
           match owner_at g with
           | Some d when Rshadow.dead sh d ->
               Rshadow.detect det;
               (if sh.Rshadow.phase.(d) = Rshadow.Holder then
                  Rshadow.claim_holder sh d
                else Rshadow.excise sh d);
               pos_of.(d) <- -1;
               turn := g + 1;
               flag_writer := tid;
               (* retire the dead turn's stale flag, then wake the next
                  turn; [turn] already advanced, so a crash between
                  these stores leaves only stale/missing flags, both
                  harmless under the turn check *)
               let gslot = slots.(g mod n_slots) in
               if Memory.peek mem gslot = 1 then Sim.store gslot 0;
               if !turn <> t0 then Sim.store slots.(!turn mod n_slots) 1
           | _ -> Sim.pause 24
         end
         else Sim.pause 24);
        wait ()
      end
    in
    wait ()
  in
  let release ~tid =
    let p = pos_of.(tid) in
    let idx = p mod n_slots in
    pos_of.(tid) <- -1;
    sh.Rshadow.phase.(tid) <- Rshadow.Out;
    turn := p + 1;
    flag_writer := tid;
    Sim.store slots.(idx) 0;
    Sim.store slots.((idx + 1) mod n_slots) 1
  in
  { Rshadow.acquire; release; ext = () }

let array_lock mem ~home_core ~n_slots ~n_threads : Lock_type.t =
  if n_slots <= 0 then invalid_arg "array_lock: n_slots must be positive";
  let tail = Memory.alloc ~home_core mem in
  let slots = Array.init n_slots (fun _ -> Memory.alloc ~home_core mem) in
  Memory.poke mem slots.(0) 1;
  (* remembers which slot each thread owns between acquire and release *)
  let my_slot = Array.make n_threads 0 in
  let rstats = Lock_type.rstats_zero () in
  let acquire_robust, release_robust =
    Rshadow.entries
      (lazy (array_robust mem ~tail ~slots ~stats:rstats ~n_threads))
  in
  {
    name = "ARRAY";
    acquire =
      (fun ~tid ->
        let idx = Sim.fai tail mod n_slots in
        my_slot.(tid) <- idx;
        if Sim.load slots.(idx) = 0 then
          ignore (Sim.spin_load slots.(idx) ~while_:0 ~poll:6));
    release =
      (fun ~tid ->
        let idx = my_slot.(tid) in
        Sim.store slots.(idx) 0;
        Sim.store slots.((idx + 1) mod n_slots) 1);
    (* a taken slot cannot be abandoned, so only claim one whose grant
       flag is already set: CAS the tail forward iff its slot is free *)
    try_acquire =
      (fun ~tid ->
        let tl = Sim.load tail in
        let idx = tl mod n_slots in
        Sim.load slots.(idx) = 1
        && Sim.cas tail ~expected:tl ~desired:(tl + 1)
        &&
        (my_slot.(tid) <- idx;
         true));
    acquire_robust;
    release_robust;
    rstats;
  }

(* ----------------------------- MUTEX ----------------------------- *)
(* Robust path of the Pthread-Mutex model below: the closest to the
   real thing — the shadow *is* the kernel's robust bookkeeping.  The
   owner is recorded with the acquiring CAS/swap; a releaser requeues
   past dead sleepers; when the owner dies, the head live sleeper
   claims the mutex with EOWNERDEAD (after pruning dead sleepers ahead
   of it). *)
let mutex_robust mem lock ~sleepers ~flag_for ~syscall_cycles ~sleep_cycles
    ~stats ~n_threads : unit Rshadow.paths =
  let sh = Rshadow.create ~stats n_threads in
  let owner = ref (-1) in
  let prune_dead_sleepers () =
    sleepers :=
      List.filter
        (fun t ->
          if Rshadow.dead sh t then begin
            Rshadow.excise sh t;
            false
          end
          else true)
        !sleepers
  in
  let acquire ~tid =
    Rshadow.register sh tid;
    let det = ref (-1) in
    Sim.pause 20; (* library call overhead *)
    let flag = flag_for tid in
    let fast () =
      let v = Memory.peek mem lock in
      v = 0
      &&
      (owner := tid;
       sh.Rshadow.phase.(tid) <- Rshadow.Holder;
       ignore (Sim.cas lock ~expected:0 ~desired:1);
       true)
    in
    if fast () then Rshadow.grant sh det
    else begin
      Sim.store flag 0;
      let rec enter () =
        (* the peek decides holder-vs-sleeper in the same plain block
           the swap issues, so the shadow matches the swap's outcome *)
        let v = Memory.peek mem lock in
        if v = 0 then begin
          owner := tid;
          sh.Rshadow.phase.(tid) <- Rshadow.Holder;
          ignore (Sim.swap lock 2);
          Rshadow.grant sh det
        end
        else begin
          sh.Rshadow.phase.(tid) <- Rshadow.Waiting;
          sleepers := !sleepers @ [ tid ];
          ignore (Sim.swap lock 2);
          Sim.pause syscall_cycles; (* futex_wait entry *)
          sleep ()
        end
      and sleep () =
        if sh.Rshadow.phase.(tid) = Rshadow.Holder then
          (* a releaser handed the mutex over while we slept; the flag
             store may still be in flight (or its writer dead), but the
             grant itself landed with the releaser's dequeue *)
          Rshadow.grant sh det
        else begin
          ignore (Sim.load flag);
          if sh.Rshadow.phase.(tid) = Rshadow.Holder then Rshadow.grant sh det
          else begin
            let ow = !owner in
            if
              ow >= 0 && ow <> tid
              && Rshadow.dead sh ow
              && (sh.Rshadow.phase.(ow) = Rshadow.Holder
                 || sh.Rshadow.phase.(ow) = Rshadow.Releasing)
            then begin
              Rshadow.detect det;
              prune_dead_sleepers ();
              match !sleepers with
              | t :: rest when t = tid ->
                  (* head live sleeper claims the dead owner's mutex *)
                  sleepers := rest;
                  Rshadow.claim_holder sh ow;
                  owner := tid;
                  sh.Rshadow.phase.(tid) <- Rshadow.Holder;
                  Sim.store lock 2; (* re-assert HELD|WAITERS *)
                  Rshadow.grant sh det
              | _ ->
                  Sim.pause (syscall_cycles + sleep_cycles);
                  sleep ()
            end
            else begin
              Sim.pause (syscall_cycles + sleep_cycles);
              sleep ()
            end
          end
        end
      in
      enter ()
    end
  in
  let release ~tid =
    sh.Rshadow.phase.(tid) <- Rshadow.Releasing;
    prune_dead_sleepers ();
    match !sleepers with
    | [] ->
        owner := -1;
        sh.Rshadow.phase.(tid) <- Rshadow.Out;
        ignore (Sim.swap lock 0)
    | t :: rest ->
        (* direct handoff, requeued past any dead sleepers: the grant
           is effective at this block (shadow owner + phase), the flag
           store is only the wake-up; a crash before the flag lands is
           recovered by the grantee's own poll loop *)
        sleepers := rest;
        owner := t;
        sh.Rshadow.phase.(t) <- Rshadow.Holder;
        sh.Rshadow.phase.(tid) <- Rshadow.Out;
        Sim.pause syscall_cycles; (* futex_wake *)
        Sim.store (flag_for t) 1
  in
  { Rshadow.acquire; release; ext = () }

(* A Pthread-Mutex model: fast path is a CAS; the slow path queues in
   the kernel (a futex wait: syscall overhead plus a sleep the releaser
   ends).  The kernel's wait queue is FIFO, so a contended release
   hands the mutex directly to the longest-sleeping waiter — the holder
   cannot barge back in past threads already asleep, which is what
   keeps pthread throughput flat (not collapsing) at high contention.

   The wait queue and queue membership are kernel state, invisible to
   the coherence protocol, so they live in plain OCaml; each sleeper
   has its own grant-flag line, stored by the releaser, which is how
   the wake-up travels through the memory model.  Lock word: 0 free,
   1 held, 2 held with (possible) waiters. *)
let mutex ?(syscall_cycles = 900) ?(sleep_cycles = 1800) mem ~home_core
    ~n_threads : Lock_type.t =
  let lock = Memory.alloc ~home_core mem in
  let sleepers : int list ref = ref [] in
  (* each thread's grant-flag line, allocated on its first sleep; -1
     none yet *)
  let flags = Array.make n_threads (-1) in
  let flag_for tid =
    let a = flags.(tid) in
    if a >= 0 then a
    else begin
      let a = Memory.alloc ~home_core mem in
      flags.(tid) <- a;
      a
    end
  in
  let wait_flag flag =
    if Sim.load flag = 0 then
      ignore (Sim.spin_load flag ~while_:0 ~poll:(syscall_cycles + sleep_cycles))
  in
  let rec slow tid flag =
    if Sim.swap lock 2 <> 0 then begin
      Sim.store flag 0;
      sleepers := !sleepers @ [ tid ];
      Sim.pause syscall_cycles; (* futex_wait entry *)
      wait_granted tid flag
    end
  and wait_granted tid flag =
    if not (List.mem tid !sleepers) then
      (* a releaser dequeued us: the mutex is ours once the grant flag
         lands (direct handoff; the lock word never went through 0) *)
      wait_flag flag
    else if Sim.load lock = 0 then begin
      (* a release raced past our enqueue and saw an empty queue *)
      if List.mem tid !sleepers then begin
        sleepers := List.filter (fun t -> t <> tid) !sleepers;
        slow tid flag
      end
      else wait_granted tid flag
    end
    else wait_flag flag
  in
  let rstats = Lock_type.rstats_zero () in
  let acquire_robust, release_robust =
    Rshadow.entries
      (lazy
        (mutex_robust mem lock ~sleepers ~flag_for ~syscall_cycles
           ~sleep_cycles ~stats:rstats ~n_threads))
  in
  {
    name = "MUTEX";
    acquire =
      (fun ~tid ->
        Sim.pause 20; (* library call overhead *)
        if not (Sim.cas lock ~expected:0 ~desired:1) then
          slow tid (flag_for tid));
    release =
      (fun ~tid:_ ->
        match !sleepers with
        | [] -> ignore (Sim.swap lock 0)
        | t :: rest ->
            (* direct handoff to the longest sleeper: dequeue, pay the
               futex_wake syscall, store its grant flag; the lock word
               stays 2 so nobody barges in between *)
            sleepers := rest;
            Sim.pause syscall_cycles;
            Sim.store (flag_for t) 1);
    try_acquire =
      (fun ~tid:_ ->
        Sim.pause 20; (* library call overhead *)
        Sim.cas lock ~expected:0 ~desired:1);
    acquire_robust;
    release_robust;
    rstats;
  }
