(* Per-platform cache-coherence cost models.

   The *logic* (who supplies the data, when a broadcast happens, what is
   local) follows each platform's protocol as described in the paper's
   sections 3 and 5; the *constants* are calibrated against the paper's
   Table 2/3 measurements (see Latencies).  The model generalizes the
   tables: it covers local hits, requester-held upgrades, atomic
   operations on states the paper does not report, sharer-count effects
   on invalidations, and the Opteron's remote-directory penalty
   (section 5.2). *)

(* What the memory model knows about a cache line when an operation is
   issued.  [owner] holds the line in Modified/Owned/Exclusive ([-1] =
   none); [sharers] are cores with Shared/Forward copies (never
   including [owner]); [home] is the node of the line's directory /
   home tile / memory.  Fields are mutable so the memory model can
   refill one scratch view per access instead of allocating a record
   on every operation, and [owner] is a plain int so that neither the
   refill nor an ownership test allocates (an [int option] owner boxes
   a [Some] per refill and per [owner = Some requester] test).  Callers
   outside the memory model describe lines with [view] instead. *)
type line_view = {
  mutable state : Arch.cstate;
  mutable owner : int;
  mutable sharers : Coreset.t;
  mutable home : int;
  mutable llc_dirty : bool;
      (* the last write drained through a store buffer, so on an
         inclusive-LLC machine (Xeon) the home LLC already holds the
         dirty data: a same-die fetch is an LLC hit, not an owner-cache
         round trip.  Cleared by any non-posted write. *)
}

let uncached (v : line_view) = v.owner < 0 && Coreset.is_empty v.sharers

let n_holders (v : line_view) =
  Coreset.cardinal v.sharers + if v.owner < 0 then 0 else 1

let holds (v : line_view) core = v.owner = core || Coreset.mem v.sharers core

(* Distance class between two *nodes* of a topology. *)
let node_class (t : Topology.t) n1 n2 : Arch.distance =
  match t.id with
  | Arch.Niagara -> if n1 = n2 then Same_core else Same_die
  | Arch.Opteron | Arch.Opteron2 ->
      if n1 = n2 then Same_die
      else if Topology.opteron_same_mcm n1 n2 then Same_mcm
      else if t.node_hops n1 n2 = 1 then One_hop
      else Two_hops
  | Arch.Xeon | Arch.Xeon2 ->
      let h = t.node_hops n1 n2 in
      if h = 0 then Same_die else if h = 1 then One_hop else Two_hops
  | Arch.Tilera ->
      let h = t.node_hops n1 n2 in
      if h = 0 then Same_core
      else if h = 1 then One_hop
      else if h >= 9 then Max_hops
      else Two_hops

let rank_of_class : Arch.distance -> int = function
  | Same_core -> 0
  | Same_die -> 1
  | Same_mcm -> 2
  | One_hop -> 3
  | Two_hops -> 4
  | Max_hops -> 5

(* The core whose cached copy the protocol reaches for: the owner if one
   exists, otherwise the closest sharer; [-1] for uncached lines.  The
   sharer walk uses [Coreset.next], so the hot read path allocates
   nothing. *)
let source_core (t : Topology.t) ~requester (v : line_view) =
  if v.owner >= 0 then v.owner
  else begin
    (* closest sharer by distance class; ties keep the lowest id —
       any same-class representative yields the same latency *)
    let rnode = t.node_of_core requester in
    let best = ref (-1) and best_rank = ref max_int in
    let s = ref (Coreset.next v.sharers 0) in
    while !s >= 0 do
      let r = rank_of_class (node_class t rnode (t.node_of_core !s)) in
      if r < !best_rank then begin
        best_rank := r;
        best := !s
      end;
      s := Coreset.next v.sharers (!s + 1)
    done;
    !best
  end

let class_to_core t ~requester core =
  node_class t (t.node_of_core requester) (t.node_of_core core)

let class_to_home t ~requester (v : line_view) =
  node_class t (t.node_of_core requester) v.home

(* Distance class to the data source, or to the home when uncached. *)
let source_class t ~requester (v : line_view) =
  let c = source_core t ~requester v in
  if c >= 0 then class_to_core t ~requester c else class_to_home t ~requester v

(* [worst], or the class from [rnode] to [c]'s node if that is farther
   (the requester's own copy costs nothing to kill). *)
let farther (t : Topology.t) ~requester rnode worst c =
  if c = requester then worst
  else
    let d = node_class t rnode (t.node_of_core c) in
    if rank_of_class d > rank_of_class worst then d else worst

(* An exclusive request on a multi-copy line completes only when the
   farthest remote copy has acknowledged its invalidation, so the
   transaction's distance class is the worst over the data source and
   every other holder.  This is what makes a queue lock's cross-socket
   handoff pay the remote row even when the releaser itself shares the
   line. *)
let invalidation_class (t : Topology.t) ~requester (v : line_view)
    (base : Arch.distance) : Arch.distance =
  let rnode = t.node_of_core requester in
  let worst =
    ref (if v.owner >= 0 then farther t ~requester rnode base v.owner else base)
  in
  let s = ref (Coreset.next v.sharers 0) in
  while !s >= 0 do
    worst := farther t ~requester rnode !worst !s;
    s := Coreset.next v.sharers (!s + 1)
  done;
  !worst

(* -------------------------------------------------------------- *)
(* Opteron: MOESI, broadcast protocol assisted by an *incomplete*
   directory (the HyperTransport-assist probe filter lives in the LLC of
   the line's home node).  Key behaviours (sections 3.1, 5.2, 5.3):
   - loads cost the same regardless of the previous state;
   - stores/atomics on Shared or Owned lines broadcast invalidations to
     all nodes, even when sharing is confined to one node;
   - when the home (directory) node is remote to both requester and
     owner, latency grows with the distance to the directory. *)

let opteron_row4 (d : Arch.distance) (v : int array) =
  match d with
  | Same_die -> v.(0)
  | Same_mcm -> v.(1)
  | One_hop -> v.(2)
  | Two_hops -> v.(3)
  | Same_core -> v.(0)
  | Max_hops -> v.(3)

(* Extra cycles when the probe-filter lookup happens on a node that is
   neither the requester's nor the owner's (section 5.2: the worst case
   raises a 252-cycle transfer to 312). *)
let sharer_on_node (t : Topology.t) sharers node =
  let s = ref (Coreset.next sharers 0) in
  while !s >= 0 && t.node_of_core !s <> node do
    s := Coreset.next sharers (!s + 1)
  done;
  !s >= 0

let opteron_directory_penalty (t : Topology.t) ~requester (v : line_view) =
  if uncached v then 0 (* the home node itself supplies the data *)
  else
  let rnode = t.node_of_core requester in
  let home_involved =
    v.home = rnode
    ||
    if v.owner >= 0 then t.node_of_core v.owner = v.home
    else sharer_on_node t v.sharers v.home
  in
  if home_involved then 0 else 30 * max 1 (t.node_hops rnode v.home)

(* Latency rows hoisted to toplevel: building a [| ... |] literal (or a
   [row] partial application) inside the function would allocate on
   every access, and op_latency is the simulator's innermost hot
   call. *)
let o_load_modified = [| 81; 161; 172; 252 |]
let o_load_owned = [| 83; 163; 175; 254 |]
let o_load_exclusive = [| 83; 163; 175; 253 |]
let o_load_shared = [| 83; 164; 176; 254 |]
let o_fill = [| 136; 237; 247; 327 |]
let o_store_me = [| 83; 172; 191; 273 |]
let o_store_owned = [| 244; 255; 286; 291 |]
let o_store_shared = [| 246; 255; 286; 296 |]
let o_atomic_me = [| 110; 197; 216; 296 |]
let o_atomic_shared = [| 272; 283; 312; 332 |]

(* The two multi-row cases of [opteron_latency], at toplevel: as local
   functions they would be closures allocated on every call. *)
let opteron_load_cached class_of_source (st : Arch.cstate) =
  match st with
  | Arch.Modified -> opteron_row4 class_of_source o_load_modified
  | Arch.Owned -> opteron_row4 class_of_source o_load_owned
  | Arch.Exclusive -> opteron_row4 class_of_source o_load_exclusive
  | Arch.Shared | Arch.Forward -> opteron_row4 class_of_source o_load_shared
  | Arch.Invalid -> opteron_row4 class_of_source o_fill

(* Invalidation broadcast; grows slightly with the sharer count
   (storing on a line shared by all 48 cores costs 296). *)
let opteron_broadcast_store t ~requester (v : line_view) class_of_source =
  let base =
    opteron_row4
      (invalidation_class t ~requester v class_of_source)
      (match v.state with Arch.Owned -> o_store_owned | _ -> o_store_shared)
  in
  base + (n_holders v / 12 * 10)

let opteron_latency (t : Topology.t) (op : Arch.memop) ~requester
    (v : line_view) =
  let dir_pen = opteron_directory_penalty t ~requester v in
  let class_of_source = source_class t ~requester v in
  match op with
  | Arch.Load ->
      if holds v requester then 3 (* L1 hit *)
      else opteron_load_cached class_of_source v.state + dir_pen
  | Arch.Store -> (
      match v.state with
      | Arch.Modified | Arch.Exclusive ->
          if v.owner = requester then 3
          else opteron_row4 class_of_source o_store_me + dir_pen
      | Arch.Owned | Arch.Shared | Arch.Forward ->
          opteron_broadcast_store t ~requester v class_of_source + dir_pen
      | Arch.Invalid -> opteron_row4 class_of_source o_fill + 10 + dir_pen)
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> (
      match v.state with
      | Arch.Modified | Arch.Exclusive ->
          if v.owner = requester then 20
          else opteron_row4 class_of_source o_atomic_me + dir_pen
      | Arch.Owned | Arch.Shared | Arch.Forward ->
          opteron_row4
            (invalidation_class t ~requester v class_of_source)
            o_atomic_shared
          + (n_holders v / 12 * 10)
          + dir_pen
      | Arch.Invalid -> opteron_row4 class_of_source o_fill + 30 + dir_pen)

(* -------------------------------------------------------------- *)
(* Xeon: MESIF, inclusive LLC.  Within a socket the LLC tracks sharers
   and serves Shared loads directly (44 cycles); across sockets snoop
   requests are broadcast.  Operations touching only cores of one socket
   complete locally (section 5.2). *)

let xeon_row3 (d : Arch.distance) (v : int array) =
  match d with
  | Same_die | Same_core | Same_mcm -> v.(0)
  | One_hop -> v.(1)
  | Two_hops | Max_hops -> v.(2)

let x_load_modified = [| 109; 289; 400 |]

(* Same-die fetch of a Modified line whose data already drained to the
   inclusive LLC through the owner's store buffer: served as an LLC hit
   plus the back-invalidate of the owner's L1/L2 copy, not the full
   directory-mediated owner round trip.  (The Table 2 calibration path
   dirties lines with ordinary fenced stores, which never set
   [llc_dirty], so the 109-cycle cell above is untouched.) *)
let x_load_modified_llc_hit = 83
let x_load_exclusive = [| 92; 273; 383 |]
let x_load_shared = [| 44; 223; 334 |]
let x_fill = [| 355; 492; 601 |]
let x_store_modified = [| 115; 320; 431 |]
let x_store_exclusive = [| 115; 315; 425 |]
let x_store_shared = [| 116; 318; 428 |]
let x_atomic_me = [| 120; 324; 430 |]
let x_atomic_shared = [| 113; 312; 423 |]

let xeon_latency (t : Topology.t) (op : Arch.memop) ~requester
    (v : line_view) =
  let class_of_source = source_class t ~requester v in
  let invalidation_growth =
    (* storing on a line shared by all 80 cores costs 445 *)
    Coreset.cardinal v.sharers / 5
  in
  match op with
  | Arch.Load -> (
      if holds v requester then 5 (* L1 hit *)
      else
        match v.state with
        | Arch.Modified ->
            if v.llc_dirty && rank_of_class class_of_source <= 1 then
              x_load_modified_llc_hit
            else xeon_row3 class_of_source x_load_modified
        | Arch.Exclusive -> xeon_row3 class_of_source x_load_exclusive
        | Arch.Shared | Arch.Forward | Arch.Owned -> xeon_row3 class_of_source x_load_shared
        | Arch.Invalid -> xeon_row3 class_of_source x_fill)
  | Arch.Store -> (
      match v.state with
      | Arch.Modified ->
          if v.owner = requester then 5 else xeon_row3 class_of_source x_store_modified
      | Arch.Exclusive ->
          if v.owner = requester then 5 else xeon_row3 class_of_source x_store_exclusive
      | Arch.Shared | Arch.Forward | Arch.Owned ->
          xeon_row3 (invalidation_class t ~requester v class_of_source) x_store_shared + invalidation_growth
      | Arch.Invalid -> xeon_row3 class_of_source x_fill + 10)
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> (
      match v.state with
      | Arch.Modified | Arch.Exclusive ->
          if v.owner = requester then 20 else xeon_row3 class_of_source x_atomic_me
      | Arch.Shared | Arch.Forward | Arch.Owned ->
          xeon_row3 (invalidation_class t ~requester v class_of_source) x_atomic_shared + invalidation_growth
      | Arch.Invalid -> xeon_row3 class_of_source x_fill + 25)

(* -------------------------------------------------------------- *)
(* Niagara: uniform crossbar to a shared, duplicate-tag LLC.  Loads hit
   the shared L1 (3) when the previous holder is a context of the same
   physical core, the LLC (24) otherwise; stores are write-through and
   always cost the LLC; latencies do not depend on the sharer count.
   SPARC has no FAI/SWAP instruction: both are CAS-based and slower,
   while the hardware TAS is notably fast (section 5.4). *)

let niagara_pair (d : Arch.distance) (a, b) =
  match d with Same_core -> a | _ -> b

(* Atomic-operation rows hoisted like the x86 arrays above. *)
let nia_load = (3, 24)
let nia_cas = ((71, 66), (76, 66))
let nia_fai = ((108, 99), (99, 99))
let nia_tas = ((64, 55), (67, 55))
let nia_swap = ((95, 90), (93, 90))

(* Distance class to the data source; an uncached line counts as
   same-die (the LLC is one crossbar hop from every core). *)
let niagara_class t ~requester (v : line_view) : Arch.distance =
  let c = source_core t ~requester v in
  if c >= 0 then class_to_core t ~requester c else Same_die

let niagara_latency (t : Topology.t) (op : Arch.memop) ~requester
    (v : line_view) =
  match op with
  | Arch.Load ->
      if holds v requester then 3
      else if uncached v || v.state = Arch.Invalid then 176
      else
        niagara_pair (niagara_class t ~requester v) nia_load
  | Arch.Store -> 24
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> (
      let m_row, s_row =
        match op with
        | Arch.Cas -> nia_cas
        | Arch.Fai -> nia_fai
        | Arch.Tas -> nia_tas
        | Arch.Swap -> nia_swap
        | Arch.Load | Arch.Store -> assert false
      in
      match v.state with
      | Arch.Invalid -> 176 + 20
      | Arch.Modified | Arch.Exclusive | Arch.Owned ->
          niagara_pair (niagara_class t ~requester v) m_row
      | Arch.Shared | Arch.Forward ->
          niagara_pair (niagara_class t ~requester v) s_row)

(* -------------------------------------------------------------- *)
(* Tilera: distributed directory; each line has a home tile whose L2
   slice acts as the LLC for that line.  Latency grows with the mesh
   distance between the requester and the home tile (about 2 cycles per
   hop); stores on shared lines additionally pay per-sharer
   invalidations (up to ~200 cycles when all 36 tiles share).  FAI is
   executed at the home tile and is the fastest atomic (section 5.4). *)

let tilera_home_hops (t : Topology.t) ~requester (v : line_view) =
  t.node_hops (t.node_of_core requester) v.home

let tilera_scale ~at1 ~at10 h =
  (* Linear interpolation anchored at the paper's one-hop and max-hop
     (10 mesh hops) measurements. *)
  let slope = float_of_int (at10 - at1) /. 9. in
  int_of_float (Float.round (float_of_int at1 +. (slope *. float_of_int (h - 1))))

let til_cas = ((77, 98), (124, 142))
let til_fai = ((51, 71), (82, 102))
let til_tas = ((70, 89), (121, 141))
let til_swap = ((63, 84), (95, 115))

let tilera_latency (t : Topology.t) (op : Arch.memop) ~requester
    (v : line_view) =
  let h = tilera_home_hops t ~requester v in
  let inval_growth = 3 * max 0 (Coreset.cardinal v.sharers - 1) in
  match op with
  | Arch.Load ->
      if holds v requester then 2 (* local L1 *)
      else if uncached v || v.state = Arch.Invalid then
        if h = 0 then 108 else tilera_scale ~at1:118 ~at10:162 h
      else if h = 0 then 11 (* own L2 slice is the home *)
      else tilera_scale ~at1:45 ~at10:65 h
  | Arch.Store -> (
      match v.state with
      | Arch.Modified | Arch.Exclusive ->
          if v.owner = requester then 11
          else if h = 0 then 20
          else tilera_scale ~at1:57 ~at10:77 h
      | Arch.Shared | Arch.Forward | Arch.Owned ->
          (if h = 0 then 49 else tilera_scale ~at1:86 ~at10:106 h)
          + inval_growth
      | Arch.Invalid ->
          (if h = 0 then 108 else tilera_scale ~at1:118 ~at10:162 h) + 10)
  | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> (
      let (m1, m10), (s1, s10) =
        match op with
        | Arch.Cas -> til_cas
        | Arch.Fai -> til_fai
        | Arch.Tas -> til_tas
        | Arch.Swap -> til_swap
        | Arch.Load | Arch.Store -> assert false
      in
      match v.state with
      | Arch.Invalid ->
          (if h = 0 then 108 else tilera_scale ~at1:118 ~at10:162 h) + 20
      | Arch.Modified | Arch.Exclusive ->
          if h = 0 then (m1 * 2 / 3) else tilera_scale ~at1:m1 ~at10:m10 h
      | Arch.Shared | Arch.Forward | Arch.Owned ->
          (if h = 0 then (s1 * 2 / 3) else tilera_scale ~at1:s1 ~at10:s10 h)
          + inval_growth)

(* -------------------------------------------------------------- *)
(* Small-scale multi-sockets (section 8): intra-socket behaviour equals
   the large machine's; cross-socket latency is the intra-socket one
   scaled by the measured ratio (1.6x Opteron2, 2.7x Xeon2). *)

let scaled_small big_latency (t : Topology.t) ratio op ~requester
    (v : line_view) =
  (* Remap the view onto two same-socket cores (0 and 1) of the large
     sibling platform, preserving whether the requester holds a copy;
     this yields the intra-socket cost, which the measured cross/intra
     ratio then scales when the transaction crosses the socket link. *)
  let remap c = if c = requester then 0 else 1 in
  let fake_owner = if v.owner >= 0 then remap v.owner else -1 in
  let fake_sharers = Coreset.create () in
  Coreset.iter
    (fun s ->
      let m = remap s in
      if m <> fake_owner then Coreset.add fake_sharers m)
    v.sharers;
  let fake : line_view =
    { state = v.state; owner = fake_owner; sharers = fake_sharers; home = 0;
      llc_dirty = v.llc_dirty }
  in
  let intra = big_latency op ~requester:0 fake in
  let rnode = t.node_of_core requester in
  let cross =
    let c = source_core t ~requester v in
    if c >= 0 then t.node_hops rnode (t.node_of_core c) > 0
    else t.node_hops rnode v.home > 0
  in
  let local_hit = holds v requester && op = Arch.Load in
  if cross && not local_hit then
    int_of_float (Float.round (float_of_int intra *. ratio))
  else intra

let opteron2_latency (t : Topology.t) op ~requester v =
  let big = opteron_latency (Topology.of_platform Arch.Opteron) in
  scaled_small big t 1.6 op ~requester v

let xeon2_latency (t : Topology.t) op ~requester v =
  let big = xeon_latency (Topology.of_platform Arch.Xeon) in
  scaled_small big t 2.7 op ~requester v

(* -------------------------------------------------------------- *)

let line_latency (t : Topology.t) (op : Arch.memop) ~requester
    (v : line_view) : int =
  Topology.check t requester;
  (* Local-service fast paths.  Each constant mirrors the corresponding
     early case of the model functions above (and, for the small
     two-socket platforms, of [scaled_small], whose cross-socket ratio
     never applies when the requester itself is the data source): the
     general dispatch below would return exactly the same number, but
     only after its directory-penalty and source-class lookups — which
     dominate the simulator's hot path, where most accesses are cache
     hits. *)
  match op with
  | Arch.Load when holds v requester -> (
      match t.id with
      | Arch.Opteron | Arch.Opteron2 | Arch.Niagara -> 3
      | Arch.Xeon | Arch.Xeon2 -> 5
      | Arch.Tilera -> 2)
  | Arch.Store
    when v.owner = requester
         && (v.state = Arch.Modified || v.state = Arch.Exclusive) -> (
      match t.id with
      | Arch.Opteron | Arch.Opteron2 -> 3
      | Arch.Xeon | Arch.Xeon2 -> 5
      | Arch.Niagara -> 24
      | Arch.Tilera -> 11)
  | (Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap)
    when v.owner = requester
         && (v.state = Arch.Modified || v.state = Arch.Exclusive)
         && (match t.id with
            | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 -> true
            | Arch.Niagara | Arch.Tilera -> false) ->
      20
  | _ -> (
      match t.id with
      | Arch.Opteron -> opteron_latency t op ~requester v
      | Arch.Xeon -> xeon_latency t op ~requester v
      | Arch.Niagara -> niagara_latency t op ~requester v
      | Arch.Tilera -> tilera_latency t op ~requester v
      | Arch.Opteron2 -> opteron2_latency t op ~requester v
      | Arch.Xeon2 -> xeon2_latency t op ~requester v)

(* How long the line (or its directory entry / home-tile slot) stays
   busy serving this operation.  A transfer has two phases: a
   serialized phase (home/directory lookup plus the ownership change,
   which must finish before the next request is accepted) and a
   data-return phase that pipelines with the next requester's own
   invalidate or fetch.  Only the serialized phase reserves the line;
   [op_latency] (what the requesting thread experiences, and what the
   Table 2/3 calibration checks read) is untouched.  Per class:
   - x86 loads that probe a dirty remote copy keep most of the
     transaction serialized — the directory forwards one owner probe
     at a time — which is the reload-storm starvation behind Figure 3's
     non-optimized ticket lock;
   - x86 stores hold the line only for the ownership change; the
     invalidation acks collect while the next reader's fetch is
     already in flight (charging the full store latency here is what
     used to double-count one-way message transfers, EXPERIMENTS.md
     gap 3);
   - atomics are locked read-modify-writes: the line is genuinely held
     for the whole transaction, which caps single-line atomic
     throughput at ~1/latency exactly as in Figure 4.
   The uniform banked LLCs of the single-sockets have small service
   times. *)
let occupancy (t : Topology.t) (op : Arch.memop) ~(state : Arch.cstate)
    ~latency : int =
  match (t.id, op) with
  | ((Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2), Arch.Load) -> (
      match state with
      | Arch.Modified | Arch.Owned | Arch.Exclusive ->
          (* serialized owner probe; only the tail of the data return
             overlaps with the next request *)
          max 1 (latency * 4 / 5)
      | Arch.Shared | Arch.Forward | Arch.Invalid ->
          (* served by LLC/memory; readers overlap *)
          min latency 30)
  | ((Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2), Arch.Store) ->
      (* ownership change only; the invalidation broadcast overlaps *)
      min latency (max 20 (latency * 3 / 10))
  | ((Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2), _) -> latency
  | (Arch.Niagara, Arch.Load) -> min latency 8
  | (Arch.Niagara, Arch.Store) -> 12
  | (Arch.Niagara, _) -> min latency 60
  | (Arch.Tilera, Arch.Load) -> min latency 12
  | (Arch.Tilera, _) -> min latency 90

(* ------------------------------------------------------------------ *)
(* Finite-bandwidth interconnect & directory resources.

   Line occupancy above serializes requests *to one line*; these
   resources serialize the shared hardware a message crosses on the
   way: the home node's directory / memory controller (the Opteron's
   probe filter, a Xeon LLC slice + home agent, a Tilera home tile's
   L2 slice controller) and each interconnect link on the route from
   the requester to the data source (HyperTransport hops, QPI hops,
   mesh links).  A transfer holds every resource on its path for a
   platform-specific service time; a later message whose path shares a
   resource starts only once it is free.  This is pure queueing: an
   isolated access still costs exactly [op_latency], so the Table 2/3
   calibration is unchanged — what changes is pipelined traffic
   (message passing, lock handoffs, false sharing across lines with a
   common home), which now pays for bandwidth the old model treated as
   infinite.

   The Niagara has no modeled resources: its crossbar is uniform and
   its LLC is banked by address, so the per-line occupancy already is
   the shared-resource bottleneck (and with a single memory node, a
   home-directory resource would serialize the whole machine in a way
   the real part does not).

   Resource ids are dense ints so the memory model can keep busy-until
   times in flat arrays: [0, n_nodes) are home directories, the rest
   unordered node-pair links. *)

let n_resources (t : Topology.t) = t.n_nodes + (t.n_nodes * t.n_nodes)

let link_resource (t : Topology.t) a b =
  let lo = min a b and hi = max a b in
  t.n_nodes + (lo * t.n_nodes) + hi

(* A path is at most: home directory + 10 mesh links (opposite Tilera
   corners). *)
let max_path_len = 12

let has_resources (t : Topology.t) =
  match t.id with Arch.Niagara -> false | _ -> true

(* Fill [path] with the resources crossed by [requester]'s non-local
   access on a line described by [v]: the home directory plus each
   link on a deterministic route from the requester's node to the data
   source's node (the home node when the line is uncached).  Returns
   the number of entries written.  Fully node-local transfers (home
   and data source both on the requester's node) cross no finite
   resource: on-die bandwidth to the local controller is an order of
   magnitude above the cross-node fabric's, so only traffic that
   leaves the node queues.  Routes are deterministic so the same
   access always queues on the same hardware: one direct link per hop
   on the multi-sockets (2-hop pairs route through the lowest
   intermediate node minimizing the detour), dimension-ordered
   X-then-Y on the Tilera mesh. *)
let line_fill_path (t : Topology.t) ~requester (v : line_view)
    (path : int array) : int =
  match t.id with
  | Arch.Niagara -> 0
  | Arch.Tilera ->
      let rnode = t.node_of_core requester in
      let dst = v.home in
      if rnode = dst then 0
      else begin
      path.(0) <- dst;
      let n = ref 1 in
      let dim = Topology.tilera_dim in
      let x = ref (rnode mod dim) and y = ref (rnode / dim) in
      let dx = dst mod dim and dy = dst / dim in
      let cur = ref rnode in
      while !x <> dx do
        let nx = if dx > !x then !x + 1 else !x - 1 in
        let nxt = (!y * dim) + nx in
        path.(!n) <- link_resource t !cur nxt;
        incr n;
        cur := nxt;
        x := nx
      done;
      while !y <> dy do
        let ny = if dy > !y then !y + 1 else !y - 1 in
        let nxt = (ny * dim) + !x in
        path.(!n) <- link_resource t !cur nxt;
        incr n;
        cur := nxt;
        y := ny
      done;
      !n
      end
  | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 ->
      let rnode = t.node_of_core requester in
      let snode =
        let c = source_core t ~requester v in
        if c >= 0 then t.node_of_core c else v.home
      in
      if rnode = snode && rnode = v.home then 0
      else begin
      path.(0) <- v.home;
      let n = ref 1 in
      let h = t.node_hops rnode snode in
      if h = 1 then begin
        path.(1) <- link_resource t rnode snode;
        n := 2
      end
      else if h >= 2 then begin
        let best = ref rnode and best_cost = ref max_int in
        for m = 0 to t.n_nodes - 1 do
          if m <> rnode && m <> snode then begin
            let c = t.node_hops rnode m + t.node_hops m snode in
            if c < !best_cost then begin
              best_cost := c;
              best := m
            end
          end
        done;
        path.(1) <- link_resource t rnode !best;
        path.(2) <- link_resource t !best snode;
        n := 3
      end;
      !n
      end

(* How long one message holds a home directory: a lookup/update slot in
   the probe filter (Opteron), LLC slice home agent (Xeon) or home
   tile's slice controller (Tilera). *)
let dir_hold (t : Topology.t) (_op : Arch.memop) : int =
  match t.id with
  | Arch.Niagara -> 0
  | Arch.Opteron | Arch.Opteron2 | Arch.Xeon | Arch.Xeon2 | Arch.Tilera -> 1

(* How long one message holds each link it crosses.  Exclusive
   transfers (stores, atomics) carry the full line payload plus the
   invalidation/ack traffic, so they occupy the path for a large
   fraction of their service latency; read transfers pipeline their
   data return harder.  The floor is the link's per-message
   serialization cost (header + payload flits). *)
let link_hold (t : Topology.t) (op : Arch.memop) ~latency:_ : int =
  match t.id with
  | Arch.Niagara -> 0
  | Arch.Opteron | Arch.Opteron2 -> (
      match op with
      | Arch.Load -> 16
      | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> 24)
  | Arch.Xeon | Arch.Xeon2 -> (
      match op with
      | Arch.Load -> 12
      | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> 18)
  | Arch.Tilera -> (
      (* the DDC hashes homes across tiles on the real machine; with
         every allocation homed on one tile here, full-size mesh holds
         would overcharge the two links into that tile *)
      match op with
      | Arch.Load -> 2
      | Arch.Store | Arch.Cas | Arch.Fai | Arch.Tas | Arch.Swap -> 3)

let resource_hold (t : Topology.t) (op : Arch.memop) ~latency r : int =
  if r < t.n_nodes then dir_hold t op else link_hold t op ~latency

(* Smallest positive hold any message can impose on a shared resource —
   the floor a PDES lookahead window must respect now that one shard's
   traffic can delay another's through a shared link or directory.
   [None] on platforms with no modeled resources. *)
let min_resource_hold (t : Topology.t) : int option =
  if not (has_resources t) then None
  else
    let m = ref max_int in
    List.iter
      (fun (op : Arch.memop) ->
        let d = dir_hold t op and l = link_hold t op ~latency:1 in
        if d > 0 && d < !m then m := d;
        if l > 0 && l < !m then m := l)
      [ Arch.Load; Arch.Store; Arch.Cas ];
    if !m = max_int then None else Some !m

(* ------------------------------------------------------------------ *)
(* Hand-built line descriptions.  Tests, calibration tables and probes
   describe a line with an optional owner; [op_latency] and [fill_path]
   convert the description (one small record per call) and defer to the
   unboxed [line_latency] / [line_fill_path] the memory model calls. *)

type view = {
  state : Arch.cstate;
  owner : int option;
  sharers : Coreset.t;
  home : int;
  llc_dirty : bool;
}

let line_view_of (v : view) : line_view =
  {
    state = v.state;
    owner = (match v.owner with Some o -> o | None -> -1);
    sharers = v.sharers;
    home = v.home;
    llc_dirty = v.llc_dirty;
  }

let op_latency t op ~requester v =
  line_latency t op ~requester (line_view_of v)

let fill_path t ~requester v path =
  line_fill_path t ~requester (line_view_of v) path
