(* Unit-cost probes of single public calls, run in the traced pass:
   host ns and minor words per call of [Event_queue] push/pop at fixed
   live depths, [Memory.access_lat] over op x coherence state x distance
   class on each platform, [Cost_model.op_latency] and [fill_path], and
   a [Memory.create]/[dispose] round trip.  Weighted by the traced
   counts, they estimate how much of the run loop each layer accounts
   for; what they leave unexplained is reported as its own number. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine

type cost = { ns : float; words : float }

(* Median over [reps] of the per-call cost of [f ~n] (which makes [n]
   calls). *)
let measure ?(reps = 5) ~n f =
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Span.now () in
        f ~n;
        let t1 = Span.now () in
        let w1 = Gc.minor_words () in
        ((t1 -. t0) *. 1e9 /. float_of_int n, (w1 -. w0) /. float_of_int n))
  in
  { ns = Stat.median (List.map fst samples); words = Stat.median (List.map snd samples) }

(* ------------------------------------------------------------------ *)
(* Event queue: one push and one pop per call, at a steady live depth. *)

let eventq_depths = [ 16; 64; 256 ]

let eventq ~depth =
  let q = Event_queue.create () in
  let p = Event_queue.make_popped () in
  let seed = ref 12345 in
  let next () =
    seed := Ssync_ccbench.Lock_bench.lcg_next !seed;
    1 + (!seed land 1023)
  in
  for _ = 1 to depth do
    Event_queue.push q ~time:(next ()) ignore
  done;
  measure ~n:200_000 (fun ~n ->
      for _ = 1 to n do
        ignore (Event_queue.pop_into q p);
        Event_queue.push q ~time:(p.Event_queue.p_time + next ()) p.Event_queue.p_run
      done)

(* Cost at the live depth [d] of a job, interpolated in log2(depth)
   between the probed depths and clamped at the ends. *)
let eventq_at (costs : (int * cost) list) d =
  let lg x = Float.log2 (float_of_int (max 1 x)) in
  let rec go = function
    | (d0, c0) :: ((d1, c1) :: _ as rest) ->
        if d <= d0 then c0.ns
        else if d <= d1 then
          let f = (lg d -. lg d0) /. (lg d1 -. lg d0) in
          c0.ns +. (f *. (c1.ns -. c0.ns))
        else go rest
    | [ (_, c) ] -> c.ns
    | [] -> 0.
  in
  go costs

(* ------------------------------------------------------------------ *)
(* Memory accesses. *)

let ops = Arch.[ Load; Store; Cas; Fai; Tas; Swap ]
let distances = Arch.[ Same_core; Same_die; Same_mcm; One_hop; Two_hops; Max_hops ]

let states (p : Platform.t) =
  match p.Platform.id with
  | Arch.Opteron | Arch.Opteron2 -> Arch.[ Modified; Owned; Exclusive; Shared; Invalid ]
  | _ -> Arch.[ Modified; Exclusive; Shared; Invalid ]

let lines_per_probe = 512

type access_cell = {
  op : Arch.memop;
  state : Arch.cstate;
  distance : string;  (** distance class, or "local" for a hit *)
  cost : cost;
}

(* One grid cell: [lines_per_probe] lines driven into [state] with
   [holder] holding them, then one access each by [requester], issued
   far enough apart in virtual time that no access queues behind
   another. *)
let access_cell (p : Platform.t) ~requester ~holder ~second op state =
  let mem = Memory.create p in
  let addrs = Array.init lines_per_probe (fun _ -> Memory.alloc mem) in
  let clock = ref 1_000_000 in
  let samples =
    List.init 3 (fun _ ->
        Array.iter (fun a -> Memory.force_state mem ~holder ~second state a) addrs;
        let w0 = Gc.minor_words () in
        let t0 = Span.now () in
        Array.iter
          (fun a ->
            clock := !clock + 100_000;
            ignore (Memory.access_lat mem ~core:requester ~now:!clock op a))
          addrs;
        let t1 = Span.now () in
        let w1 = Gc.minor_words () in
        let n = float_of_int lines_per_probe in
        ((t1 -. t0) *. 1e9 /. n, (w1 -. w0) /. n))
  in
  Memory.dispose mem;
  { ns = Stat.median (List.map fst samples); words = Stat.median (List.map snd samples) }

(* Every (op, state, distance) cell of platform [p], plus the local-hit
   cells (the requester itself holds the line Modified). *)
let access_grid (p : Platform.t) : access_cell list =
  let topo = p.Platform.topo in
  let remote =
    List.concat_map
      (fun d ->
        match Topology.pair_at_distance topo d with
        | None -> []
        | Some (requester, holder) ->
            let second = if holder + 1 = requester then holder + 2 else holder + 1 in
            let second = second mod Platform.n_cores p in
            List.concat_map
              (fun state ->
                List.map
                  (fun op ->
                    {
                      op;
                      state;
                      distance = Arch.distance_name d;
                      cost = access_cell p ~requester ~holder ~second op state;
                    })
                  ops)
              (states p))
      distances
  in
  let local =
    List.map
      (fun op ->
        {
          op;
          state = Arch.Modified;
          distance = "local";
          cost = access_cell p ~requester:0 ~holder:0 ~second:1 op Arch.Modified;
        })
      Arch.[ Load; Store ]
  in
  local @ remote

let mean_cost cells =
  {
    ns = Stat.mean (List.map (fun c -> c.cost.ns) cells);
    words = Stat.mean (List.map (fun c -> c.cost.words) cells);
  }

(* ------------------------------------------------------------------ *)
(* Cost model routes, over the same op x state x distance grid. *)

type view_case = { requester : int; vop : Arch.memop; view : Cost_model.view }

let views (p : Platform.t) =
  let topo = p.Platform.topo in
  List.concat_map
    (fun d ->
      match Topology.pair_at_distance topo d with
      | None -> []
      | Some (requester, holder) ->
          List.concat_map
            (fun state ->
              List.map
                (fun vop ->
                  let sharers = Coreset.create () in
                  let owner =
                    match state with
                    | Arch.Shared | Arch.Forward ->
                        Coreset.add sharers holder;
                        None
                    | Arch.Invalid -> None
                    | _ -> Some holder
                  in
                  {
                    requester;
                    vop;
                    view =
                      {
                        Cost_model.state;
                        owner;
                        sharers;
                        home = topo.Topology.node_of_core holder;
                        llc_dirty = false;
                      };
                  })
                ops)
            (states p))
    distances

let cost_model_calls (p : Platform.t) =
  let topo = p.Platform.topo in
  let cases = Array.of_list (views p) in
  let k = Array.length cases in
  let path = Array.make Cost_model.max_path_len 0 in
  let op_latency =
    measure ~n:100_000 (fun ~n ->
        for i = 0 to n - 1 do
          let c = cases.(i mod k) in
          ignore (Cost_model.op_latency topo c.vop ~requester:c.requester c.view)
        done)
  in
  let fill_path =
    measure ~n:100_000 (fun ~n ->
        for i = 0 to n - 1 do
          let c = cases.(i mod k) in
          ignore (Cost_model.fill_path topo ~requester:c.requester c.view path)
        done)
  in
  (op_latency, fill_path)

(* ------------------------------------------------------------------ *)

let memory_create (p : Platform.t) =
  measure ~n:2_000 (fun ~n ->
      for _ = 1 to n do
        Memory.dispose (Memory.create p)
      done)

type platform_costs = {
  platform : Platform.t;
  grid : access_cell list;
  hit : cost;  (** mean of the local-hit cells *)
  miss : cost;  (** mean of the remote cells *)
  op_latency : cost;
  fill_path : cost;
  create : cost;  (** one [Memory.create] + [Memory.dispose] *)
}

type t = { eventq : (int * cost) list; platforms : platform_costs list }

let run () =
  let eventq = List.map (fun depth -> (depth, eventq ~depth)) eventq_depths in
  let platforms =
    List.map
      (fun pid ->
        let platform = Platform.get pid in
        let grid = access_grid platform in
        let hits, misses = List.partition (fun c -> c.distance = "local") grid in
        let op_latency, fill_path = cost_model_calls platform in
        {
          platform;
          grid;
          hit = mean_cost hits;
          miss = mean_cost misses;
          op_latency;
          fill_path;
          create = memory_create platform;
        })
      Arch.paper_platform_ids
  in
  { eventq; platforms }

let for_platform t pid =
  List.find (fun c -> c.platform.Platform.id = pid) t.platforms
