(* Allocation regression tests for the per-access path.

   A simulated memory operation crosses [Sim]'s effect handler,
   [Memory.access_lat_in] and the cost model.  The memory entry itself
   must allocate nothing — a boxed line owner or an optional argument
   on it would show up here as a non-zero minor-heap delta — and a
   simulated thread's loads may allocate only the continuation and the
   effect payload OCaml itself needs per perform. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine

let calls = 512

(* Minor words allocated by [f ()], net of the measurement's own
   cost (the same bracket around a no-op). *)
let words_of f =
  let bracket g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  bracket f -. bracket ignore

(* [calls] fresh lines, each driven into [st] at [holder]. *)
let lines_in m ~holder st =
  Array.init calls (fun _ ->
      let a = Memory.alloc m in
      Memory.force_state m ~holder st a;
      a)

(* [calls] accesses of [op] by [core], one per address, spaced far
   enough apart in virtual time that none queues behind another. *)
let run_accesses m ~core op ~operand ~operand2 addrs =
  let slot = Memory.slot m 0 in
  fun () ->
    for i = 0 to Array.length addrs - 1 do
      ignore
        (Memory.access_lat_in m ~slot ~core ~now:(1_000_000 * (i + 1)) op
           addrs.(i) ~operand ~operand2 ~fetch:false)
    done

let check_zero label w =
  Alcotest.(check (float 0.)) (label ^ ": minor words over 512 calls") 0. w

(* The requester and the holder on different nodes: the farthest core
   from core 0. *)
let remote_holder (p : Platform.t) = Platform.n_cores p - 1

let test_local_hit () =
  List.iter
    (fun (p : Platform.t) ->
      let m = Memory.create p in
      let a = Memory.alloc m in
      Memory.force_state m ~holder:0 Arch.Modified a;
      let addrs = Array.make calls a in
      List.iter
        (fun op ->
          check_zero
            (Printf.sprintf "%s %s hit" p.Platform.name (Arch.memop_name op))
            (words_of (run_accesses m ~core:0 op ~operand:0 ~operand2:0 addrs)))
        Arch.[ Load; Store ])
    Platform.all

let test_remote_load_miss () =
  List.iter
    (fun (p : Platform.t) ->
      let m = Memory.create p in
      let addrs = lines_in m ~holder:(remote_holder p) Arch.Modified in
      check_zero
        (p.Platform.name ^ " remote load miss")
        (words_of (run_accesses m ~core:0 Arch.Load ~operand:0 ~operand2:0 addrs)))
    Platform.all

let test_remote_modified_rmw () =
  List.iter
    (fun (p : Platform.t) ->
      List.iter
        (fun (op, operand, operand2) ->
          let m = Memory.create p in
          let addrs = lines_in m ~holder:(remote_holder p) Arch.Modified in
          check_zero
            (Printf.sprintf "%s %s on a remote Modified line" p.Platform.name
               (Arch.memop_name op))
            (words_of (run_accesses m ~core:0 op ~operand ~operand2 addrs)))
        Arch.[ (Cas, 0, 1); (Store, 1, 0) ])
    Platform.all

(* Words allocated per [Sim.load] by a simulated thread polling its own
   line: the effect payload (5 words) and OCaml's continuation (3) are
   all that is left — 8.0 measured on OCaml 5.1, against 32 with a
   per-perform handler closure and boxed optional arguments.  The bound
   leaves one word of slack for the queued resumption the engine takes
   once every thousand direct-run steps; any re-introduced [Some] (2
   words) trips it. *)
let load_words_bound = 9.

let test_sim_load_words () =
  let sim = Sim.create Platform.opteron in
  let a = Memory.alloc (Sim.memory sim) in
  let n = 10_000 in
  let words = ref nan in
  Sim.spawn sim ~core:0 (fun () ->
      ignore (Sim.load a);
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sim.load a)
      done;
      words := Gc.minor_words () -. w0);
  ignore (Sim.run sim);
  let per_op = !words /. float_of_int n in
  if not (per_op <= load_words_bound) then
    Alcotest.failf "Sim.load allocates %.2f words per op (bound %.0f)" per_op
      load_words_bound

(* [Coreset.next] walks exactly the members, in ascending order. *)
let qcheck_coreset_next =
  QCheck.Test.make ~count:300 ~name:"Coreset.next walks the members"
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 (Coreset.capacity - 1)))
    (fun cores ->
      let s = Coreset.of_list cores in
      let rec walk c acc =
        let n = Coreset.next s c in
        if n < 0 then List.rev acc else walk (n + 1) (n :: acc)
      in
      walk 0 [] = Coreset.elements s)

let suite =
  [
    Alcotest.test_case "memory entry: local hits allocate nothing" `Quick
      test_local_hit;
    Alcotest.test_case "memory entry: remote load misses allocate nothing"
      `Quick test_remote_load_miss;
    Alcotest.test_case
      "memory entry: CAS/store on a remote Modified line allocate nothing"
      `Quick test_remote_modified_rmw;
    Alcotest.test_case "Sim.load words per op within bound" `Quick
      test_sim_load_words;
    QCheck_alcotest.to_alcotest qcheck_coreset_next;
  ]
