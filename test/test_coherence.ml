(* Tests of the coherence memory model: protocol transitions, data
   semantics, contention serialization, and qcheck invariants. *)

open Ssync_platform
open Ssync_coherence

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mem_on pid = Memory.create (Platform.get pid)

let state_name m a = Arch.cstate_name (Memory.line m a).Memory.state

(* ------------------------- transitions --------------------------- *)

let test_load_fills_exclusive () =
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  Alcotest.(check string) "starts invalid" "Invalid" (state_name m a);
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Load a);
  Alcotest.(check string) "exclusive after first load" "Exclusive"
    (state_name m a)

let test_moesi_owned_on_opteron () =
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m in
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Store a ~operand:7);
  Alcotest.(check string) "modified after store" "Modified" (state_name m a);
  ignore (Mem_access.access m ~core:6 ~now:0 Arch.Load a);
  (* MOESI: the dirty copy stays with core 0 in Owned state *)
  Alcotest.(check string) "owned after remote load" "Owned" (state_name m a);
  check_bool "owner kept" true ((Memory.line m a).Memory.owner = 0);
  check_bool "reader became sharer" true
    (Coreset.mem (Memory.line m a).Memory.sharers 6)

let test_mesi_shared_on_xeon () =
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Store a ~operand:7);
  ignore (Mem_access.access m ~core:1 ~now:0 Arch.Load a);
  Alcotest.(check string) "shared after remote load" "Shared" (state_name m a);
  check_bool "no owner" true ((Memory.line m a).Memory.owner = -1);
  check_int "two sharers" 2 (Coreset.cardinal (Memory.line m a).Memory.sharers)

let test_store_invalidates_sharers () =
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Load a);
  ignore (Mem_access.access m ~core:1 ~now:0 Arch.Load a);
  ignore (Mem_access.access m ~core:2 ~now:0 Arch.Load a);
  ignore (Mem_access.access m ~core:3 ~now:0 Arch.Store a ~operand:9);
  let l = Memory.line m a in
  Alcotest.(check string) "modified" "Modified" (state_name m a);
  check_bool "owner is 3" true (l.Memory.owner = 3);
  check_int "no sharers" 0 (Coreset.cardinal l.Memory.sharers);
  check_int "value stored" 9 (Memory.peek m a)

(* ------------------------- data semantics ------------------------ *)

let test_cas_semantics () =
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m ~value:5 in
  let _, ok = Mem_access.access m ~core:0 ~now:0 Arch.Cas a ~operand:4 ~operand2:9 in
  check_int "cas fails on mismatch" 0 ok;
  check_int "value unchanged" 5 (Memory.peek m a);
  let _, ok = Mem_access.access m ~core:0 ~now:0 Arch.Cas a ~operand:5 ~operand2:9 in
  check_int "cas succeeds" 1 ok;
  check_int "value swapped" 9 (Memory.peek m a)

let test_fai_tas_swap_semantics () =
  let m = mem_on Arch.Niagara in
  let a = Memory.alloc m ~value:41 in
  let _, old = Mem_access.access m ~core:0 ~now:0 Arch.Fai a ~operand:1 in
  check_int "fai returns old" 41 old;
  check_int "fai increments" 42 (Memory.peek m a);
  let b = Memory.alloc m in
  let _, old = Mem_access.access m ~core:0 ~now:0 Arch.Tas b in
  check_int "tas wins on 0" 0 old;
  let _, old = Mem_access.access m ~core:1 ~now:0 Arch.Tas b in
  check_int "tas loses on 1" 1 old;
  let _, old = Mem_access.access m ~core:1 ~now:0 Arch.Swap b ~operand:7 in
  check_int "swap returns old" 1 old;
  check_int "swap stores" 7 (Memory.peek m b)

(* ------------------------- latencies ----------------------------- *)

let test_local_spin_is_cheap () =
  (* A core that loaded a line spins on it at L1 cost. *)
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m in
  ignore (Mem_access.access m ~core:0 ~now:0 Arch.Store a ~operand:1);
  ignore (Mem_access.access m ~core:1 ~now:0 Arch.Load a);
  let lat, _ = Mem_access.access m ~core:1 ~now:1000 Arch.Load a in
  check_bool "second load is a hit" true (lat <= 5)

let test_contention_serializes () =
  (* Two stores issued at the same instant: the second queues behind the
     first's occupancy. *)
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  ignore (Mem_access.access m ~core:5 ~now:0 Arch.Store a ~operand:1);
  Memory.reset_busy m a;
  let l1, _ = Mem_access.access m ~core:1 ~now:1000 Arch.Store a ~operand:2 in
  let l2, _ = Mem_access.access m ~core:2 ~now:1000 Arch.Store a ~operand:3 in
  check_bool "second waits" true (l2 > l1)

let test_cross_socket_more_expensive () =
  List.iter
    (fun pid ->
      let m = mem_on pid in
      let p = Platform.get pid in
      let a = Memory.alloc m ~home_core:0 in
      ignore (Mem_access.access m ~core:1 ~now:0 Arch.Store a ~operand:1);
      Memory.reset_busy m a;
      let near, _ = Mem_access.access m ~core:0 ~now:1000 Arch.Load a in
      (* rebuild modified-at-1 and measure a far reader *)
      ignore (Mem_access.access m ~core:1 ~now:2000 Arch.Store a ~operand:2);
      Memory.reset_busy m a;
      let far_core = Platform.n_cores p - 1 in
      let far, _ = Mem_access.access m ~core:far_core ~now:9000 Arch.Load a in
      check_bool
        (Printf.sprintf "%s: far load (%d) > near load (%d)"
           (Arch.platform_name pid) far near)
        true (far > near))
    [ Arch.Opteron; Arch.Xeon; Arch.Tilera ]

let test_force_state () =
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m in
  List.iter
    (fun st ->
      Memory.force_state m ~holder:3 st a;
      Alcotest.(check string)
        (Printf.sprintf "forced %s" (Arch.cstate_name st))
        (Arch.cstate_name st) (state_name m a))
    [ Arch.Invalid; Arch.Exclusive; Arch.Modified; Arch.Shared; Arch.Owned ]

(* ------------------------- qcheck invariants --------------------- *)

(* Single-writer/multiple-reader and state consistency after arbitrary
   operation sequences, and value agreement with a sequential model. *)
let qcheck_protocol_invariants =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.paper_platform_ids in
      let n = (Topology.of_platform pid).Topology.n_cores in
      let* ops =
        list_size (int_range 1 60)
          (triple (int_range 0 (n - 1)) (int_range 0 5) (int_range 0 3))
      in
      return (pid, ops))
  in
  QCheck.Test.make ~count:300 ~name:"protocol invariants + sequential values"
    (QCheck.make gen) (fun (pid, ops) ->
      let m = mem_on pid in
      let addrs = Array.init 4 (fun _ -> Memory.alloc m) in
      let model = Array.make 4 0 in
      let now = ref 0 in
      List.for_all
        (fun (core, opcode, ai) ->
          let a = addrs.(ai) in
          now := !now + 17;
          let ok_value =
            match opcode with
            | 0 ->
                let _, v = Mem_access.access m ~core ~now:!now Arch.Load a in
                v = model.(ai)
            | 1 ->
                let nv = (core * 7) + !now in
                ignore (Mem_access.access m ~core ~now:!now Arch.Store a ~operand:nv);
                model.(ai) <- nv;
                true
            | 2 ->
                let _, old = Mem_access.access m ~core ~now:!now Arch.Fai a ~operand:1 in
                let ok = old = model.(ai) in
                model.(ai) <- model.(ai) + 1;
                ok
            | 3 ->
                let expected = model.(ai) in
                let _, r =
                  Mem_access.access m ~core ~now:!now Arch.Cas a ~operand:expected
                    ~operand2:(expected + 100)
                in
                model.(ai) <- expected + 100;
                r = 1
            | 4 ->
                let _, old = Mem_access.access m ~core ~now:!now Arch.Tas a in
                let ok = old = model.(ai) in
                model.(ai) <- 1;
                ok
            | _ ->
                let _, old = Mem_access.access m ~core ~now:!now Arch.Swap a ~operand:3 in
                let ok = old = model.(ai) in
                model.(ai) <- 3;
                ok
          in
          let l = Memory.line m a in
          let swmr =
            match l.Memory.state with
            | Arch.Modified | Arch.Exclusive ->
                l.Memory.owner >= 0 && Coreset.is_empty l.Memory.sharers
            | Arch.Owned -> l.Memory.owner >= 0
            | Arch.Shared | Arch.Forward ->
                l.Memory.owner < 0 && not (Coreset.is_empty l.Memory.sharers)
            | Arch.Invalid -> l.Memory.owner < 0 && Coreset.is_empty l.Memory.sharers
          in
          let owner_not_sharer =
            l.Memory.owner < 0
            || not (Coreset.mem l.Memory.sharers l.Memory.owner)
          in
          ok_value && swmr && owner_not_sharer)
        ops)

let qcheck_latency_monotone_queueing =
  QCheck.Test.make ~count:200 ~name:"queued accesses never get faster"
    QCheck.(make Gen.(pair (int_range 0 47) (int_range 0 47)))
    (fun (c1, c2) ->
      let m = mem_on Arch.Opteron in
      let a = Memory.alloc m in
      ignore (Mem_access.access m ~core:0 ~now:0 Arch.Store a ~operand:1);
      Memory.reset_busy m a;
      let l1, _ = Mem_access.access m ~core:c1 ~now:100 Arch.Fai a ~operand:1 in
      let l2, _ = Mem_access.access m ~core:c2 ~now:100 Arch.Fai a ~operand:1 in
      (* the second atomic can never be cheaper than its own service *)
      l1 > 0 && l2 > 0)

let suite =
  [
    Alcotest.test_case "first load fills Exclusive" `Quick
      test_load_fills_exclusive;
    Alcotest.test_case "MOESI keeps Owned on Opteron" `Quick
      test_moesi_owned_on_opteron;
    Alcotest.test_case "MESI downgrades to Shared on Xeon" `Quick
      test_mesi_shared_on_xeon;
    Alcotest.test_case "store invalidates sharers" `Quick
      test_store_invalidates_sharers;
    Alcotest.test_case "CAS semantics" `Quick test_cas_semantics;
    Alcotest.test_case "FAI/TAS/SWAP semantics" `Quick
      test_fai_tas_swap_semantics;
    Alcotest.test_case "local spin is cheap" `Quick test_local_spin_is_cheap;
    Alcotest.test_case "contention serializes" `Quick
      test_contention_serializes;
    Alcotest.test_case "cross-socket dearer than intra" `Quick
      test_cross_socket_more_expensive;
    Alcotest.test_case "force_state reaches all states" `Quick
      test_force_state;
    QCheck_alcotest.to_alcotest qcheck_protocol_invariants;
    QCheck_alcotest.to_alcotest qcheck_latency_monotone_queueing;
  ]
