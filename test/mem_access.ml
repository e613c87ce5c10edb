(* The (latency, result) pair of one access — [Memory.access_lat] plus
   [Memory.last_result], for tests that check both. *)

open Ssync_coherence

let access ?operand ?operand2 ?fetch m ~core ~now op a =
  let latency = Memory.access_lat ?operand ?operand2 ?fetch m ~core ~now op a in
  (latency, Memory.last_result m)
