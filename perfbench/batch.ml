(* One pass of a workload's batch through [Pool.run]: every job of the
   plan, submitted together from this process; the pass returns when
   the last job is done. *)

open Ssync_engine

type pass = {
  outcomes : Jobs.outcome array;  (** in plan order *)
  makespan : float;  (** host seconds from submission to the last result *)
  domains : int;
}

let run ?(spans = Span.disabled) ~domains ~seed (plan : Jobs.job array) =
  if spans.Span.on && domains > 1 then
    invalid_arg "Batch.run: spans are recorded on one domain only";
  (* span job ids continue across the passes a recorder sees *)
  let base = spans.Span.jobs in
  if spans.Span.on then spans.Span.jobs <- base + Array.length plan;
  let thunks =
    Array.mapi (fun i j () -> Jobs.run ~spans ~seed ~index:(base + i) j) plan
  in
  let t0 = Span.now () in
  let results = Pool.run ~jobs:domains thunks in
  let makespan = Span.now () -. t0 in
  { outcomes = Array.map fst results; makespan; domains }

let hosts p =
  Array.to_list p.outcomes
  |> List.filter_map (function Jobs.Done (_, h) -> Some h | Jobs.Raised _ -> None)

let digests p =
  Array.to_list p.outcomes
  |> List.filter_map (function Jobs.Done (d, _) -> Some d | Jobs.Raised _ -> None)
