(* Host-speed benchmark of the simulator.  Usually launched through
   perfbench/run.py, which builds this program and adds [setup_s]:

     main.exe --workload ssht|locks|preempt --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload's batch on one domain for S seconds
   and prints the end-to-end metrics; --trace 1 runs the unit-cost
   probes, alternates untraced and traced passes, adds a 2-domain pass,
   prints the per-layer metrics and writes spans, probe grid and host
   metadata to <out>/<workload>-seed<N>.trace.json.  Either way every
   job's virtual-time results are checked against the committed
   reference (Check), and the last stdout line is one JSON object.  The
   exit code is 1 when any job failed its check.

   --setup-only prints the wall-clock time at which the first job would
   start and exits; --write-reference regenerates the reference of the
   workload. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload ssht|locks|preempt --seed N --seconds S \
     --trace 0|1 [--reference DIR] [--out DIR] [--setup-only] \
     [--write-reference]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reference : string;
  out : string;
  setup_only : bool;
  write_reference : bool;
}

let parse argv =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.;
        trace = false;
        reference = "perfbench/reference";
        out = ".perfbench_out";
        setup_only = false;
        write_reference = false;
      }
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r -> a := { !a with workload = w }; go r
    | "--seed" :: s :: r -> a := { !a with seed = int_arg s }; go r
    | "--seconds" :: s :: r -> a := { !a with seconds = float_of_int (int_arg s) }; go r
    | "--trace" :: t :: r -> a := { !a with trace = int_arg t <> 0 }; go r
    | "--reference" :: d :: r -> a := { !a with reference = d }; go r
    | "--out" :: d :: r -> a := { !a with out = d }; go r
    | "--setup-only" :: r -> a := { !a with setup_only = true }; go r
    | "--write-reference" :: r -> a := { !a with write_reference = true }; go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  !a

(* Check every execution of every job; returns (attempted, failed). *)
let check_passes ~reference (plan : Jobs.job array) passes =
  let keys = Array.map Jobs.key plan in
  let first = Array.make (Array.length plan) None in
  List.fold_left
    (fun (attempted, failed) (p : Batch.pass) ->
      let failed = ref failed in
      Array.iteri
        (fun index o ->
          if
            not
              (Check.check ?reference ~index ~key:keys.(index)
                 ~first:first.(index) o)
          then begin
            incr failed;
            if !failed <= 10 then
              Printf.eprintf "job %d %s failed its check: %s\n" index keys.(index)
                (match o with
                | Jobs.Raised e -> "raised " ^ e
                | Jobs.Done (d, _) -> Check.canonical d)
          end;
          match (first.(index), o) with
          | None, Jobs.Done (d, _) -> first.(index) <- Some (Check.canonical d)
          | _ -> ())
        p.Batch.outcomes;
      (attempted + Array.length plan, !failed))
    (0, 0) passes

let raised passes =
  List.concat_map
    (fun (p : Batch.pass) ->
      Array.to_list p.Batch.outcomes
      |> List.filter_map (function Jobs.Raised e -> Some e | Jobs.Done _ -> None))
    passes

let write_reference a plan =
  let lines seed =
    let p = Batch.run ~domains:1 ~seed plan in
    Array.to_list
      (Array.mapi
         (fun i o ->
           match o with
           | Jobs.Done (d, _) -> (Jobs.key plan.(i), Check.canonical d)
           | Jobs.Raised e -> failwith (Jobs.key plan.(i) ^ " raised " ^ e))
         p.Batch.outcomes)
  in
  Check.write ~dir:a.reference ~workload:a.workload ~lines

(* Run [pass ()] until [seconds] have elapsed since [t0], at least
   [min] times. *)
let repeat ~t0 ~seconds ~min pass =
  let rec go acc n =
    if n >= min && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (pass () :: acc) (n + 1)
  in
  go [] 0

let write_trace a ~domains ~spans ~probes ~values =
  (try Unix.mkdir a.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    Filename.concat a.out (Printf.sprintf "%s-seed%d.trace.json" a.workload a.seed)
  in
  let base = match spans with [] -> 0. | s :: _ -> s.Span.t0 in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"workload\": %s, \"seed\": %d,\n\"host\": %s,\n"
        (Report.json_string a.workload) a.seed (Report.host_json ~domains);
      Printf.fprintf oc "\"metrics\": %s,\n" (Report.metrics_json values);
      Printf.fprintf oc "\"layer_map\": {%s},\n"
        (String.concat ", "
           (List.map
              (fun (d : Report.def) ->
                Printf.sprintf "%s: %s" (Report.json_string d.Report.name)
                  (Report.json_string d.Report.moves))
              Report.per_layer));
      let cost name (c : Probes.cost) =
        Printf.sprintf {|{"call": "%s", "ns": %.2f, "words": %.2f}|} name c.Probes.ns
          c.Probes.words
      in
      Printf.fprintf oc "\"unit_costs\": [\n%s],\n"
        (String.concat ",\n"
           (List.map
              (fun (d, c) -> cost (Printf.sprintf "Event_queue.push+pop_into@%d" d) c)
              probes.Probes.eventq
           @ List.concat_map
               (fun (pc : Probes.platform_costs) ->
                 let p = pc.Probes.platform.Ssync_platform.Platform.name in
                 [
                   cost (p ^ " Memory.access_lat hit") pc.Probes.hit;
                   cost (p ^ " Memory.access_lat miss") pc.Probes.miss;
                   cost (p ^ " Cost_model.op_latency") pc.Probes.op_latency;
                   cost (p ^ " Cost_model.fill_path") pc.Probes.fill_path;
                   cost (p ^ " Memory.create+dispose") pc.Probes.create;
                 ])
               probes.Probes.platforms));
      Printf.fprintf oc "\"access_grid\": [\n%s],\n"
        (String.concat ",\n"
           (List.concat_map
              (fun (pc : Probes.platform_costs) ->
                List.map
                  (fun (c : Probes.access_cell) ->
                    Printf.sprintf
                      {|{"platform": "%s", "op": "%s", "state": "%s", "distance": "%s", "ns": %.2f, "words": %.2f}|}
                      pc.Probes.platform.Ssync_platform.Platform.name
                      (Ssync_platform.Arch.memop_name c.Probes.op)
                      (Ssync_platform.Arch.cstate_name c.Probes.state)
                      c.Probes.distance c.Probes.cost.Probes.ns
                      c.Probes.cost.Probes.words)
                  pc.Probes.grid)
              probes.Probes.platforms));
      Printf.fprintf oc "\"spans\": [\n%s]}\n"
        (String.concat ",\n" (List.map (Span.to_json ~base) spans)));
  path

let () =
  let a = parse Sys.argv in
  let workload =
    match Jobs.workload_of_string a.workload with Some w -> w | None -> usage ()
  in
  let plan = Array.of_list (Jobs.plan workload) in
  let first_job_unix = Unix.gettimeofday () in
  if a.setup_only then begin
    Printf.printf "{\"first_job_unix\": %.6f}\n" first_job_unix;
    exit 0
  end;
  if a.write_reference then begin
    write_reference a plan;
    exit 0
  end;
  let domains2 = min 2 (Domain.recommended_domain_count ()) in
  let run_pass ?spans ?(domains = 1) () = Batch.run ?spans ~domains ~seed:a.seed plan in
  let checked, values, trace_file =
    if not a.trace then begin
      let passes = repeat ~t0:first_job_unix ~seconds:a.seconds ~min:3 run_pass in
      (passes, Layers.end_to_end passes, None)
    end
    else begin
      let probes = Probes.run () in
      let spans = Span.create () in
      let both =
        repeat ~t0:first_job_unix ~seconds:(0.7 *. a.seconds) ~min:2 (fun () ->
            (run_pass (), run_pass ~spans ()))
      in
      let untraced = List.map fst both and traced = List.map snd both in
      let pooled = List.init 2 (fun _ -> run_pass ~domains:domains2 ()) in
      let spans = Span.spans spans in
      let values =
        if raised (untraced @ traced @ pooled) <> [] then []
        else Layers.per_layer ~plan ~untraced ~traced ~spans ~pooled ~probes
      in
      let path = write_trace a ~domains:domains2 ~spans ~probes ~values in
      (untraced @ traced @ pooled, values, Some path)
    end
  in
  let reference = Check.load ~dir:a.reference ~workload:a.workload ~seed:a.seed in
  let attempted, failed = check_passes ~reference plan checked in
  Printf.printf "perfbench %s seed %d: %d jobs x %d passes, reference %s, host %s\n"
    a.workload a.seed (Array.length plan) (List.length checked)
    (match reference with Some _ -> "committed" | None -> "none (repeat and sanity checks only)")
    (Report.host_json ~domains:(if a.trace then domains2 else 1));
  Printf.printf
    "modelled caches start empty in every simulation; the ssht prefill runs \
     before the start barrier; virtual results are checked for identity, \
     the model is not validated by this benchmark\n";
  Report.print_table values;
  Option.iter (Printf.printf "trace written to %s\n") trace_file;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, \
     \"first_job_unix\": %.6f}\n"
    (failed = 0) attempted failed (Report.metrics_json values) first_job_unix;
  exit (if failed = 0 then 0 else 1)
