(* The result check.  Every job's virtual-time results are rendered as a
   canonical line and compared against a committed reference: in full
   for the default seed (a readable file, one job per line) and as a
   hash for the other seeds the reference covers.  A job fails when it
   raised, when its line differs from the reference, or when a repeat
   of the same job in the same run computed something else.  Seeds
   without a reference are still held to the repeat check and to the
   sanity rules in [sane]. *)

open Ssync_coherence

let canonical (d : Jobs.digest) =
  let s = d.Jobs.stats in
  let c (x : Stats.counter) = Printf.sprintf "%d/%d" x.Stats.count x.Stats.cycles in
  Printf.sprintf
    "ops=%s verdict=%s sim_cycles=%d events=%d loads=%s stores=%s atomics=%s \
     local_hits=%d invalidations=%d queued=%d link_queued=%d elided=%d"
    (String.concat "," (Array.to_list (Array.map string_of_int d.Jobs.ops)))
    (if d.Jobs.stalled then "stalled" else "completed")
    d.Jobs.sim_cycles d.Jobs.events (c s.Stats.loads) (c s.Stats.stores)
    (c s.Stats.atomics) s.Stats.local_hits s.Stats.invalidations
    s.Stats.queued_cycles s.Stats.link_queued_cycles s.Stats.elided_probes

let hash line = String.sub (Digest.to_hex (Digest.string line)) 0 12

(* Seeds whose results the committed reference covers. *)
let full_seed = 0
let hashed_seeds = List.init 9 (fun i -> i + 1)

(* What the reference says job [i] must compute: the full line (and the
   job key, for the default seed) or its hash. *)
type reference = Full of string * string | Hashed of string

(* Reference of one (workload, seed), indexed by job position in the
   plan. *)
type table = (int, reference) Hashtbl.t

let full_file ~dir ~workload = Filename.concat dir (workload ^ ".seed0.txt")
let hashed_file ~dir ~workload = Filename.concat dir (workload ^ ".hashes.txt")

(* Sanity rules for seeds without a reference: some work was done and
   the clock advanced.  A stalled verdict is a model outcome (TAS storms
   at one lock, preempted FIFO holders), not a failure. *)
let sane (d : Jobs.digest) =
  Jobs.total_ops d > 0 && d.Jobs.sim_cycles > 0 && d.Jobs.events > 0

let read_lines path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")

(* [load ~dir ~workload ~seed] is [None] when the reference does not
   cover [seed]. *)
let load ~dir ~workload ~seed : table option =
  let tbl = Hashtbl.create 256 in
  if seed = full_seed then
    List.iteri
      (fun i l ->
        match String.index_opt l '\t' with
        | Some c ->
            Hashtbl.replace tbl i
              (Full (String.sub l 0 c, String.sub l (c + 1) (String.length l - c - 1)))
        | None -> ())
      (read_lines (full_file ~dir ~workload))
  else begin
    let s = string_of_int seed in
    List.iter
      (fun l ->
        match String.split_on_char '\t' l with
        | [ s'; i; h ] when s' = s -> Hashtbl.replace tbl (int_of_string i) (Hashed h)
        | _ -> ())
      (read_lines (hashed_file ~dir ~workload))
  end;
  if Hashtbl.length tbl = 0 then None else Some tbl

let matches tbl ~index ~key line =
  match Hashtbl.find_opt tbl index with
  | Some (Full (k, l)) -> k = key && l = line
  | Some (Hashed h) -> h = hash line
  | None -> false

(* Check one job execution.  [first] is the canonical line the same job
   produced on its first execution in this run. *)
let check ?reference ~index ~key ~first (o : Jobs.outcome) =
  match o with
  | Jobs.Raised _ -> false
  | Jobs.Done (d, _) -> (
      let line = canonical d in
      (match first with Some f -> f = line | None -> true)
      &&
      match reference with
      | Some tbl -> matches tbl ~index ~key line
      | None -> sane d)

(* Write the reference: the full file for the default seed, hashes for
   [hashed_seeds].  [lines seed] gives the (key, canonical line) pairs
   in plan order. *)
let write ~dir ~workload ~(lines : int -> (string * string) list) =
  Out_channel.with_open_text (full_file ~dir ~workload) (fun oc ->
      List.iter
        (fun (k, l) -> Printf.fprintf oc "%s\t%s\n" k l)
        (lines full_seed));
  Out_channel.with_open_text (hashed_file ~dir ~workload) (fun oc ->
      List.iter
        (fun seed ->
          List.iteri
            (fun i (_, l) -> Printf.fprintf oc "%d\t%d\t%s\n" seed i (hash l))
            (lines seed))
        hashed_seeds)
