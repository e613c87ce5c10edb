(* Host-time spans recorded by the benchmark around its calls into the
   simulator's layers.  A disabled recorder records nothing and costs
   one branch per call, so the timed (untraced) passes run the same job
   code as the traced ones.  Spans stay in memory and are written once,
   when the run ends. *)

type t = {
  id : int;
  job : int;  (** job id, unique within the recorder *)
  parent : int;  (** id of the enclosing span, [-1] for a job root *)
  name : string;
  t0 : float;  (** host seconds *)
  mutable t1 : float;
}

type recorder = {
  on : bool;
  mutable spans : t list;
  mutable next : int;
  mutable jobs : int;  (** job ids handed out so far *)
}

let disabled = { on = false; spans = []; next = 0; jobs = 0 }
let create () = { on = true; spans = []; next = 0; jobs = 0 }
let no_span = -1

(* Monotonic host clock, seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Record a finished span [t0, t1]; returns its id, or [no_span] when
   the recorder is off. *)
let add r ~job ~parent name t0 t1 =
  if not r.on then no_span
  else begin
    let id = r.next in
    r.next <- id + 1;
    r.spans <- { id; job; parent; name; t0; t1 } :: r.spans;
    id
  end

(* Open a span now; close it with [stop]. *)
let start r ~job ~parent name =
  if not r.on then no_span
  else add r ~job ~parent name (now ()) Float.nan

let stop r id =
  if r.on then
    match List.find_opt (fun s -> s.id = id) r.spans with
    | Some s -> s.t1 <- now ()
    | None -> invalid_arg "Span.stop: unknown span"

(* [f] inside a span named [name]; [f] receives the span's id so it can
   parent further spans. *)
let wrap r ~job ~parent name f =
  let id = start r ~job ~parent name in
  match f id with
  | v ->
      stop r id;
      v
  | exception e ->
      stop r id;
      raise e

let spans r = List.rev r.spans
let dur s = s.t1 -. s.t0

(* Length of the union of the intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total +. (cb -. ca), (a, b))
        else (total, (ca, Float.max cb b)))
      (0., (lo, lo))
      clipped
  in
  total +. (snd last -. fst last)

(* Self time of every span: its duration minus the part of its interval
   that its child spans cover.  Returned in [spans] order. *)
let self_times (spans : t list) : (t * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> no_span then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, dur s -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

let to_json ~base s =
  Printf.sprintf
    {|{"id":%d,"job":%d,"parent":%d,"name":"%s","start_us":%.1f,"dur_us":%.1f}|}
    s.id s.job s.parent s.name
    ((s.t0 -. base) *. 1e6)
    (dur s *. 1e6)
