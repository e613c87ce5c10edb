(* Order statistics for the reported timings. *)

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it.  [p] in (0, 1]. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  if not (p > 0. && p <= 1.) then invalid_arg "Stat.percentile: p outside (0, 1]";
  Array.sort compare a;
  let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  a.(max 1 rank - 1)

let median xs = percentile 0.5 xs

(* The reporting rule for a tail percentile: it is only reported when
   at least ten samples lie above it. *)
let min_tail = 10

let samples_above p xs =
  let v = percentile p xs in
  List.length (List.filter (fun x -> x > v) xs)

let tail_ok p xs = samples_above p xs >= min_tail

let sum = List.fold_left ( +. ) 0.
let mean xs = if xs = [] then 0. else sum xs /. float_of_int (List.length xs)
