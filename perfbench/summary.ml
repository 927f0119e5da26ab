(* Timing summaries: a median plus the highest percentile the sample
   supports, i.e. the highest of 50/90/99/99.9/99.99 with at least ten
   samples beyond it.  A p99 from 200 samples rests on two points and is
   noise; this helper never reports one. *)

type t = {
  count : int;
  median : float;  (** [nan] when [count = 0] *)
  tail : (float * float) option;
      (** [(percentile, value)] of the highest supported percentile;
          [None] below 20 samples *)
}

(* Percentiles in basis points, highest first. *)
let ladder_bp = [ 9999; 9990; 9900; 9000; 5000 ]

let supports ~count bp = count * (10000 - bp) >= 10 * 10000

let highest_supported ~count =
  List.find_opt (supports ~count) ladder_bp |> Option.map (fun bp -> float_of_int bp /. 100.)

(* Nearest-rank quantile of an ascending array: the smallest sample with at
   least [q] of the mass at or below it. *)
let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median_sorted sorted =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples = median_sorted (sorted_copy samples)
let quantile samples q = quantile_sorted (sorted_copy samples) q

let of_samples samples =
  let sorted = sorted_copy samples in
  let count = Array.length sorted in
  {
    count;
    median = median_sorted sorted;
    tail =
      Option.map (fun p -> (p, quantile_sorted sorted (p /. 100.))) (highest_supported ~count);
  }

let to_string ~unit t =
  let tail =
    match t.tail with
    | None -> "no supported tail"
    | Some (p, v) -> Printf.sprintf "p%g %.6g%s" p v unit
  in
  Printf.sprintf "median %.6g%s, %s (n=%d)" t.median unit tail t.count
