(* Statistics and the paired-runs verdict behind `perf.exe compare`.

   A and B are two sets of `run` invocations (one value per invocation
   and metric); the i-th runs of each side form a pair. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> Float.nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), which the benchmark's steadiness rule
   is stated in. *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> (Float.nan, Float.nan)
  | [| x |] -> (x, x)
  | a ->
    let ld = Array.length a in
    let q i =
      let m = ld + 1 in
      let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

type side = { values : float list; med : float; q1 : float; q3 : float }

let side values =
  let q1, q3 = quartiles values in
  { values; med = median values; q1; q3 }

(* Quartile spread as a share of the median. *)
let spread s =
  if s.med = 0.0 then (if s.q3 = s.q1 then 0.0 else Float.infinity)
  else (s.q3 -. s.q1) /. Float.abs s.med

type better = Lower | Higher
type verdict = Same | Better | Worse | Unresolved

let verdict_name = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* - worse: B's median is past A's by more than [bound];
   - unresolved: either side's quartile spread is wider than [bound] and
     not every run of B beats every run of A;
   - better: B wins at least 9 of 10 pairs (ties count for neither) and
     the medians differ by more than A's quartile spread;
   - same: otherwise. *)
let verdict ~better ~bound a b =
  let beats x y = match better with Lower -> y < x | Higher -> y > x in
  let worse_by =
    let d = match better with Lower -> b.med -. a.med | Higher -> a.med -. b.med in
    if a.med = 0.0 then (if d > 0.0 then Float.infinity else 0.0)
    else d /. Float.abs a.med
  in
  let every_b_beats_every_a =
    List.for_all (fun x -> List.for_all (fun y -> beats x y) b.values) a.values
  in
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  let pairs = zip a.values b.values in
  let wins = List.length (List.filter (fun (x, y) -> beats x y) pairs) in
  if worse_by > bound then Worse
  else if (spread a > bound || spread b > bound) && not every_b_beats_every_a then
    Unresolved
  else if
    pairs <> []
    && 10 * wins >= 9 * List.length pairs
    && beats a.med b.med
    && Float.abs (b.med -. a.med) > a.q3 -. a.q1
  then Better
  else Same
