(* Exact statistics over raw samples. Every quantile the benchmark
   reports is read off the sorted samples themselves, never off
   histogram buckets. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Nearest rank: the smallest sample with at least [q] of all samples
   at or below it. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  if Array.length a = 0 then 0.0 else sum a /. float (Array.length a)

(* The highest percentile that still has at least ten samples above
   it; 0 when there are too few samples for any. *)
let max_percentile n =
  if n <= 10 then 0.0 else 100.0 *. float (n - 10) /. float n

(* Least-squares line [y = a + b x]; [(mean y, 0)] when x is constant. *)
let fit xs ys =
  let n = float (Array.length xs) in
  if n = 0.0 then (0.0, 0.0)
  else
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 in
    Array.iteri
      (fun i x ->
        sxy := !sxy +. ((x -. mx) *. (ys.(i) -. my));
        sxx := !sxx +. ((x -. mx) *. (x -. mx)))
      xs;
    if !sxx = 0.0 then (my, 0.0)
    else
      let b = !sxy /. !sxx in
      (my -. (b *. mx), b)

let ratio a b = if b = 0.0 then 0.0 else a /. b
