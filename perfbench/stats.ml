(* Order statistics over float samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks, so a median of an even
   sample is the mean of the two middle values. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = percentile a 50.0

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, with the percentile it sits at. Below eleven
   samples there is no such percentile and the maximum stands in. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n < 11 then (s.(n - 1), 100.0)
  else (s.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let sum a = Array.fold_left ( +. ) 0.0 a
let max a = Array.fold_left Float.max neg_infinity a
