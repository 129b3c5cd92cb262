(* Run-to-run comparison over the two machine-readable artifacts the
   system emits: manifest.json (per-run) and BENCH.json (per-bench).
   Both flatten into named numeric series; the diff then only has to
   know two things per series — whether it is volatile (wall clock, GC,
   ns/run: compared by ratio against a noise floor) or deterministic
   (counts, sim time, accuracy: compared exactly, modulo an optional
   relative tolerance). A regression is a scriptable build failure:
   `bdrmap obs diff A B` exits nonzero and names the offending series. *)

type kind = Manifest | Bench

let kind_label = function Manifest -> "manifest" | Bench -> "bench"

type run = { kind : kind; schema : string; series : (string * float) list }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Wall-clock, GC deltas, micro-benchmark estimates and the query-server
   load rows (throughput, round-trip latency, per-query allocation,
   query counts — all functions of a timed window) move run to run on an
   otherwise identical workload; everything else is a pure function of
   the configuration. *)
let volatile_series name =
  contains ~sub:"wall" name || contains ~sub:"gc_" name
  || contains ~sub:"ns_per_" name || contains ~sub:"created_unix" name
  || contains ~sub:"qps" name || contains ~sub:"rtt_" name
  || contains ~sub:"per_query" name || contains ~sub:".queries" name

(* Throughput runs the other way from every other volatile series:
   higher is better, so the ratio test compares the inverted pair. *)
let inverted_series name = contains ~sub:"qps" name

(* Absolute noise floors under which a volatile ratio blow-up is not a
   regression (a 1us stage doubling to 2us is scheduler noise, not a
   perf bug). Keyed on the unit implied by the series name. *)
let noise_floor name =
  if contains ~sub:"wall_s" name then 0.005
  else if contains ~sub:"wall_ns" name then 5e6
  else if contains ~sub:"ns_per_" name then 100.0
  else if contains ~sub:"gc_" name then 10_000.0
  else if contains ~sub:"rtt_" name then 25.0 (* us; sub-25us RTTs are all noise *)
  else if contains ~sub:"per_query" name then 2.0 (* amortized metrics words *)
  else if contains ~sub:"qps" name then 50_000.0
  else 0.0

(* ------------------------------------------------------------------ *)
(* Flattening parsed JSON into series.                                *)

let num_fields prefix fields acc =
  List.fold_left
    (fun acc (k, v) ->
      match Json.to_float v with
      | Some f when k <> "created_unix" -> (prefix ^ "." ^ k, f) :: acc
      | _ -> acc)
    acc fields

let manifest_series json =
  let acc = ref [] in
  let top k =
    match Option.bind (Json.member k json) Json.to_float with
    | Some f -> acc := (k, f) :: !acc
    | None -> ()
  in
  List.iter top [ "scale"; "jobs"; "trace_records" ];
  (match Option.bind (Json.member "stages" json) Json.to_obj with
  | Some stages ->
    List.iter
      (fun (stage, v) ->
        match Json.to_obj v with
        | Some fields -> acc := num_fields ("stage." ^ stage) fields !acc
        | None -> ())
      stages
  | None -> ());
  (match Option.bind (Json.member "metrics" json) Json.to_obj with
  | Some metrics ->
    List.iter
      (fun (name, v) ->
        match v with
        | Json.Int _ | Json.Float _ ->
          acc := ("metric." ^ name, Option.get (Json.to_float v)) :: !acc
        | Json.Obj fields ->
          (* histogram: count/sum/percentiles, buckets skipped *)
          acc :=
            num_fields ("metric." ^ name)
              (List.filter (fun (k, _) -> k <> "buckets") fields)
              !acc
        | _ -> ())
      metrics
  | None -> ());
  List.rev !acc

let bench_series json =
  let acc = ref [] in
  let top k =
    match Option.bind (Json.member k json) Json.to_float with
    | Some f -> acc := (k, f) :: !acc
    | None -> ()
  in
  List.iter top [ "scale"; "domains" ];
  let rows key ~name_of ~prefix =
    match Option.bind (Json.member key json) Json.to_list with
    | Some rows ->
      List.iter
        (fun row ->
          match Json.to_obj row with
          | Some fields -> (
            match name_of fields with
            | Some n ->
              acc :=
                num_fields (prefix ^ "." ^ n)
                  (List.filter
                     (fun (k, v) ->
                       Json.to_float v <> None && k <> "intensity"
                       && k <> "epoch")
                     fields)
                  !acc
            | None -> ())
          | None -> ())
        rows
    | None -> ()
  in
  let str_field k fields = Option.bind (List.assoc_opt k fields) Json.to_str in
  rows "experiments" ~name_of:(str_field "name") ~prefix:"experiment";
  rows "stages" ~name_of:(str_field "stage") ~prefix:"stage";
  rows "corpus" ~name_of:(str_field "scenario") ~prefix:"corpus";
  rows "churn" ~name_of:(str_field "name") ~prefix:"churn";
  rows "longitudinal"
    ~name_of:(fun fields ->
      Option.map (Printf.sprintf "%g")
        (Option.bind (List.assoc_opt "epoch" fields) Json.to_float))
    ~prefix:"longitudinal";
  rows "serve" ~name_of:(str_field "name") ~prefix:"serve";
  rows "micro" ~name_of:(str_field "name") ~prefix:"micro";
  rows "metrics" ~name_of:(str_field "name") ~prefix:"metric";
  rows "robustness"
    ~name_of:(fun fields ->
      Option.map (Printf.sprintf "%g")
        (Option.bind (List.assoc_opt "intensity" fields) Json.to_float))
    ~prefix:"robustness";
  List.rev !acc

let of_json json =
  match Option.bind (Json.member "schema" json) Json.to_str with
  | Some schema when contains ~sub:"bdrmap-manifest/" schema ->
    Ok { kind = Manifest; schema; series = manifest_series json }
  | Some schema when contains ~sub:"bdrmap-bench/" schema ->
    Ok { kind = Bench; schema; series = bench_series json }
  | Some schema -> Error (Printf.sprintf "unrecognized schema %S" schema)
  | None -> Error "no \"schema\" field: not a manifest or BENCH.json"

let of_string s =
  match Json.parse s with
  | Error e -> Error (Json.error_to_string e)
  | Ok json -> of_json json

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match of_string (really_input_string ic (in_channel_length ic)) with
        | Ok r -> Ok r
        | Error e -> Error (path ^ ": " ^ e))

(* ------------------------------------------------------------------ *)
(* The diff.                                                          *)

type verdict = Regression | Improvement | Changed | Missing

let verdict_label = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Changed -> "CHANGED"
  | Missing -> "MISSING"

type finding = { f_name : string; f_a : float; f_b : float; f_verdict : verdict }

let failing f = match f.f_verdict with
  | Regression | Changed | Missing -> true
  | Improvement -> false

let diff ?(wall_ratio = 1.5) ?(rel = 0.0) a b =
  let findings = ref [] in
  let push f_name f_a f_b f_verdict =
    findings := { f_name; f_a; f_b; f_verdict } :: !findings
  in
  List.iter
    (fun (name, av) ->
      match List.assoc_opt name b.series with
      | None -> push name av nan Missing
      | Some bv ->
        if volatile_series name then begin
          (* [x] is the "worse if bigger" side: run B for cost series,
             run A for inverted (throughput) series. *)
          let x, y = if inverted_series name then (av, bv) else (bv, av) in
          if x > (y *. wall_ratio) +. noise_floor name then push name av bv Regression
          else if y > (x *. wall_ratio) +. noise_floor name then
            push name av bv Improvement
        end
        else if
          Float.abs (bv -. av) > rel *. Float.max (Float.abs av) (Float.abs bv)
        then push name av bv Changed)
    a.series;
  List.rev !findings

let regressions findings = List.filter failing findings

let finding_to_string f =
  Printf.sprintf "%-11s %-44s %g -> %g%s" (verdict_label f.f_verdict) f.f_name f.f_a
    f.f_b
    (if f.f_a > 0.0 && not (Float.is_nan f.f_b) then
       Printf.sprintf " (%.2fx)" (f.f_b /. f.f_a)
     else "")
