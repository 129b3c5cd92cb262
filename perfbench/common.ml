(* What every workload shares: the run's options, its scratch directory
   inside the checkout, the result line, the owner oracle and the
   seeded owner-query mix. *)

open Netcore

type opts = { seed : int; seconds : float; trace : bool; domains : int }

(* ------------------------------------------------------------------ *)
(* Scratch directory: under .bench_build in the working directory (the
   checkout root), removed when the run ends. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let with_workdir f =
  let dir = Filename.concat ".bench_build" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  ensure_dir ".bench_build";
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Result line and failure accounting. *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Informational lines go to stdout ahead of the result line. *)
let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Gc.compact before a timed window: a full major collection (and a
   compaction, on runtimes that have one), so the window does not pay
   for the garbage set-up left behind. Returns the heap size the window
   starts from. *)
let settle_heap () =
  Gc.compact ();
  heap_mb ()

let print_result t metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then Printf.eprintf "perfbench: %s is not finite\n%!" n)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
             (if Float.is_finite v then v else 0.0)
             u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (finite && t.failed = 0) (max 1 t.attempted) t.failed body

(* The end-to-end result line: the same five metrics on every workload,
   each measured on the workload's own unit of work. *)
let print_end_to_end t ~setup_s ~op_s ~work_per_s ~links_pct ~heap_mb =
  print_result t
    [ ("setup_s", setup_s, "s");
      ("op_p50_ms", 1e3 *. op_s, "ms");
      ("work_per_s", work_per_s, "1/s");
      ("links_correct_pct", links_pct, "%");
      ("heap_peak_mb", heap_mb, "MB") ]

(* ------------------------------------------------------------------ *)
(* Owner oracle, independent of Serve.Qmap: a linear scan over the
   map's border /32s (the last binding of an address wins, as the map
   lists them), then the longest covering origin prefix, else 0. *)

type oracle = {
  borders : (int * int) array;  (** (address, operator ASN), map order *)
  origins : (Prefix.t * int) array;
}

let oracle (mf : Bdrmap.Mapfile.t) =
  let host = Asn.Set.min_elt mf.Bdrmap.Mapfile.host_asns in
  let acc = ref [] in
  List.iter
    (fun (m : Bdrmap.Aggregate.merged) ->
      Ipv4.Set.iter (fun a -> acc := (Ipv4.to_int a, host) :: !acc) m.near_addrs;
      Ipv4.Set.iter (fun a -> acc := (Ipv4.to_int a, m.neighbor) :: !acc) m.far_addrs)
    mf.merged;
  { borders = Array.of_list (List.rev !acc); origins = Array.of_list mf.origins }

let border_owner o a =
  let r = ref (-1) in
  Array.iter (fun (b, asn) -> if b = a then r := asn) o.borders;
  !r

let covering_origin o a =
  let best = ref (-1) and best_len = ref (-1) in
  Array.iter
    (fun (p, asn) ->
      if Prefix.len p > !best_len && Prefix.mem (Ipv4.of_int a) p then begin
        best := asn;
        best_len := Prefix.len p
      end)
    o.origins;
  !best

let expected_owner o a =
  let b = border_owner o a in
  if b >= 0 then b
  else
    let c = covering_origin o a in
    if c >= 0 then c else 0

(* ------------------------------------------------------------------ *)
(* Owner-query mix. Half of it is the repo's own serve-bench traffic:
   Qmap.sample_addrs, every border /32 and the first address of every
   routed prefix, cycled in a seeded order as Bench_load cycles it.
   That traffic only asks answerable addresses, so the other half is
   uniformly random IPv4 addresses, most of which no prefix covers.
   The class of each address (which Qmap.owner path it takes) is what
   the oracle says it is: a border /32 hit, a routed non-border address
   resolved through the origin prefixes, or a miss. The class shares
   are an outcome of the map, recorded, not chosen. *)

type cls = Border | Routed | Miss

type mix = {
  addrs : int array;
  expect : int array;  (** oracle answer per address *)
  classes : cls array;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let classify o a =
  if border_owner o a >= 0 then Border else if covering_origin o a >= 0 then Routed else Miss

let mix ~rng ~n ~(sample : Ipv4.t array) o =
  if Array.length sample = 0 then failwith "perfbench: empty query map";
  let sample = Array.map Ipv4.to_int sample in
  shuffle rng sample;
  let half = n / 2 in
  let addrs =
    Array.init n (fun i ->
        if i < half then sample.(i mod Array.length sample)
        else Int64.to_int (Random.State.int64 rng 0x1_0000_0000L))
  in
  (* Seeded shuffle so batches interleave the two halves. *)
  shuffle rng addrs;
  { addrs; expect = Array.map (expected_owner o) addrs; classes = Array.map (classify o) addrs }

let class_addrs m c =
  let l = ref [] in
  Array.iteri (fun i a -> if m.classes.(i) = c then l := a :: !l) m.addrs;
  Array.of_list (List.rev !l)

(* Bytes of every regular file under [path]. *)
let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun a f -> a + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
