(* Post-hoc assertions over a bench-quick BENCH.json, attached to the
   runtest alias: the snapshot must have been built at most once per
   multi-VP sweep (a per-worker rebuild would show builds exceeding the
   sweep count), every computed VP must have attached to a shared
   snapshot, the per-stage and per-experiment GC columns must be
   present, the packed scale-3 snapshot rows must show a warm query
   sweep that stays inside a near-zero GC major-words budget — the
   regression gate for the route arenas staying GC-invisible — and
   every adversarial corpus scenario must hold its recorded accuracy
   floor, the regression gate for inference *quality*. The serve rows
   must show the query server sustaining its throughput floor with a
   sane latency ordering and a near-zero steady-state allocation rate —
   the regression gate for the query hot loop staying allocation-free.
   The bench's self-checks (churn snapshot/plan equality against a
   scratch freeze, the scale-3 sweep checksum) are 0/1 row fields, and a
   0 or a missing field fails here. The artifact is read through the obs
   read side (Obs.Run_diff flattens it into named series), so these
   gates and `bdrmap obs diff` agree on what a series is called and what
   it contains. *)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("check_bench: " ^ m); exit 1) fmt

(* Budget for GC major-heap allocation during the warm packed-snapshot
   query sweep: the sweep reads only Bigarray words through the
   zero-allocation slot layer, so anything beyond incidental noise
   (boxed floats from the Gc stat calls themselves) means the packed
   representation regressed to heap-visible storage. *)
let warm_sweep_major_budget = 50_000

(* Floors for the query-server rows. The batch-512 row sustains several
   million lookups/sec on the bench box; the floor is set an order of
   magnitude below the observed rate so it catches a real regression
   (a boxing bug or per-query allocation re-appearing costs 10x-100x),
   not scheduler noise on a loaded CI machine. Allocation is gated per
   frame: the server allocates a bounded constant per request (metrics
   recording), and the per-query path contributes nothing — so
   words/query x batch must stay under one frame's budget at both
   batch sizes. At batch 512 that bound also forces the amortized
   per-query rate under ~0.2 words. *)
let serve_qps_floor = 250_000.0
let serve_frame_words_budget = 100.0

(* Floor for the incremental re-freeze on single-link churn: a link
   add/remove dirties zero prefixes, so the incremental path does a
   constant amount of work where the full freeze re-propagates every
   route. 5x is the contract; the observed gap at scale 1 is orders of
   magnitude wider, so this catches the incremental path silently
   degrading to a full recompute, not timer noise. *)
let churn_speedup_floor = 5.0

(* Budget for the forwarding walk's allocation, in minor words per
   router hop over the micro VP's trace destinations. A warmed walk
   allocates only its one-time destination resolve and its result
   (about 17 words per walk, 2.64 words per hop on the bench world),
   nothing per hop. The count is exact and deterministic, so the budget
   is twice that measurement, and an allocation creeping back into the
   per-hop step fails here rather than hiding in timing noise. *)
let walk_words_per_hop_budget = 5.3

let has_suffix suffix name =
  let n = String.length name and m = String.length suffix in
  n >= m && String.sub name (n - m) m = suffix

let has_prefix prefix name =
  let n = String.length name and m = String.length prefix in
  n >= m && String.sub name 0 m = prefix

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH.json" in
  let run =
    match Obs.Run_diff.of_file path with
    | Ok r -> r
    | Error e -> fail "%s" e
  in
  if run.Obs.Run_diff.kind <> Obs.Run_diff.Bench then
    fail "%s parsed, but not as a BENCH.json" path;
  if run.Obs.Run_diff.schema <> "bdrmap-bench/12" then
    fail "schema is %S, not bdrmap-bench/12" run.Obs.Run_diff.schema;
  let series = run.Obs.Run_diff.series in
  let get name = List.assoc_opt name series in
  let geti name = Option.map (fun f -> int_of_float f) (get name) in
  (* The row names [r] of every series [block.r.field]. *)
  let rows_of block field =
    let pre = block ^ "." and suf = "." ^ field in
    List.filter_map
      (fun (n, _) ->
        if has_prefix pre n && has_suffix suf n then
          Some
            (String.sub n (String.length pre)
               (String.length n - String.length pre - String.length suf))
        else None)
      series
  in
  let counter name = Option.value ~default:0 (geti ("metric." ^ name ^ ".total")) in
  (* A run must diff clean against itself: if the flattening ever
     produces duplicate or unstable series, every downstream
     `obs diff` verdict is suspect. *)
  (match Obs.Run_diff.regressions (Obs.Run_diff.diff run run) with
  | [] -> ()
  | f :: _ ->
    fail "self-diff is not clean (series %S): flattening is unstable"
      f.Obs.Run_diff.f_name);
  (* Experiment rows carry the GC counter columns. *)
  List.iter
    (fun field ->
      if
        not
          (List.exists
             (fun (n, _) -> has_prefix "experiment." n && has_suffix ("." ^ field) n)
             series)
      then fail "experiment rows are missing the GC counter field %S" field)
    [ "gc_minor_words"; "gc_major_words"; "gc_heap_words"; "gc_compactions" ];
  (* Stage rows carry the new per-stage allocation columns, and the
     freeze stage was traced at all. *)
  if get "stage.freeze.count" = None then
    fail "no \"freeze\" stage row: snapshot freeze was never traced";
  List.iter
    (fun field ->
      if get ("stage.freeze." ^ field) = None then
        fail "stage rows are missing the per-stage allocation column %S" field)
    [ "gc_minor_words"; "gc_major_words"; "gc_compactions" ];
  (* Histogram metric rows must carry their derived percentiles. *)
  List.iter
    (fun (name, count) ->
      if count > 0.0 then
        let base = String.sub name 0 (String.length name - String.length ".count") in
        if get (base ^ ".p50") = None then
          fail "histogram series %S has %g observations but no p50 column" name count)
    (List.filter
       (fun (n, _) -> has_prefix "metric." n && has_suffix ".count" n)
       series);
  (* The packed scale-3 snapshot gates. *)
  if get "experiment.snapshot3-freeze.gc_heap_words" = None then
    fail "no \"snapshot3-freeze\" row: the scale-3 packed freeze never ran";
  (match geti "experiment.snapshot3-query-sweep-warm.gc_major_words" with
  | None ->
    fail "no \"snapshot3-query-sweep-warm\" row: the packed query sweep never ran"
  | Some major ->
    if major > warm_sweep_major_budget then
      fail
        "warm packed query sweep allocated %d GC major words (budget %d): the \
         route arena is no longer GC-invisible"
        major warm_sweep_major_budget);
  (* The cold and warm sweeps read the same words, so their checksums
     must agree (field 1 = equal). *)
  List.iter
    (fun row ->
      match get (Printf.sprintf "experiment.%s.checksum_stable" row) with
      | None -> fail "row %S lacks field \"checksum_stable\"" row
      | Some v when v <> 1.0 ->
        fail "row %S: the packed query sweep checksum drifted between sweeps" row
      | Some _ -> ())
    [ "snapshot3-query-sweep"; "snapshot3-query-sweep-warm" ];
  let builds = counter "routing.snapshot.builds" in
  let attaches = counter "routing.snapshot.attaches" in
  let sweeps = counter "pipeline.sweeps" in
  let crossing = counter "pipeline.crossing_sweeps" in
  let vp_computes = counter "pipeline.vp_computes" in
  if builds < 1 then fail "snapshot was never built (routing.snapshot.builds = 0)";
  (* The two standalone freezes (snapshot-freeze, snapshot3-freeze) are
     deliberate builds outside any sweep. *)
  if builds > sweeps + crossing + 2 then
    fail
      "snapshot rebuilt per worker: %d builds for %d execute_all sweeps + %d pooled \
       crossing sweeps (+2 standalone freezes)"
      builds sweeps crossing;
  if vp_computes > 0 && attaches < vp_computes then
    fail
      "%d computed VPs but only %d snapshot attaches — a worker bypassed the \
       shared snapshot"
      vp_computes attaches;
  (* Corpus accuracy floors, enumerated from the flattened series. *)
  let scenarios = rows_of "corpus" "links_pct" in
  if List.length scenarios < 8 then
    fail "only %d corpus scenario rows (expected the full registry, >= 8)"
      (List.length scenarios);
  List.iter
    (fun s ->
      let f field =
        match get (Printf.sprintf "corpus.%s.%s" s field) with
        | Some v -> v
        | None -> fail "corpus scenario %S lacks field %S" s field
      in
      if f "links_pct" < f "links_floor" then
        fail "corpus scenario %S: link accuracy %.2f%% fell below its floor %.2f%%"
          s (f "links_pct") (f "links_floor");
      if f "routers_pct" < f "routers_floor" then
        fail "corpus scenario %S: router accuracy %.2f%% fell below its floor %.2f%%"
          s (f "routers_pct") (f "routers_floor"))
    scenarios;
  (* Temporal-churn rows: the single-link event classes are the
     headline case for the incremental path — zero dirty prefixes, so
     the re-freeze must beat the full freeze by at least the contract
     factor. Rows for these classes are mandatory: the scale-1 bench
     world always has an eligible site for a link add and remove, so a
     missing row means the churn bench silently skipped them. Every
     churn row must also show its incremental snapshot and plan equal to
     the scratch ones (fields 1 = equal). *)
  let churn_field row field =
    match get (Printf.sprintf "churn.%s.%s" row field) with
    | Some v -> v
    | None -> fail "churn row %S lacks field %S (did the churn bench run?)" row field
  in
  List.iter
    (fun row ->
      List.iter
        (fun what ->
          if churn_field row (what ^ "_equal") <> 1.0 then
            fail "churn class %S: the incremental %s diverged from a scratch freeze"
              row what)
        [ "snapshot"; "plan" ])
    (rows_of "churn" "full_wall_s");
  let churn_speedups =
    List.map
      (fun row ->
        let full = churn_field row "full_wall_s"
        and incr = churn_field row "incr_wall_s" in
        let speedup = full /. Float.max 1e-9 incr in
        if speedup < churn_speedup_floor then
          fail
            "churn class %S: incremental re-freeze only %.1fx faster than a \
             full freeze (floor %.0fx) — the incremental path degraded toward \
             a full recompute"
            row speedup churn_speedup_floor;
        speedup)
      [ "link_add"; "link_remove" ]
  in
  (* The forwarding walk's per-hop allocation. *)
  let walk_words =
    match get "micro.forwarding-walk.minor_words_per_hop" with
    | None -> fail "no \"forwarding-walk\" micro row: the walk cost was never measured"
    | Some w when w > walk_words_per_hop_budget ->
      fail
        "forwarding walk allocated %.2f minor words per hop (budget %.1f): the \
         per-hop step allocates again"
        w walk_words_per_hop_budget
    | Some w -> w
  in
  (* Longitudinal accuracy floor: churn across epochs must not erode
     the inferred border map below the recorded floor. *)
  let epochs = rows_of "longitudinal" "links_pct" in
  if epochs = [] then
    fail "no longitudinal epoch rows: the epoch loop never ran";
  List.iter
    (fun e ->
      let f field =
        match get (Printf.sprintf "longitudinal.%s.%s" e field) with
        | Some v -> v
        | None -> fail "longitudinal epoch %s lacks field %S" e field
      in
      if f "links_pct" < f "links_floor" then
        fail
          "longitudinal epoch %s: link accuracy %.2f%% fell below the %.2f%% \
           floor — churn is eroding inference quality"
          e (f "links_pct") (f "links_floor"))
    epochs;
  (* Query-server rows: sustained throughput, sane latency ordering,
     and the steady-state allocation rate the zero-alloc hot loop is
     supposed to hold. *)
  let serve_field row field =
    match get (Printf.sprintf "serve.%s.%s" row field) with
    | Some v -> v
    | None -> fail "serve row %S lacks field %S (did the load run?)" row field
  in
  let serve_qps =
    List.map
      (fun row ->
        if serve_field row "queries" <= 0.0 then
          fail "serve row %S recorded zero queries" row;
        let p50 = serve_field row "rtt_p50_us"
        and p99 = serve_field row "rtt_p99_us" in
        if p50 > p99 then
          fail "serve row %S: rtt p50 %.1fus exceeds p99 %.1fus" row p50 p99;
        let frame_words =
          serve_field row "minor_words_per_query" *. serve_field row "batch"
        in
        if frame_words > serve_frame_words_budget then
          fail
            "serve row %S allocates %.1f minor words/frame (budget %.0f): the \
             query hot loop is no longer allocation-free"
            row frame_words serve_frame_words_budget;
        serve_field row "qps")
      [ "owner-batch512"; "owner-batch1" ]
  in
  (match serve_qps with
  | batched :: _ when batched < serve_qps_floor ->
    fail "serve owner-batch512 sustained %.0f qps, below the %.0f floor" batched
      serve_qps_floor
  | _ -> ());
  Printf.printf
    "check_bench: ok (%d builds / %d sweeps, %d attaches / %d VP computes, warm \
     sweep within %d major-word budget, %d corpus scenarios above their floors, \
     serve at %s qps, single-link churn re-freeze %s faster, forwarding walk at \
     %.2f words/hop, %d longitudinal epochs above the accuracy floor)\n"
    builds (sweeps + crossing) attaches vp_computes warm_sweep_major_budget
    (List.length scenarios)
    (match serve_qps with
    | batched :: _ -> Printf.sprintf "%.0f" batched
    | [] -> "?")
    (match churn_speedups with
    | s :: _ -> Printf.sprintf "%.0fx" s
    | [] -> "?")
    walk_words (List.length epochs)
