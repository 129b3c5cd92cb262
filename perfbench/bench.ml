(* perfbench: the repository benchmark. One run of one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--domains D]

   prints informational "# ..." lines, then one JSON object on the last
   line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer
   ones. See README.md for what each workload measures and why. *)

let workloads =
  [ ("map-build", Map_build.run);
    ("churn-epochs", Churn_epochs.run);
    ("serve-owner", Serve_owner.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let domains = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (1) or end-to-end (0) metrics");
      ("--domains", Arg.Set_int domains, "D CPUs the run may use (default: all)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--domains D]";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some run ->
    let trace = !trace = 1 in
    run { Common.seed = !seed; seconds = !seconds; trace; domains = max 1 !domains };
    (* The spans of a traced run, for reading its layers in detail. *)
    if trace then begin
      Common.ensure_dir ".bench_build";
      Tracer.write
        (Filename.concat ".bench_build"
           (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed))
    end
