(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one sub-command per table; no argument runs everything) and
   runs Bechamel micro-benchmarks of the hot primitives.

   Simulator experiments run concurrently on OCaml 5 domains: the job
   count comes from -j N / --jobs N, else AMMBOOST_BENCH_JOBS, else the
   machine's recommended domain count. Each experiment computes against a
   private telemetry sink and returns a printer; printing happens
   sequentially in command-line order afterwards, so stdout is
   byte-identical at any job count (timing lines go to stderr). The micro
   benchmark is timing-sensitive and always runs serially, at its position
   in the target list.

   The drills (chaos, exit-drill, crash-drill, twin-audit) judge their own
   runs. After the results JSON is written, each verdict that failed is
   named on stderr as "verdict failed: <experiment>: <verdict>" and the
   process exits 1. An unknown experiment name exits 2 before anything
   runs.

   Environment: AMMBOOST_BENCH_SCALE=<n> divides the daily traffic volumes
   by n for quicker runs (1 = the paper's full volumes);
   AMMBOOST_BENCH_JOBS=<n> sets the default domain count;
   AMMBOOST_METRICS_DIR=<dir> writes one telemetry metrics snapshot per
   experiment to <dir>/<name>.metrics.json;
   AMMBOOST_BENCH_RESULTS=<path> sets where the machine-readable results
   JSON lands (default ./BENCH_results.json);
   AMMBOOST_OBSERVE_OUT=<path> makes the "observe" experiment write its
   growth-ledger series JSON there (the CI growth guard diffs that file
   against the checked-in OBSERVE_baseline.json — the observe run uses a
   fixed configuration, so the output ignores AMMBOOST_BENCH_SCALE);
   AMMBOOST_REPORT_OUT=<path> makes it write the markdown run-report. *)

module E = Ammboost.Experiments
module Json = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Report order = declaration order below. Bechamel hands results back in
   a Hashtbl whose iteration order is unspecified, so the report walks
   this static list instead. *)
let micro_names =
  [ "u256 mul_div"; "u256 sqrt"; "tick->sqrt ratio"; "sqrt ratio->tick";
    "keccak256 (1KiB)"; "sha256 (1KiB)"; "rng float"; "rng split+float";
    "bls sign"; "bls verify";
    "threshold sign 11-of-16"; "pool swap (exact in)" ]
  |> List.map (fun n -> "ammboost/" ^ n)

let micro_tests () =
  let open Bechamel in
  let open Amm_math in
  let a = U256.of_string "123456789123456789123456789123456789123456789" in
  let b = U256.of_string "987654321987654321987654321987654321" in
  let c = U256.of_string "55555555555555555555555555" in
  let t_muldiv =
    Test.make ~name:"u256 mul_div" (Staged.stage (fun () -> U256.mul_div a b c))
  in
  let t_sqrt = Test.make ~name:"u256 sqrt" (Staged.stage (fun () -> U256.sqrt a)) in
  let t_tick =
    Test.make ~name:"tick->sqrt ratio"
      (Staged.stage (fun () -> Tick_math.get_sqrt_ratio_at_tick 123456))
  in
  let t_tick_inv =
    let ratio = Tick_math.get_sqrt_ratio_at_tick 123456 in
    Test.make ~name:"sqrt ratio->tick"
      (Staged.stage (fun () -> Tick_math.get_tick_at_sqrt_ratio ratio))
  in
  let payload = Bytes.make 1024 'x' in
  let t_keccak =
    Test.make ~name:"keccak256 (1KiB)"
      (Staged.stage (fun () -> Amm_crypto.Keccak256.digest payload))
  in
  let t_sha =
    Test.make ~name:"sha256 (1KiB)"
      (Staged.stage (fun () -> Amm_crypto.Sha256.digest payload))
  in
  (* A network-delay draw, and a fault decision: a split on its key, then
     one draw. *)
  let draws = Amm_crypto.Rng.create "bench-draws" in
  let t_rng_float =
    Test.make ~name:"rng float"
      (Staged.stage (fun () -> Amm_crypto.Rng.float draws))
  in
  let t_rng_split =
    Test.make ~name:"rng split+float"
      (Staged.stage (fun () ->
           Amm_crypto.Rng.float (Amm_crypto.Rng.split draws "cs.crash/12/345")))
  in
  let rng = Amm_crypto.Rng.create "bench" in
  let sk, pk = Amm_crypto.Bls.keygen rng in
  let msg = Bytes.of_string "sync payload digest" in
  let sigma = Amm_crypto.Bls.sign sk msg in
  let t_sign =
    Test.make ~name:"bls sign" (Staged.stage (fun () -> Amm_crypto.Bls.sign sk msg))
  in
  let t_verify =
    Test.make ~name:"bls verify"
      (Staged.stage (fun () -> Amm_crypto.Bls.verify pk msg sigma))
  in
  let _vk, _, shares = Amm_crypto.Bls.dkg rng ~n:16 ~threshold:11 in
  let t_threshold =
    Test.make ~name:"threshold sign 11-of-16"
      (Staged.stage (fun () ->
           let partials = List.map (fun s -> Amm_crypto.Bls.partial_sign s msg) shares in
           Amm_crypto.Bls.combine ~threshold:11 partials))
  in
  (* A pool primed for swap benchmarks. *)
  let pool =
    Uniswap.Pool.create ~pool_id:0
      ~token0:(Chain.Token.make ~id:0 ~symbol:"TKA")
      ~token1:(Chain.Token.make ~id:1 ~symbol:"TKB")
      ~fee_pips:3000 ~tick_spacing:60 ~sqrt_price:Q96.q96
  in
  let owner = Chain.Address.of_label "bench-lp" in
  (match
     Uniswap.Router.mint pool
       ~position_id:(Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "b"))
       ~owner ~lower_tick:(-887220) ~upper_tick:887220
       ~amount0_desired:(U256.of_string "1000000000000000000000000")
       ~amount1_desired:(U256.of_string "1000000000000000000000000")
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let amount = U256.of_string "1000000000000000000" in
  let flip = ref true in
  let t_swap =
    (* Alternate directions so the price random-walks around par instead of
       drifting out of range over thousands of samples. *)
    Test.make ~name:"pool swap (exact in)"
      (Staged.stage (fun () ->
           flip := not !flip;
           Uniswap.Router.exact_input pool ~zero_for_one:!flip ~amount_in:amount
             ~min_amount_out:U256.zero ()))
  in
  Test.make_grouped ~name:"ammboost" ~fmt:"%s/%s"
    [ t_muldiv; t_sqrt; t_tick; t_tick_inv; t_keccak; t_sha; t_rng_float;
      t_rng_split; t_sign; t_verify; t_threshold; t_swap ]

(* AMMBOOST_MICRO_QUOTA=<seconds> shrinks the per-test sampling budget —
   CI's perf-guard runs at a reduced quota so the job stays fast. *)
let micro_quota () =
  match Sys.getenv_opt "AMMBOOST_MICRO_QUOTA" with
  | Some s ->
    (match float_of_string_opt s with
    | Some q when q > 0.0 -> q
    | _ ->
      Printf.eprintf "ignoring invalid AMMBOOST_MICRO_QUOTA=%S\n%!" s;
      0.5)
  | None -> 0.5

let run_micro () =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (micro_quota ())) ~kde:None ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  List.map
    (fun name ->
      let ns =
        match Hashtbl.find_opt results name with
        | None -> None
        | Some r ->
          (match Analyze.OLS.estimates r with
          | Some (t :: _) -> Some t
          | Some [] | None -> None)
      in
      (name, ns))
    micro_names

let print_micro rows =
  Printf.printf "\n=== Micro-benchmarks (Bechamel; ns/run via OLS) ===\n";
  List.iter
    (fun (name, ns) ->
      match ns with
      | Some t -> Printf.printf "  %-32s %12.1f ns/run\n" name t
      | None -> Printf.printf "  %-32s (no estimate)\n" name)
    rows

(* ------------------------------------------------------------------ *)
(* Experiment dispatch                                                 *)
(* ------------------------------------------------------------------ *)

(* Each simulator experiment is compute/print split: [compute sink]
   performs the runs (this part fans out over domains) and returns a
   printer closure over the finished rows. *)

let compute_table1 sink =
  let rows = E.table1_scalability ~sink () in
  fun () ->
    E.print_perf_table ~title:"Table 1: scalability of ammBoost"
      ~col_header:"Daily volume" rows

let compute_table2 sink =
  let rows = E.table2_block_size ~sink () in
  fun () ->
    E.print_perf_table ~title:"Table 2: impact of sidechain block size (V_D = 50M)"
      ~col_header:"Block size" rows

let compute_table3 sink =
  let rows = E.table3_round_duration ~sink () in
  fun () ->
    E.print_perf_table ~title:"Table 3: impact of sidechain round duration (V_D = 25M)"
      ~col_header:"Round duration" rows

let compute_table4 sink =
  let rows = E.table4_epoch_length ~sink () in
  fun () ->
    E.print_perf_table ~title:"Table 4: impact of epoch length (V_D = 25M)"
      ~col_header:"Epoch (sc rounds)" rows

let compute_table5 sink =
  let rows = E.table5_distribution ~sink () in
  fun () ->
    E.print_perf_table ~title:"Table 5: impact of traffic distribution (V_D = 25M)"
      ~col_header:"(swap,mint,burn,collect)" rows

let compute_table6 sink =
  let t = E.table6_gas_itemized ~sink () in
  fun () -> E.print_table6 t

let compute_table7 _sink =
  let t = E.table7_storage () in
  fun () -> E.print_table7 t

let compute_fig6 sink =
  let f = E.fig6_overall ~sink () in
  fun () -> E.print_fig6 f

let compute_table8 _sink =
  let rows = E.table8_stats () in
  fun () -> E.print_table8 rows

(* (experiment, verdict) for every failed drill verdict. Only printers
   append, and printers run one at a time. *)
let failures = ref []

let judge name verdicts runs =
  failures := !failures @ List.map (fun v -> (name, v)) (E.failed verdicts runs)

let compute_chaos sink =
  let rows, runs = E.chaos_soak ~sink () in
  fun () ->
    E.print_perf_table
      ~title:"Chaos soak: fault-rate sweep (recovery + twin audit)"
      ~col_header:"Fault intensity" rows;
    judge "chaos" E.chaos_verdicts runs

let compute_exit_drill sink =
  let rows, runs = E.exit_drill ~sink () in
  fun () ->
    E.print_perf_table
      ~title:"Exit drill: stall duration vs exit gas and recovery latency"
      ~col_header:"Liveness failure" rows;
    judge "exit-drill" E.exit_drill_verdicts runs

let compute_crash_drill sink =
  let rows = E.crash_drill ~sink () in
  fun () ->
    E.print_crash_drill rows;
    judge "crash-drill" E.crash_drill_verdicts rows

let compute_ablations sink =
  let ablations = E.ablations ~sink () in
  fun () -> E.print_ablations ablations

let observe_out = Sys.getenv_opt "AMMBOOST_OBSERVE_OUT"
let report_out = Sys.getenv_opt "AMMBOOST_REPORT_OUT"

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let compute_observe sink =
  let o = E.observe ~sink () in
  fun () ->
    E.print_observe o;
    (match observe_out with
    | Some path when path <> "" ->
      write_file path o.E.obs_series_json;
      Printf.eprintf "  [growth series written to %s]\n%!" path
    | _ -> ());
    (match report_out with
    | Some path when path <> "" ->
      write_file path o.E.obs_report;
      Printf.eprintf "  [run report written to %s]\n%!" path
    | _ -> ())

let twin_out = Sys.getenv_opt "AMMBOOST_TWIN_OUT"

let compute_twin_audit sink =
  let rows, runs = E.twin_audit ~sink () in
  let overhead = E.twin_overhead ~sink () in
  fun () ->
    E.print_perf_table
      ~title:"Twin audit: silent corruption vs the differential audit"
      ~col_header:"Corruption cell" rows;
    E.print_twin_overhead overhead;
    judge "twin-audit" E.twin_audit_verdicts runs;
    (match twin_out with
    | Some path when path <> "" ->
      write_file path (E.twin_overhead_json overhead ^ "\n");
      Printf.eprintf "  [twin overhead written to %s]\n%!" path
    | _ -> ())

let sweep_out = Sys.getenv_opt "AMMBOOST_SWEEP_OUT"

let compute_scale_sweep sink =
  let rows = E.scale_sweep ~sink () in
  fun () ->
    E.print_scale_sweep rows;
    (match sweep_out with
    | Some path when path <> "" ->
      write_file path (E.sweep_json rows ^ "\n");
      Printf.eprintf "  [sweep table written to %s]\n%!" path
    | _ -> ())

type experiment =
  | Sim of (Telemetry.Report.sink -> unit -> unit)
  | Micro
  | Sweep  (** serial like [Micro]: its RSS measurement is process-wide *)

(* The default target list. "scale-sweep" is opt-in only (see
   [extra_experiments]): its 10k-user cell is far heavier than any
   table and its measurements want an otherwise quiet process. *)
let all_experiments =
  [ ("table1", Sim compute_table1); ("table2", Sim compute_table2);
    ("table3", Sim compute_table3); ("table4", Sim compute_table4);
    ("table5", Sim compute_table5); ("table6", Sim compute_table6);
    ("table7", Sim compute_table7); ("table8", Sim compute_table8);
    ("fig6", Sim compute_fig6); ("ablations", Sim compute_ablations);
    ("chaos", Sim compute_chaos); ("exit-drill", Sim compute_exit_drill);
    ("crash-drill", Sim compute_crash_drill);
    ("twin-audit", Sim compute_twin_audit);
    ("observe", Sim compute_observe); ("micro", Micro) ]

let extra_experiments = [ ("scale-sweep", Sweep) ]

let metrics_dir = Sys.getenv_opt "AMMBOOST_METRICS_DIR"

(* ------------------------------------------------------------------ *)
(* Orchestration                                                       *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_name : string;
  o_print : unit -> unit;
  o_sink : Telemetry.Report.sink;
  o_wall : float;
  o_cpu : float;
  o_rss_kb : int;          (* process peak RSS when the experiment ended *)
  o_major_words : float;   (* GC major words allocated, driving domain *)
  o_promoted_words : float;
  o_micro : (string * float option) list;  (* non-empty only for micro *)
}

(* GC counters are per-domain: for parallel-batched experiments they cover
   the driving domain only (workers allocate in their own heaps), which
   still tracks the serial experiments exactly and trends for the rest.
   Peak RSS is process-wide and monotone. *)
let run_measured name compute =
  let sink = Telemetry.Report.sink () in
  let sw = Telemetry.Clock.stopwatch () in
  let g0 = Gc.quick_stat () in
  let print, micro = compute sink in
  let g1 = Gc.quick_stat () in
  { o_name = name; o_print = print; o_sink = sink;
    o_wall = Telemetry.Clock.elapsed_wall sw;
    o_cpu = Telemetry.Clock.elapsed_cpu sw;
    o_rss_kb = E.peak_rss_kb ();
    o_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    o_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    o_micro = micro }

let run_sim name compute =
  (* One metrics registry per experiment: the snapshot aggregates every
     simulator run behind that table. The sink is private to this
     experiment, so concurrent experiments never share one. *)
  run_measured name (fun sink -> (compute sink, []))

let run_micro_outcome () =
  (* Even idle pool domains degrade minor-GC pauses; join them so the
     micro numbers measure the primitive, not the pool. The pool restarts
     lazily if more simulator experiments follow. *)
  Parallel.shutdown ();
  run_measured "micro" (fun _sink ->
      let rows = run_micro () in
      ((fun () -> print_micro rows), rows))

let run_sweep_outcome () =
  (* Like micro: serial, with the domain pool quiesced, so the sweep's
     peak-RSS and GC numbers describe the sweep alone. *)
  Parallel.shutdown ();
  run_measured "scale-sweep" (fun sink -> (compute_scale_sweep sink, []))

let finish outcome =
  outcome.o_print ();
  flush stdout;
  (* Timing depends on load and job count: stderr, so stdout stays
     byte-identical across -j values. *)
  Printf.eprintf
    "  [%s done in %.1fs wall, %.1fs cpu; rss peak %dKB, %.0f major words, %.0f promoted]\n%!"
    outcome.o_name outcome.o_wall outcome.o_cpu outcome.o_rss_kb
    outcome.o_major_words outcome.o_promoted_words;
  match metrics_dir with
  | Some dir ->
    Durable.Fsio.mkdir_p dir;
    Telemetry.Report.write_metrics outcome.o_sink
      ~path:(Filename.concat dir (outcome.o_name ^ ".metrics.json"))
  | None -> ()

(* Simulator experiments between two micro runs execute as one parallel
   batch; printing stays in command-line order. *)
let run_targets targets =
  let rec go acc = function
    | [] -> List.rev acc
    | (_, Micro) :: rest ->
      let o = run_micro_outcome () in
      finish o;
      go (o :: acc) rest
    | (_, Sim _) :: _ as l ->
      let sims, rest =
        let rec split acc = function
          | (name, Sim f) :: tl -> split ((name, f) :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        split [] l
      in
      let outcomes = Parallel.map_list (fun (name, f) -> run_sim name f) sims in
      List.iter finish outcomes;
      go (List.rev_append outcomes acc) rest
    | (_, Sweep) :: rest ->
      let o = run_sweep_outcome () in
      finish o;
      go (o :: acc) rest
  in
  go [] targets

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

let results_path () =
  match Sys.getenv_opt "AMMBOOST_BENCH_RESULTS" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_results.json"

let write_results ~jobs outcomes =
  let micro_rows = List.concat_map (fun o -> o.o_micro) outcomes in
  let ns_obj rows =
    Json.obj
      (List.filter_map
         (fun (name, ns) -> Option.map (fun t -> (name, Json.float t)) ns)
         rows)
  in
  let experiments =
    Json.array
      (List.map
         (fun o ->
           Json.obj_of_fields
             [ ("name", Json.String o.o_name); ("wall_s", Json.Float o.o_wall);
               ("cpu_s", Json.Float o.o_cpu); ("rss_peak_kb", Json.Int o.o_rss_kb);
               ("gc_major_words", Json.Float o.o_major_words);
               ("gc_promoted_words", Json.Float o.o_promoted_words) ])
         outcomes)
  in
  let doc =
    Json.obj
      [ ("schema", Json.string "ammboost-bench/1");
        ("scale", Json.float E.scale);
        ("jobs", string_of_int jobs);
        ("experiments", experiments);
        ("micro_ns", ns_obj micro_rows) ]
  in
  let path = results_path () in
  write_file path (doc ^ "\n");
  Printf.eprintf "  [results written to %s]\n%!" path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N | --jobs N] [experiment ...]\navailable experiments: %s\n"
    (String.concat ", " (List.map fst (all_experiments @ extra_experiments)));
  exit 2

let parse_jobs s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ ->
    Printf.eprintf "invalid job count %S (want a positive integer)\n" s;
    exit 2

let parse_argv argv =
  let rec go jobs targets = function
    | [] -> (jobs, List.rev targets)
    | ("-j" | "--jobs") :: n :: rest -> go (Some (parse_jobs n)) targets rest
    | [ "-j" ] | [ "--jobs" ] ->
      Printf.eprintf "missing job count after -j\n";
      exit 2
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      go (Some (parse_jobs (String.sub arg 7 (String.length arg - 7)))) targets rest
    | arg :: rest
      when String.length arg > 2 && String.sub arg 0 2 = "-j"
           && int_of_string_opt (String.sub arg 2 (String.length arg - 2)) <> None ->
      go (Some (parse_jobs (String.sub arg 2 (String.length arg - 2)))) targets rest
    | ("-h" | "--help") :: _ -> usage ()
    | arg :: rest -> go jobs (arg :: targets) rest
  in
  go None [] (List.tl (Array.to_list argv))

let () =
  let jobs_flag, names = parse_argv Sys.argv in
  (match jobs_flag with Some n -> Parallel.set_default_domains n | None -> ());
  let jobs = Parallel.default_domains () in
  let names = if names = [] then List.map fst all_experiments else names in
  let known = all_experiments @ extra_experiments in
  let targets =
    List.map
      (fun name ->
        match List.assoc_opt name known with
        | Some kind -> (name, kind)
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst known));
          exit 2)
      names
  in
  Printf.printf "ammBoost benchmark harness (volumes = paper volumes / %.0f)\n" E.scale;
  Printf.eprintf "  [running %d experiment(s) with %d job(s)]\n%!"
    (List.length targets) jobs;
  let outcomes = run_targets targets in
  write_results ~jobs outcomes;
  List.iter (fun (name, v) -> Printf.eprintf "verdict failed: %s: %s\n" name v) !failures;
  if !failures <> [] then exit 1
