(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one sub-command per table; no argument runs everything) and
   runs Bechamel micro-benchmarks of the hot primitives.

   Simulator experiments run concurrently on OCaml 5 domains: the job
   count comes from -j N / --jobs N, else the machine's recommended domain
   count. Each experiment computes against a private telemetry sink and
   returns a printer; printing happens sequentially in command-line order
   afterwards, so stdout is byte-identical at any job count (timing lines
   go to stderr). The micro benchmark, the scale sweep and the twin
   overhead cell measure time or memory process-wide, so each runs
   serially, with the domain pool shut down, at its position in the
   target list.

   Tables 1-5 and the drills chaos, exit-drill and twin-audit are
   Experiments.table values, which one path below runs, prints and
   judges; the crash drill keeps its own rows and printer, and is judged
   the same way. After the results file is written, each verdict that
   failed is named on stderr as "verdict failed: <experiment>: <verdict>"
   and the process exits 1. An unknown experiment name, or an --out that
   names no directory, exits 2 before anything runs.

   Files: none, unless --out DIR is given. Then DIR receives
   BENCH_results.json (wall, CPU, RSS and GC per experiment, and the micro
   ns/run), <experiment>.metrics.json (one telemetry snapshot per
   experiment), observe.json and report.md (the observe run's growth
   series, which CI's growth gate compares with OBSERVE_baseline.json, and
   its run report), sweep.json, twin.json, and crash-drill/ (the crash
   drill's durable directories, kept for inspection).

   Environment: AMMBOOST_BENCH_SCALE=<n> divides the daily traffic volumes
   by n for quicker runs (1 = the paper's full volumes; observe, the
   scale sweep and the twin overhead cell use fixed volumes);
   AMMBOOST_SWEEP_USERS=<n,n,...> sets the scale sweep's user counts
   (default 100,1000,10000);
   AMMBOOST_TWIN_USERS=<n> sets the twin overhead cell's (default 1000);
   AMMBOOST_MICRO_QUOTA=<seconds> shrinks the micro benchmark's per-test
   sampling budget (default 0.5; CI's perf-guard runs at a reduced quota
   so the job stays fast). Unset or empty, a variable keeps its default;
   set to a value that does not parse or lies outside its range (n >= 1,
   positive counts, seconds > 0), it exits 2 before anything runs. *)

module E = Ammboost.Experiments
module Json = Telemetry.Json

(* Each variable is read once, at start-up, so a bad value stops the
   bench before any experiment runs: a typo must not measure a different
   cell and exit 0. *)
let env name ~default ~want parse =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s ->
    (match parse (String.trim s) with
    | Some v -> v
    | None ->
      Printf.eprintf "invalid %s=%S (want %s)\n" name s want;
      exit 2)

let positive_int s =
  match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None

let number_where ok s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && ok x -> Some x
  | _ -> None

let scale =
  env "AMMBOOST_BENCH_SCALE" ~default:1.0 ~want:"a number >= 1"
    (number_where (fun n -> n >= 1.0))

(* Ascending: the sweep's peak-RSS column is a process-wide high-water
   mark. *)
let sweep_users =
  env "AMMBOOST_SWEEP_USERS" ~default:[ 100; 1_000; 10_000 ]
    ~want:"comma-separated positive integers" (fun s ->
      let ns = List.map (fun p -> positive_int (String.trim p)) (String.split_on_char ',' s) in
      if List.mem None ns then None
      else Some (List.sort_uniq compare (List.filter_map Fun.id ns)))

let twin_users =
  env "AMMBOOST_TWIN_USERS" ~default:1_000 ~want:"a positive integer" positive_int

let micro_quota =
  env "AMMBOOST_MICRO_QUOTA" ~default:0.5 ~want:"a positive number of seconds"
    (number_where (fun q -> q > 0.0))

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

let run_micro () =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second micro_quota) ~kde:None ()
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
(* Output files                                                        *)
(* ------------------------------------------------------------------ *)

(* The --out directory, set before anything runs. Without one the bench
   writes no file. *)
let out_dir = ref None

let write_out name text =
  Option.iter
    (fun dir ->
      let path = Filename.concat dir name in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Printf.eprintf "  [%s written]\n%!" path)
    !out_dir

(* ------------------------------------------------------------------ *)
(* Experiment dispatch                                                 *)
(* ------------------------------------------------------------------ *)

(* Each experiment is compute/print split: [compute sink] performs the
   runs (this part fans out over domains) and returns a printer closure
   over the finished rows. *)

(* (experiment, verdict) for every failed drill verdict. Only printers
   append, and printers run one at a time. *)
let failures = ref []

let judge name verdicts runs =
  failures := !failures @ List.map (fun v -> (name, v)) (E.failed verdicts runs)

let compute_table name (t : E.table) sink =
  let rows, runs = E.run_table ~sink t in
  fun () ->
    E.print_perf_table t rows;
    judge name t.E.verdicts runs

let compute_table6 sink =
  let t = E.table6_gas_itemized ~sink ~scale () in
  fun () -> E.print_table6 t

let compute_table7 _sink =
  let t = E.table7_storage () in
  fun () -> E.print_table7 t

let compute_table8 _sink =
  let rows = E.table8_stats ~scale in
  fun () -> E.print_table8 rows

let compute_fig6 sink =
  let f = E.fig6_overall ~sink ~scale () in
  fun () -> E.print_fig6 f

let compute_ablations sink =
  let ablations = E.ablations ~sink ~scale () in
  fun () -> E.print_ablations ablations

let compute_crash_drill sink =
  let d = E.crash_drill ~scale in
  let root = Option.map (fun dir -> Filename.concat dir "crash-drill") !out_dir in
  let rows = E.run_crash_drill ~sink ?root d in
  fun () ->
    E.print_crash_drill rows;
    judge "crash-drill" d.E.cd_verdicts rows

let compute_observe sink =
  let o = E.observe ~sink () in
  fun () ->
    E.print_observe o;
    write_out "observe.json" o.E.obs_series_json;
    write_out "report.md" o.E.obs_report

let compute_twin_overhead sink =
  let o = E.twin_overhead ~sink ~users:twin_users () in
  fun () ->
    E.print_twin_overhead o;
    write_out "twin.json" (E.twin_overhead_json o ^ "\n")

let compute_scale_sweep sink =
  let rows = E.scale_sweep ~sink ~users:sweep_users () in
  fun () ->
    E.print_scale_sweep rows;
    write_out "sweep.json" (E.sweep_json rows ^ "\n")

(* Every micro run's rows, for the results file. *)
let micro_rows = ref []

let compute_micro _sink =
  let rows = run_micro () in
  micro_rows := !micro_rows @ rows;
  fun () -> print_micro rows

type experiment =
  | Sim of (Telemetry.Report.sink -> unit -> unit)
  | Serial of (Telemetry.Report.sink -> unit -> unit)
      (** measures wall time or peak RSS, which a concurrent experiment
          would skew *)

let table name make = (name, Sim (compute_table name (make ~scale)))

(* The default target list. "scale-sweep" is opt-in only (see
   [extra_experiments]): its 10k-user cell is far heavier than any
   table and its measurements want an otherwise quiet process. *)
let all_experiments =
  [ table "table1" E.table1; table "table2" E.table2; table "table3" E.table3;
    table "table4" E.table4; table "table5" E.table5;
    ("table6", Sim compute_table6); ("table7", Sim compute_table7);
    ("table8", Sim compute_table8); ("fig6", Sim compute_fig6);
    ("ablations", Sim compute_ablations);
    table "chaos" E.chaos; table "exit-drill" E.exit_drill;
    ("crash-drill", Sim compute_crash_drill); table "twin-audit" E.twin_audit;
    ("twin-overhead", Serial compute_twin_overhead);
    ("observe", Sim compute_observe); ("micro", Serial compute_micro) ]

let extra_experiments = [ ("scale-sweep", Serial compute_scale_sweep) ]

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
}

(* One metrics registry per experiment: the snapshot aggregates every
   simulator run behind that table. The sink is private to this
   experiment, so concurrent experiments never share one.

   GC counters are per-domain: for parallel-batched experiments they cover
   the driving domain only (workers allocate in their own heaps), which
   still tracks the serial experiments exactly and trends for the rest.
   Peak RSS is process-wide and monotone. *)
let run_measured (name, compute) =
  let sink = Telemetry.Report.sink () in
  let sw = Telemetry.Clock.stopwatch () in
  let g0 = Gc.quick_stat () in
  let print = compute sink in
  let g1 = Gc.quick_stat () in
  { o_name = name; o_print = print; o_sink = sink;
    o_wall = Telemetry.Clock.elapsed_wall sw;
    o_cpu = Telemetry.Clock.elapsed_cpu sw;
    o_rss_kb = E.peak_rss_kb ();
    o_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    o_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words }

let finish outcome =
  outcome.o_print ();
  flush stdout;
  (* Timing depends on load and job count: stderr, so stdout stays
     byte-identical across -j values. *)
  Printf.eprintf
    "  [%s done in %.1fs wall, %.1fs cpu; rss peak %dKB, %.0f major words, %.0f promoted]\n%!"
    outcome.o_name outcome.o_wall outcome.o_cpu outcome.o_rss_kb
    outcome.o_major_words outcome.o_promoted_words;
  Option.iter
    (fun dir ->
      Telemetry.Report.write_metrics outcome.o_sink
        ~path:(Filename.concat dir (outcome.o_name ^ ".metrics.json")))
    !out_dir

(* Simulator experiments between two serial ones execute as one parallel
   batch; printing stays in command-line order. *)
let run_targets targets =
  let rec go acc = function
    | [] -> List.rev acc
    | (name, Serial f) :: rest ->
      (* Even idle pool domains degrade minor-GC pauses; join them so the
         measurement describes this experiment alone. The pool restarts
         lazily if more simulator experiments follow. *)
      Parallel.shutdown ();
      let o = run_measured (name, f) in
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
      let outcomes = Parallel.map_list run_measured sims in
      List.iter finish outcomes;
      go (List.rev_append outcomes acc) rest
  in
  go [] targets

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

let write_results ~jobs outcomes =
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
        ("scale", Json.float scale);
        ("jobs", string_of_int jobs);
        ("experiments", experiments);
        ("micro_ns", ns_obj !micro_rows) ]
  in
  write_out "BENCH_results.json" (doc ^ "\n")

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N | --jobs N] [--out DIR] [experiment ...]\navailable experiments: %s\n"
    (String.concat ", " (List.map fst (all_experiments @ extra_experiments)));
  exit 2

let parse_jobs s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ ->
    Printf.eprintf "invalid job count %S (want a positive integer)\n" s;
    exit 2

let parse_argv argv =
  let rec go jobs out targets = function
    | [] -> (jobs, out, List.rev targets)
    | ("-j" | "--jobs") :: n :: rest -> go (Some (parse_jobs n)) out targets rest
    | [ "-j" ] | [ "--jobs" ] ->
      Printf.eprintf "missing job count after -j\n";
      exit 2
    | "--out" :: dir :: rest when dir <> "" -> go jobs (Some dir) targets rest
    | "--out" :: _ ->
      Printf.eprintf "missing directory after --out\n";
      exit 2
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      go (Some (parse_jobs (String.sub arg 7 (String.length arg - 7)))) out targets rest
    | arg :: rest
      when String.length arg > 2 && String.sub arg 0 2 = "-j"
           && int_of_string_opt (String.sub arg 2 (String.length arg - 2)) <> None ->
      go (Some (parse_jobs (String.sub arg 2 (String.length arg - 2)))) out targets rest
    | ("-h" | "--help") :: _ -> usage ()
    | arg :: rest -> go jobs out (arg :: targets) rest
  in
  go None None [] (List.tl (Array.to_list argv))

let () =
  let jobs_flag, out, names = parse_argv Sys.argv in
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
  Option.iter
    (fun dir ->
      Durable.Fsio.mkdir_p dir;
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "--out %S is not a directory\n" dir;
        exit 2
      end)
    out;
  out_dir := out;
  Printf.printf "ammBoost benchmark harness (volumes = paper volumes / %.0f)\n" scale;
  Printf.eprintf "  [running %d experiment(s) with %d job(s)]\n%!"
    (List.length targets) jobs;
  let outcomes = run_targets targets in
  write_results ~jobs outcomes;
  List.iter (fun (name, v) -> Printf.eprintf "verdict failed: %s: %s\n" name v) !failures;
  if !failures <> [] then exit 1
