(* ammboost-sim: command-line driver for the ammBoost simulator.

     dune exec bin/ammboost_sim.exe -- run --volume 500000 --epochs 11
     dune exec bin/ammboost_sim.exe -- baseline --volume 500000
     dune exec bin/ammboost_sim.exe -- compare --volume 500000
     dune exec bin/ammboost_sim.exe -- run --interrupt silent:1 --interrupt rollback:2
     dune exec bin/ammboost_sim.exe -- gate growth OBSERVE_baseline.json fresh.json *)

open Cmdliner
open Ammboost

(* ------------------------------------------------------------------ *)
(* Shared flags                                                        *)
(* ------------------------------------------------------------------ *)

(* [conv] restricted to the values [ok] accepts; any other is rejected
   with "expected <what>" (exit 124), like a malformed --interrupt. *)
let checked conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg ("expected " ^ what))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_from n = checked Arg.int ~what:(Printf.sprintf "an integer >= %d" n) (fun v -> v >= n)

let volume =
  Arg.(value & opt (int_from 0) Config.default.Config.daily_volume
       & info [ "volume"; "v" ] ~docv:"TX_PER_DAY" ~doc:"Daily transaction volume V_D.")

let epochs =
  Arg.(value & opt (int_from 1) Config.default.Config.epochs
       & info [ "epochs"; "e" ] ~docv:"N" ~doc:"Traffic-generation epochs.")

let rounds =
  Arg.(value & opt (int_from 2) Config.default.Config.sc_rounds_per_epoch
       & info [ "rounds" ] ~docv:"N" ~doc:"Sidechain rounds per epoch.")

let round_duration =
  let finite_positive d = d > 0.0 && Float.is_finite d in
  Arg.(value & opt (checked float ~what:"a finite number > 0" finite_positive)
                 Config.default.Config.sc_round_duration
       & info [ "round-duration" ] ~docv:"SECONDS" ~doc:"Sidechain round duration.")

let block_size =
  Arg.(value & opt (int_from 1) Config.default.Config.meta_block_bytes
       & info [ "block-size" ] ~docv:"BYTES" ~doc:"Meta-block size limit.")

let users =
  Arg.(value & opt (int_from 1) Config.default.Config.users
       & info [ "users" ] ~docv:"N" ~doc:"Participating users.")

let committee =
  Arg.(value & opt (int_from 1) Config.default.Config.committee_size
       & info [ "committee" ] ~docv:"N" ~doc:"Sidechain committee size.")

let seed =
  Arg.(value & opt string Config.default.Config.seed
       & info [ "seed" ] ~docv:"STRING" ~doc:"Deterministic experiment seed.")

let threshold_signing =
  Arg.(value & flag
       & info [ "threshold-signing" ]
           ~doc:"Run the full DKG + threshold BLS signing for Sync calls instead of the \
                 pre-generated committee key.")

let interrupt_conv =
  let module F = Faults.Fault_plan in
  let parse s =
    let interruption kind epoch =
      match kind with
      | "silent" -> Some (F.Silent_leader epoch)
      | "invalid" -> Some (F.Invalid_sync epoch)
      | "rollback" -> Some (F.Rollback epoch)
      | "censor" -> Some (F.Censoring epoch)
      | _ -> None
    in
    let parsed =
      match String.split_on_char ':' s with
      | [ kind; e ] -> (
        match int_of_string_opt e with
        | Some epoch when epoch >= 0 -> interruption kind epoch
        | Some _ | None -> None)
      | _ -> None
    in
    Option.to_result parsed
      ~none:
        (`Msg
          "expected silent:<epoch>, invalid:<epoch>, rollback:<epoch> or censor:<epoch>")
  in
  let print fmt = function
    | F.Silent_leader e -> Format.fprintf fmt "silent:%d" e
    | F.Invalid_sync e -> Format.fprintf fmt "invalid:%d" e
    | F.Rollback e -> Format.fprintf fmt "rollback:%d" e
    | F.Censoring e -> Format.fprintf fmt "censor:%d" e
  in
  Arg.conv (parse, print)

let interruptions =
  Arg.(value & opt_all interrupt_conv []
       & info [ "interrupt" ] ~docv:"KIND:EPOCH"
           ~doc:"Inject an interruption: silent:<epoch>, invalid:<epoch>, rollback:<epoch> \
                 or censor:<epoch>. Repeatable.")

let make_config volume epochs rounds round_duration block_size users committee seed
    threshold_signing interruptions =
  { Config.default with
    daily_volume = volume; epochs; sc_rounds_per_epoch = rounds;
    sc_round_duration = round_duration; meta_block_bytes = block_size; users;
    committee_size = committee;
    miners = Stdlib.max Config.default.Config.miners (2 * committee);
    max_faulty = (committee - 2) / 3;
    seed; threshold_signing;
    faults = { Config.default.Config.faults with Faults.Fault_plan.interruptions } }

let config_term =
  Term.(const make_config $ volume $ epochs $ rounds $ round_duration $ block_size $ users
        $ committee $ seed $ threshold_signing $ interruptions)

(* ------------------------------------------------------------------ *)
(* Telemetry flags                                                     *)
(* ------------------------------------------------------------------ *)

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the run's simulated-clock phase \
                 spans to $(docv); open it in chrome://tracing or ui.perfetto.dev.")

let metrics_out =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the run's metrics snapshot (counters, gauges, histograms with \
                 p50/p90/p99) as JSON to $(docv).")

let log_level =
  let levels =
    [ ("error", Telemetry.Log.Error); ("warn", Telemetry.Log.Warn);
      ("info", Telemetry.Log.Info); ("debug", Telemetry.Log.Debug) ]
  in
  Arg.(value & opt (some (enum levels)) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Emit structured JSON-line logs on stderr at LEVEL \
                 (error|warn|info|debug). Overrides AMMBOOST_LOG; off by default.")

let report_out =
  Arg.(value & opt (some string) None
       & info [ "report-out" ] ~docv:"FILE"
           ~doc:"Write a self-contained markdown run-report (growth curves with \
                 sparklines and the Baseline counterfactual, per-class lifecycle \
                 latency and bytes-amplification tables, event timeline) to $(docv).")

let telemetry_term =
  let make trace_out metrics_out log_level = (trace_out, metrics_out, log_level) in
  Term.(const make $ trace_out $ metrics_out $ log_level)

(* Runs [f] (told whether to trace) into a fresh sink, then writes
   whichever outputs were requested. [f] absorbs the run's own sink into
   it. Without flags this adds nothing to stdout or disk. *)
let with_telemetry (trace_out, metrics_out, log_level) f =
  (match log_level with
  | Some _ as l -> Telemetry.Log.set_level l
  | None -> ());
  let trace = trace_out <> None in
  let sink = Telemetry.Report.sink ~trace () in
  let result = f ~trace sink in
  let write g =
    try g ()
    with Sys_error e ->
      Printf.eprintf "ammboost-sim: cannot write telemetry output: %s\n" e;
      exit 1
  in
  (match metrics_out with
  | Some path -> write (fun () -> Telemetry.Report.write_metrics sink ~path)
  | None -> ());
  (match trace_out with
  | Some path -> write (fun () -> Telemetry.Report.write_trace sink ~path)
  | None -> ());
  result

let write_text path text =
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
  with Sys_error e ->
    Printf.eprintf "ammboost-sim: cannot write report: %s\n" e;
    exit 1

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let report_run (r : System.result) =
  Printf.printf "== ammBoost run ==\n";
  Printf.printf "traffic      : generated %d, processed %d, rejected %d\n" r.System.generated
    r.System.processed r.System.rejected;
  Printf.printf "throughput   : %.2f tx/s\n" r.System.throughput;
  Printf.printf "latency      : sidechain %.3f s, payout %.2f s\n" r.System.mean_tx_latency
    r.System.mean_payout_latency;
  Printf.printf "mainchain    : %d B, %d gas (%s)\n" r.System.mc_tx_bytes r.System.mc_gas_total
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v)
          (List.sort compare r.System.mc_gas_by_label)));
  Printf.printf "sidechain    : %d B cumulative, %d B stored after pruning\n"
    r.System.sc_cumulative_bytes r.System.sc_stored_bytes;
  Printf.printf "epochs       : %d run, %d synced, %d mass-syncs\n" r.System.epochs_run
    r.System.epochs_applied r.System.mass_syncs;
  List.iter (fun (k, n) -> Printf.printf "rejection    : %-28s %d\n" k n)
    r.System.rejection_reasons;
  Printf.printf "mode         : %s (%d audits%s)\n" r.System.final_mode
    r.System.monitor_audits
    (if r.System.mode_transitions = [] then ""
     else
       ", "
       ^ String.concat " -> "
           (List.map (fun (ts, m) -> Printf.sprintf "%s@%.0fs" m ts)
              r.System.mode_transitions));
  if r.System.exits_served > 0 then
    Printf.printf "exits        : %d served, conservation %b%s\n" r.System.exits_served
      r.System.exit_conservation
      (match r.System.recovery_latency with
      | Some l -> Printf.sprintf ", recovered in %.0f s" l
      | None -> "");
  Printf.printf "custody ok   : %b\n" r.System.custody_consistent

let report_baseline (b : Baseline.result) =
  Printf.printf "== Baseline Uniswap-on-mainchain run ==\n";
  Printf.printf "traffic      : generated %d, executed %d, rejected %d\n" b.Baseline.generated
    b.Baseline.executed b.Baseline.rejected;
  Printf.printf "gas          : %d total\n" b.Baseline.gas_total;
  List.iter
    (fun (op, gas) ->
      let lat = Option.value ~default:0.0 (List.assoc_opt op b.Baseline.latency_by_op) in
      Printf.printf "  %-8s : %12d gas, latency %.2f s\n" op gas lat)
    (List.sort compare b.Baseline.gas_by_op);
  Printf.printf "growth       : %d B (Sepolia encoding), %d B (Ethereum encoding)\n"
    b.Baseline.mc_tx_bytes b.Baseline.mc_tx_bytes_ethereum

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let doc = "Run the ammBoost system simulation and report its metrics." in
  let run cfg tele report_out =
    with_telemetry tele (fun ~trace sink ->
        let r = System.run ~trace cfg in
        Telemetry.Report.merge_into ~into:sink r.System.telemetry;
        report_run r;
        match report_out with
        | Some path -> write_text path (Experiments.observe_report r)
        | None -> ())
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ config_term $ telemetry_term $ report_out)

let baseline_cmd =
  let doc = "Run the baseline (Uniswap directly on the mainchain)." in
  let run cfg tele =
    with_telemetry tele (fun ~trace:_ _sink -> report_baseline (Baseline.run cfg))
  in
  Cmd.v (Cmd.info "baseline" ~doc) Term.(const run $ config_term $ telemetry_term)

let compare_cmd =
  let doc = "Run both systems on the same traffic and print the reductions (Fig. 6)." in
  let compare cfg tele report_out =
    let r, b =
      with_telemetry tele (fun ~trace sink ->
          let r = System.run ~trace cfg in
          Telemetry.Report.merge_into ~into:sink r.System.telemetry;
          let b = Baseline.run cfg in
          (match report_out with
          | Some path ->
            (* The report plots the measured Baseline series instead of the
               ledger's analytic counterfactual — both runs saw the same
               traffic, so the comparison is apples to apples. *)
            write_text path
              (Experiments.observe_report
                 ~counterfactual:
                   ("baseline.measured.bytes", b.Baseline.growth_epochs)
                 r)
          | None -> ());
          (r, b))
    in
    report_run r;
    print_newline ();
    report_baseline b;
    let reduction ours theirs =
      100.0 *. (1.0 -. (float_of_int ours /. float_of_int (Stdlib.max 1 theirs)))
    in
    Printf.printf "\n== Comparison ==\n";
    Printf.printf "gas reduction    : %.2f%% (paper: 94.53%%)\n"
      (reduction r.System.mc_gas_total b.Baseline.gas_total);
    Printf.printf "growth reduction : %.2f%% vs Sepolia (paper: 80.25%%), %.2f%% vs Ethereum \
                   (paper: 92.80%%)\n"
      (reduction r.System.mc_tx_bytes b.Baseline.mc_tx_bytes)
      (reduction r.System.mc_tx_bytes b.Baseline.mc_tx_bytes_ethereum)
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const compare $ config_term $ telemetry_term $ report_out)

(* CI gates over a run's checked-in artifacts. *)
let gate_cmd =
  let file n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  let growth baseline fresh =
    let read path =
      try Ok (In_channel.with_open_bin path In_channel.input_all)
      with Sys_error e -> Error e
    in
    let verdict =
      Result.bind (read baseline) (fun baseline ->
          Result.bind (read fresh) (fun fresh ->
              Observe.Growth_guard.compare_json ~baseline ~fresh ()))
    in
    match verdict with
    | Error e ->
      Printf.eprintf "ammboost-sim: gate growth: %s\n" e;
      exit 1
    | Ok v ->
      List.iter (Printf.printf "violation: %s\n") v.Observe.Growth_guard.violations;
      Printf.printf "%d (epoch, key) pairs checked, %d violations\n" v.checked
        (List.length v.violations);
      if v.checked = 0 || v.violations <> [] then exit 1
  in
  let growth_cmd =
    let doc =
      "Compare a fresh growth-ledger series (ammboost-observe/1 JSON) against a \
       baseline: any per-epoch byte, gas or storage-word value more than 1% above its \
       baseline (64 units for values at or below 64), or any epoch or key missing \
       from the fresh run, is a violation. Exits 1 on a violation, an unreadable \
       file or when no pairs were compared."
    in
    Cmd.v (Cmd.info "growth" ~doc)
      Term.(const growth $ file 0 "BASELINE" $ file 1 "FRESH")
  in
  Cmd.group (Cmd.info "gate" ~doc:"Check a run's artifacts against a baseline.")
    [ growth_cmd ]

let () =
  let doc = "ammBoost: state growth control for AMMs (simulation)" in
  let info = Cmd.info "ammboost-sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; baseline_cmd; compare_cmd; gate_cmd ]))
