(* One harness per table and figure of the paper's evaluation (§6), plus
   the ablations called out in DESIGN.md and the §4.2 recovery drills.
   Each is an [experiment] value: running it yields a printer for its
   stdout section in the paper's shape, the files it writes, and the
   names of its failed verdicts. Absolute numbers are compared against
   the paper in EXPERIMENTS.md. What a run varies (the volume divisor,
   user counts, a drill directory) arrives as an argument: nothing here
   reads the environment. *)

module U256 = Amm_math.U256

(* [scale] divides daily volumes for quick runs; 1.0 reproduces the
   paper's parameters. *)
let scaled ~scale volume = int_of_float (float_of_int volume /. scale)

let base = Config.default

type perf_row = {
  row_label : string;
  throughput : float;
  sc_latency : float;
  payout_latency : float;
  extra : (string * string) list;
}

let row_of_result ~label (r : System.result) ~extra =
  { row_label = label; throughput = r.System.throughput;
    sc_latency = r.System.mean_tx_latency;
    payout_latency = r.System.mean_payout_latency; extra }

(* ------------------------------------------------------------------ *)
(* Tables and their parallel cell runner                               *)
(* ------------------------------------------------------------------ *)

(* One table cell: an independent simulator run. Cells share nothing (each
   [System.run] builds its own world from its config seed and counts into
   a sink of its own), so a table's cells fan out across domains. The
   runs' sinks are absorbed into the caller's sink sequentially, in
   submission order, after the parallel phase — which makes the aggregated
   metrics snapshot (and the row list) identical at any domain count. *)
type cell = {
  cell_label : string;
  cell_cfg : Config.t;
  cell_extra : System.result -> (string * string) list;
}

let cell ?(extra = fun _ -> []) ~label cfg =
  { cell_label = label; cell_cfg = cfg; cell_extra = extra }

(* Runs trace when the caller's sink does. *)
let tracing = function
  | Some s -> Telemetry.Trace.enabled s.Telemetry.Report.trace
  | None -> false

(* Fold a finished run's own sink into the caller's aggregate. Callers
   absorb in submission order, never in completion order. *)
let absorb sink (r : System.result) =
  Option.iter (fun s -> Telemetry.Report.merge_into ~into:s r.System.telemetry) sink

(* [System.run] over [cfgs] across domains, absorbed in list order. *)
let run_all ?sink ?domains cfgs =
  let trace = tracing sink in
  let results = Parallel.map_list ?domains (fun cfg -> System.run ~trace cfg) cfgs in
  List.iter (absorb sink) results;
  results

(* A drill's verdict: a named predicate over its finished runs, in cell
   order. Each drill's verdicts sit in its table, beside its cells. *)
type 'a verdict = string * ('a list -> bool)

let failed verdicts runs =
  List.filter_map (fun (name, holds) -> if holds runs then None else Some name) verdicts

(* A paper table or a drill: what it prints above its rows, the runs
   behind them, and what those runs must satisfy. *)
type table = {
  title : string;
  col_header : string;
  cells : cell list;
  verdicts : System.result verdict list;
}

(* The rows, and the runs behind them for the table's verdicts. *)
let run_table ?sink ?domains t =
  let runs = run_all ?sink ?domains (List.map (fun c -> c.cell_cfg) t.cells) in
  ( List.map2
      (fun c r -> row_of_result ~label:c.cell_label r ~extra:(c.cell_extra r))
      t.cells runs,
    runs )

(* A System.run/Baseline.run pair for the comparison experiments. *)
let run_vs_baseline ?sink cfg =
  let r, b =
    Parallel.run_pair
      (fun () -> System.run ~trace:(tracing sink) cfg)
      (fun () -> Baseline.run cfg)
  in
  absorb sink r;
  (r, b)

let print_perf_table t rows =
  Printf.printf "\n=== %s ===\n" t.title;
  Printf.printf "%-28s" t.col_header;
  List.iter (fun r -> Printf.printf "%14s" r.row_label) rows;
  print_newline ();
  let line name f =
    Printf.printf "%-28s" name;
    List.iter (fun r -> Printf.printf "%14.2f" (f r)) rows;
    print_newline ()
  in
  line "Throughput (tx/s)" (fun r -> r.throughput);
  line "Avg sidechain latency (s)" (fun r -> r.sc_latency);
  line "Avg payout latency (s)" (fun r -> r.payout_latency);
  (match rows with
  | { extra = []; _ } :: _ | [] -> ()
  | first :: _ ->
    List.iter
      (fun (key, _) ->
        Printf.printf "%-28s" key;
        List.iter
          (fun r -> Printf.printf "%14s" (List.assoc key r.extra))
          rows;
        print_newline ())
      first.extra)

(* ------------------------------------------------------------------ *)
(* Experiments: what the bench runs, prints, writes and judges         *)
(* ------------------------------------------------------------------ *)

(* A finished experiment: its stdout section, the files it writes under
   the bench's --out (name, contents), and its failed verdicts. *)
type report = {
  print : unit -> unit;
  files : (string * string) list;
  failed : string list;
}

(* [serial] experiments measure time or RSS process-wide, so the bench
   runs them alone. [out] is the bench's --out directory, if any. *)
type experiment = {
  name : string;
  serial : bool;
  run : sink:Telemetry.Report.sink -> out:string option -> report;
}

let printed print = { print; files = []; failed = [] }

(* An experiment that runs alongside others and reads no directory. *)
let concurrent name run = { name; serial = false; run = (fun ~sink ~out:_ -> run sink) }

let of_table name t =
  concurrent name (fun sink ->
      let rows, runs = run_table ~sink t in
      { print = (fun () -> print_perf_table t rows); files = [];
        failed = failed t.verdicts runs })

(* ------------------------------------------------------------------ *)
(* Table 1: scalability across daily volumes                           *)
(* ------------------------------------------------------------------ *)

let table1_volumes = [ 50_000; 500_000; 5_000_000; 25_000_000 ]

let table1 ~scale =
  { title = "Table 1: scalability of ammBoost";
    col_header = "Daily volume";
    cells =
      List.map
        (fun volume ->
          cell
            ~label:(Printf.sprintf "%dK" (volume / 1000))
            { base with daily_volume = scaled ~scale volume; seed = base.seed ^ "-t1" })
        table1_volumes;
    verdicts = [] }

(* ------------------------------------------------------------------ *)
(* Table 2: impact of meta-block size (V_D = 50M)                      *)
(* ------------------------------------------------------------------ *)

let table2_sizes_mb = [ 0.5; 1.0; 1.5; 2.0 ]

let table2 ~scale =
  { title = "Table 2: impact of sidechain block size (V_D = 50M)";
    col_header = "Block size";
    cells =
      List.map
        (fun mb ->
          cell
            ~label:(Printf.sprintf "%.1fMB" mb)
            { base with
              daily_volume = scaled ~scale 50_000_000;
              meta_block_bytes = int_of_float (mb *. 1_000_000.0);
              seed = base.seed ^ "-t2" })
        table2_sizes_mb;
    verdicts = [] }

(* ------------------------------------------------------------------ *)
(* Table 3: impact of sidechain round duration (V_D = 25M)             *)
(* ------------------------------------------------------------------ *)

let table3_durations = [ 4.0; 6.0; 9.0; 12.0 ]

let table3 ~scale =
  { title = "Table 3: impact of sidechain round duration (V_D = 25M)";
    col_header = "Round duration";
    cells =
      List.map
        (fun b_t ->
          (* The epoch stays 10 mainchain rounds (120 s) as in §6, so longer
             sidechain rounds mean fewer of them per epoch. *)
          cell
            ~label:(Printf.sprintf "%.0fs" b_t)
            { base with
              daily_volume = scaled ~scale 25_000_000;
              sc_round_duration = b_t;
              sc_rounds_per_epoch =
                Stdlib.max 2 (int_of_float (Float.round (120.0 /. b_t)));
              seed = base.seed ^ "-t3" })
        table3_durations;
    verdicts = [] }

(* ------------------------------------------------------------------ *)
(* Table 4: impact of epoch length in sidechain rounds (V_D = 25M)     *)
(* ------------------------------------------------------------------ *)

let table4_epoch_lengths = [ 5; 10; 20; 30; 60; 96 ]

let table4 ~scale =
  { title = "Table 4: impact of epoch length (V_D = 25M)";
    col_header = "Epoch (sc rounds)";
    cells =
      List.map
        (fun rounds ->
          (* Keep total experiment time constant (11 default epochs' worth). *)
          let total_rounds = base.epochs * base.sc_rounds_per_epoch in
          let epochs = Stdlib.max 1 (total_rounds / rounds) in
          cell
            ~label:(string_of_int rounds)
            { base with
              daily_volume = scaled ~scale 25_000_000;
              sc_rounds_per_epoch = rounds;
              epochs;
              seed = base.seed ^ "-t4" })
        table4_epoch_lengths;
    verdicts = [] }

(* ------------------------------------------------------------------ *)
(* Table 5: impact of traffic distribution (V_D = 25M)                 *)
(* ------------------------------------------------------------------ *)

let table5_mixes =
  [ (60., 20., 10., 10.); (60., 10., 20., 10.); (60., 10., 10., 20.);
    (80., 10., 5., 5.); (80., 5., 10., 5.); (80., 5., 5., 10.) ]

let table5 ~scale =
  { title = "Table 5: impact of traffic distribution (V_D = 25M)";
    col_header = "(swap,mint,burn,collect)";
    cells =
      List.map
        (fun (s, m, b, c) ->
          cell
            ~label:(Printf.sprintf "(%.0f,%.0f,%.0f,%.0f)" s m b c)
            ~extra:(fun r ->
              [ ("Max summary block (B)",
                 string_of_int r.System.max_summary_block_bytes) ])
            { base with
              daily_volume = scaled ~scale 25_000_000;
              distribution =
                { Config.swap_pct = s; mint_pct = m; burn_pct = b; collect_pct = c };
              seed = base.seed ^ "-t5" })
        table5_mixes;
    verdicts = [] }

(* ------------------------------------------------------------------ *)
(* Table 6: itemized gas and latency                                   *)
(* ------------------------------------------------------------------ *)

(* The ammBoost run and the Uniswap baseline run execute concurrently
   (they are independent simulations over the same config). *)
let table6 ~scale sink =
  let cfg = { base with daily_volume = scaled ~scale 500_000; seed = base.seed ^ "-t6" } in
  let r, b = run_vs_baseline ~sink cfg in
  let breakdown =
    match r.System.last_sync_receipt with
    | Some receipt -> Mainchain.Gas.breakdown receipt.Tokenbank.Token_bank.gas
    | None -> []
  in
  (* Average over the transactions that actually landed on chain (the
     per-op gas model is constant, so this recovers it exactly). *)
  let per_op gas_by_op =
    List.map
      (fun (label, total) ->
        let op =
          match label with
          | "swap" -> Chain.Encoding.Op_swap
          | "mint" -> Chain.Encoding.Op_mint
          | "burn" -> Chain.Encoding.Op_burn
          | _ -> Chain.Encoding.Op_collect
        in
        let n = Stdlib.max 1 (total / Gas_model.op_gas op) in
        (label, total / n))
      gas_by_op
  in
  let uniswap_gas = per_op b.Baseline.gas_by_op in
  fun () ->
    Printf.printf "\n=== Table 6: itemized gas cost and latency ===\n";
    Printf.printf "ammBoost deposit: %.0f gas, latency %.2f s\n" r.System.deposit_gas_mean
      r.System.deposit_latency_mean;
    Printf.printf
      "ammBoost Sync components: payout %d gas each | storage %d/word | keccak %d+%d/word | ecMul %d | pairing %d\n"
      Mainchain.Gas.payout_transfer Mainchain.Gas.sstore_word Mainchain.Gas.keccak_base
      Mainchain.Gas.keccak_per_word Mainchain.Gas.ec_mul Mainchain.Gas.pairing_check;
    Printf.printf "ammBoost Sync latency: %.2f s; last receipt breakdown:\n"
      r.System.sync_latency_mean;
    List.iter (fun (k, v) -> Printf.printf "    %-22s %10d gas\n" k v) breakdown;
    Printf.printf "Baseline Uniswap per-operation averages:\n";
    List.iter
      (fun (op, gas) ->
        let lat = Option.value ~default:0.0 (List.assoc_opt op b.Baseline.latency_by_op) in
        Printf.printf "    %-8s %10d gas   latency %6.2f s\n" op gas lat)
      (List.sort compare uniswap_gas)

(* ------------------------------------------------------------------ *)
(* Table 7: per-operation storage overhead                             *)
(* ------------------------------------------------------------------ *)

let print_table7 () =
  let uniswap size =
    String.concat " | "
      (List.map
         (fun (name, op) -> Printf.sprintf "%s %d" name (size op))
         [ ("Swap", Chain.Encoding.Op_swap); ("Mint", Chain.Encoding.Op_mint);
           ("Burn", Chain.Encoding.Op_burn); ("Collect", Chain.Encoding.Op_collect) ])
  in
  Printf.printf "\n=== Table 7: operation storage overhead (bytes) ===\n";
  Printf.printf "ammBoost Sync on mainchain : swap entry %d | position entry %d | vk %d | signature %d\n"
    Tokenbank.Sync_payload.abi_user_entry_size Tokenbank.Sync_payload.abi_position_entry_size
    Amm_crypto.Bls.public_key_size Amm_crypto.Bls.signature_size;
  Printf.printf "ammBoost on sidechain      : swap entry %d | position entry %d\n"
    Sidechain.Codec.user_entry_size Sidechain.Codec.position_entry_size;
  Printf.printf "Uniswap on Sepolia         : %s\n" (uniswap Chain.Encoding.sepolia_op_size);
  Printf.printf "Uniswap on Ethereum        : %s\n" (uniswap Chain.Encoding.ethereum_op_size)

(* ------------------------------------------------------------------ *)
(* Figure 6: overall gas and chain-growth comparison                   *)
(* ------------------------------------------------------------------ *)

let fig6 ~scale sink =
  let cfg = { base with daily_volume = scaled ~scale 500_000; seed = base.seed ^ "-fig6" } in
  let r, b = run_vs_baseline ~sink cfg in
  let reduction ours theirs =
    100.0 *. (1.0 -. (float_of_int ours /. float_of_int (Stdlib.max 1 theirs)))
  in
  fun () ->
    Printf.printf "\n=== Figure 6: overall comparison (V_D = 10x Uniswap) ===\n";
    Printf.printf "Total mainchain gas  : ammBoost %12d | Uniswap %12d  -> %.2f%% reduction (paper: 94.53%%)\n"
      r.System.mc_gas_total b.Baseline.gas_total
      (reduction r.System.mc_gas_total b.Baseline.gas_total);
    Printf.printf "Mainchain growth (B) : ammBoost %12d | Uniswap %12d  -> %.2f%% reduction vs Sepolia (paper: 80.25%%)\n"
      r.System.mc_tx_bytes b.Baseline.mc_tx_bytes
      (reduction r.System.mc_tx_bytes b.Baseline.mc_tx_bytes);
    Printf.printf "                      vs production Ethereum %12d -> %.2f%% reduction (paper: 92.80%%)\n"
      b.Baseline.mc_tx_bytes_ethereum
      (reduction r.System.mc_tx_bytes b.Baseline.mc_tx_bytes_ethereum);
    Printf.printf "ammBoost gas by label: %s\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (List.sort compare r.System.mc_gas_by_label)))

(* ------------------------------------------------------------------ *)
(* Table 8: traffic distribution statistics                            *)
(* ------------------------------------------------------------------ *)

let table8 ~scale =
  let cfg =
    { base with daily_volume = scaled ~scale 500_000; epochs = 4; seed = base.seed ^ "-t8" }
  in
  let rng = Amm_crypto.Rng.create cfg.Config.seed in
  let users =
    Party.make_users (Amm_crypto.Rng.split rng "users") ~count:cfg.Config.users
      ~lp_fraction:Config.lp_fraction
  in
  let traffic = Traffic.create ~rng ~cfg ~users in
  let rounds = cfg.Config.epochs * cfg.Config.sc_rounds_per_epoch in
  for round = 0 to rounds - 1 do
    ignore
      (Traffic.generate_round traffic ~round
         ~time:(float_of_int round *. cfg.Config.sc_round_duration))
  done;
  let rows = Traffic.table8_stats traffic in
  fun () ->
    Printf.printf "\n=== Table 8: transaction type breakdown ===\n";
    Printf.printf "%-10s %12s %18s %14s\n" "Type" "% of traffic" "Volume per 24h" "Avg size (B)";
    List.iter
      (fun r ->
        Printf.printf "%-10s %11.2f%% %18.0f %14.2f\n" r.Traffic.ts_name r.Traffic.ts_share_pct
          r.Traffic.ts_daily_volume r.Traffic.ts_avg_size)
      rows

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §6)                                            *)
(* ------------------------------------------------------------------ *)

(* Each ablation's rows are (label, value, unit). *)

(* Sync authentication cost: gas with vs without the threshold-signature
   quorum certificate. *)
let authentication_rows (r : System.result) =
  match r.System.last_sync_receipt with
  | None -> []
  | Some receipt ->
    let items = Mainchain.Gas.breakdown receipt.Tokenbank.Token_bank.gas in
    let total = Mainchain.Gas.total receipt.Tokenbank.Token_bank.gas in
    let auth =
      List.fold_left
        (fun acc (k, v) ->
          if String.length k >= 4 && String.sub k 0 4 = "auth" then acc + v else acc)
        0 items
    in
    [ ("sync gas with QC auth", float_of_int total, "gas");
      ("sync gas without QC auth", float_of_int (total - auth), "gas");
      ("QC auth overhead", 100.0 *. float_of_int auth /. float_of_int total, "%") ]

(* Summary aggregation: the Sync's per-user aggregation vs naively posting
   every processed transaction on the mainchain (batched but
   unsummarized). *)
let aggregation_rows (r : System.result) =
  (* Compare what syncing actually posts against posting every processed
     transaction individually (batched but unsummarized). *)
  let summarized =
    Option.value ~default:0 (List.assoc_opt "sync" r.System.mc_bytes_by_label)
  in
  let naive =
    (* every processed tx posted at its Sepolia size *)
    r.System.swaps * Chain.Encoding.sepolia_op_size Chain.Encoding.Op_swap
    + (r.System.mints * Chain.Encoding.sepolia_op_size Chain.Encoding.Op_mint)
    + (r.System.burns * Chain.Encoding.sepolia_op_size Chain.Encoding.Op_burn)
    + (r.System.collects * Chain.Encoding.sepolia_op_size Chain.Encoding.Op_collect)
  in
  [ ("mainchain bytes, summarized sync", float_of_int summarized, "B");
    ("mainchain bytes, per-tx posting", float_of_int naive, "B");
    ( "summarization saving",
      100.0 *. (1.0 -. (float_of_int summarized /. float_of_int (Stdlib.max 1 naive))),
      "%" ) ]

(* Pruning: sidechain bytes stored with and without meta-block pruning. *)
let pruning_rows (r : System.result) =
  [ ("sidechain bytes without pruning", float_of_int r.System.sc_cumulative_bytes, "B");
    ("sidechain bytes with pruning", float_of_int r.System.sc_stored_bytes, "B");
    ( "pruning saving",
      100.0
      *. (1.0
         -. (float_of_int r.System.sc_stored_bytes
            /. float_of_int (Stdlib.max 1 r.System.sc_cumulative_bytes))),
      "%" ) ]

(* Each ablation is one independent run under its own seed suffix. *)
let ablation_specs =
  [ ("QC authentication cost", "-aba", authentication_rows);
    ("summary aggregation vs per-tx posting", "-abg", aggregation_rows);
    ("meta-block pruning", "-abp", pruning_rows) ]

(* The three runs fan out like table cells and are absorbed into [sink]
   in this order, so the rows and the snapshot are identical at any
   domain count. *)
let ablations ~scale sink =
  let results =
    run_all ~sink
      (List.map
         (fun (_, suffix, _) ->
           { base with
             daily_volume = scaled ~scale 500_000; epochs = 4; seed = base.seed ^ suffix })
         ablation_specs)
  in
  let ablations = List.map2 (fun (title, _, rows) r -> (title, rows r)) ablation_specs results in
  fun () ->
    List.iter
      (fun (title, rows) ->
        Printf.printf "\n=== Ablation: %s ===\n" title;
        List.iter
          (fun (label, value, unit) -> Printf.printf "  %-36s %14.2f %s\n" label value unit)
          rows)
      ablations

(* ------------------------------------------------------------------ *)
(* Chaos soak: fault-rate sweep with recovery + twin-audit report      *)
(* ------------------------------------------------------------------ *)

let chaos_intensities = [ 0.0; 0.05; 0.1; 0.2 ]

let faults_total (r : System.result) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 r.System.faults_injected

let chaos ~scale =
  { title = "Chaos soak: fault-rate sweep (recovery + twin audit)";
    col_header = "Fault intensity";
    cells =
      List.map
        (fun intensity ->
          cell
            ~label:(Printf.sprintf "%d%%" (int_of_float ((intensity *. 100.) +. 0.5)))
            ~extra:(fun r ->
              [ ("Epochs applied",
                 Printf.sprintf "%d/%d" r.System.epochs_applied r.System.epochs_run);
                ("Faults injected", string_of_int (faults_total r));
                ("Mass-syncs", string_of_int r.System.mass_syncs);
                ("Sync retries", string_of_int r.System.sync_retries);
                ("Degraded signings", string_of_int r.System.degraded_signings);
                ("Corrupted partials", string_of_int r.System.corrupted_partials);
                ("Rollbacks", string_of_int r.System.rollbacks);
                ("Twin audit",
                 if r.System.twin_consistent then "pass" else "FAIL") ])
            { base with
              epochs = 4;
              daily_volume = scaled ~scale 50_000;
              users = 12;
              miners = 40;
              committee_size = 13;
              max_faulty = 4;
              threshold_signing = true;
              message_level_consensus = true;
              mc_confirmations = 3;
              faults = Faults.Fault_plan.chaos ~intensity ();
              seed = base.seed ^ "-chaos" })
        chaos_intensities;
    verdicts =
      [ ("twin audit passes", List.for_all (fun r -> r.System.twin_consistent));
        ( "every epoch applied",
          List.for_all (fun r -> r.System.epochs_applied = r.System.epochs_run) );
        ( "no fault at 0 %, some above",
          function
          | clean :: rest ->
            faults_total clean = 0 && List.exists (fun r -> faults_total r > 0) rest
          | [] -> false );
        ( "recovery exercised",
          List.exists (fun r ->
              r.System.mass_syncs + r.System.sync_retries + r.System.degraded_signings
              + r.System.rollbacks
              > 0) ) ] }

(* ------------------------------------------------------------------ *)
(* Exit drill: stall duration vs exit gas cost and recovery latency    *)
(* ------------------------------------------------------------------ *)

(* Three scripted liveness failures against a tightened watchdog
   (Degraded at 2 stalled epochs, Halted at 4): a short starvation the
   system rides out in Degraded, a long one that halts it and is then
   reconciled, and a permanent committee loss whose halt is terminal —
   the emergency exits are the only settlement. *)
let exit_drill_scenarios =
  [ ( "stall=2",
      { Faults.Fault_plan.quorum_starvation = Some (2, 4); committee_loss = None } );
    ( "stall=4",
      { Faults.Fault_plan.quorum_starvation = Some (2, 5); committee_loss = None } );
    ( "loss@2",
      { Faults.Fault_plan.quorum_starvation = None; committee_loss = Some 2 } ) ]

let exit_drill ~scale =
  { title = "Exit drill: stall duration vs exit gas and recovery latency";
    col_header = "Liveness failure";
    cells =
      List.map
        (fun (label, scenario) ->
          cell ~label
            ~extra:(fun r ->
              (* 14-char table cells: trajectory as mode initials, token
                 amounts in 1e18 units, severities abbreviated. *)
              let initial m = String.make 1 (Char.uppercase_ascii m.[0]) in
              let tokens u =
                Printf.sprintf "%.1f" (float_of_string (U256.to_string u) /. 1e18)
              in
              [ ("Final mode", r.System.final_mode);
                ("Mode trajectory",
                 String.concat "->"
                   ("N" :: List.map (fun (_, m) -> initial m) r.System.mode_transitions));
                ("Halted at (s)",
                 (match r.System.halted_at with
                 | Some ts -> Printf.sprintf "%.0f" ts
                 | None -> "-"));
                ("Epochs applied",
                 Printf.sprintf "%d/%d" r.System.epochs_applied r.System.epochs_run);
                ("Exits served", string_of_int r.System.exits_served);
                ("Exit claims (token0)", tokens r.System.exit_claims0);
                ("Exit claims (token1)", tokens r.System.exit_claims1);
                ("Exit gas (mean)", Printf.sprintf "%.0f" r.System.exit_gas_mean);
                ("Exit conservation",
                 if r.System.exit_conservation then "pass" else "FAIL");
                ("Recovery latency (s)",
                 (match r.System.recovery_latency with
                 | Some l -> Printf.sprintf "%.0f" l
                 | None -> if r.System.final_mode = "halted" then "never" else "n/a"));
                ("Reconciled (ep/ap/vd)",
                 (match r.System.reconciliation with
                 | Some rec_ ->
                   Printf.sprintf "%d/%d/%d"
                     (List.length rec_.Tokenbank.Token_bank.rec_epochs)
                     rec_.Tokenbank.Token_bank.rec_users_applied
                     rec_.Tokenbank.Token_bank.rec_users_voided
                 | None -> "none"));
                ("Monitor violations",
                 if r.System.monitor_violations = [] then "none"
                 else
                   String.concat " "
                     (List.map
                        (fun (s, n) ->
                          Printf.sprintf "%s:%d" (String.sub s 0 4) n)
                        r.System.monitor_violations));
                ("Twin audit",
                 if r.System.twin_consistent then "pass" else "FAIL");
                ("Custody",
                 if r.System.custody_consistent then "pass" else "FAIL") ])
            { base with
              epochs = 8;
              daily_volume = scaled ~scale 50_000;
              users = 20;
              miners = 40;
              committee_size = 13;
              max_faulty = 4;
              faults = { Faults.Fault_plan.none with Faults.Fault_plan.scenario };
              watchdog = { Config.wd_stall_degraded = 2; wd_stall_halted = 4 };
              seed = base.seed ^ "-exit-drill" })
        exit_drill_scenarios;
    (* Positional over the three scenarios: stall=2 rides it out, stall=4
       halts, exits and reconciles, loss@2 halts for good. *)
    verdicts =
      [ ( "final modes",
          fun runs ->
            List.map (fun r -> r.System.final_mode) runs = [ "normal"; "normal"; "halted" ] );
        ("exit conservation passes", List.for_all (fun r -> r.System.exit_conservation));
        ("twin audit passes", List.for_all (fun r -> r.System.twin_consistent));
        ("custody passes", List.for_all (fun r -> r.System.custody_consistent));
        ( "exits served",
          fun runs ->
            match List.map (fun r -> r.System.exits_served) runs with
            | [ 0; stalled; lost ] -> stalled > 0 && lost > 0
            | _ -> false );
        ( "recovery latency",
          fun runs ->
            match List.map (fun r -> r.System.recovery_latency) runs with
            | [ None; Some l; None ] -> l > 0.0
            | _ -> false );
        ( "reconciliation",
          fun runs ->
            match List.map (fun r -> r.System.reconciliation) runs with
            | [ None; Some _; None ] -> true
            | _ -> false ) ] }

(* ------------------------------------------------------------------ *)
(* Crash drill: kill/restart at every injected point + torn-write      *)
(* corruption; every recovered run must end byte-identical to an       *)
(* uninterrupted one                                                   *)
(* ------------------------------------------------------------------ *)

let drill_snapshot_every = 2

(* (epoch, round) process deaths: mid-epoch, an epoch's first round, the
   summary round (29 of 30), and points either side of the durable
   snapshots at epochs 2 and 4. Every crash also tears the WAL tail
   (torn_write_rate = 1.0), rotating deterministically through the three
   torn-write modes. *)
let crash_drill_points = [ (0, 15); (1, 3); (2, 9); (3, 29); (4, 21) ]

type drill_row = {
  drill_label : string;
  drill_crashes : int;   (* injected process deaths survived *)
  drill_detected : int;  (* corruptions caught: snapshots rejected +
                            WAL segments repaired or dropped *)
  drill_healed : int;    (* corrupt/missing snapshots rewritten *)
  drill_replayed : int;  (* records byte-verified against the WAL *)
  drill_appended : int;  (* records newly logged *)
  drill_ok : bool;       (* scene expectation met AND end state
                            byte-identical to the reference run *)
}

exception Drill_failure of string

(* The drill: the reference run's configuration, and what the scene rows
   must satisfy. *)
type crash_drill = {
  cd_cfg : Config.t;
  cd_verdicts : drill_row verdict list;
}

let crash_drill ~scale =
  { cd_cfg =
      { base with
        epochs = 6;
        daily_volume = scaled ~scale 50_000;
        users = 12;
        miners = 30;
        committee_size = 9;
        max_faulty = 2;
        threshold_signing = true;
        mc_confirmations = 2;
        (* a reorg mid-run exercises the WAL's Truncate compensation records *)
        faults =
          { Faults.Fault_plan.none with
            Faults.Fault_plan.interruptions = [ Faults.Fault_plan.Rollback 2 ] };
        seed = base.seed ^ "-crash-drill" };
    cd_verdicts =
      [ ("every scene byte-identical", List.for_all (fun d -> d.drill_ok));
        ( "scene labels",
          fun rows ->
            List.map (fun d -> d.drill_label) rows
            = [ "reference"; "crash-script"; "snapshot-truncated-tail"; "snapshot-bit-flip";
                "snapshot-stale-marker"; "wal-torn-tail" ] );
        ( "every scripted death survived",
          List.exists (fun d ->
              d.drill_label = "crash-script"
              && d.drill_crashes = List.length crash_drill_points) );
        ( "every corruption detected",
          List.for_all (fun d -> d.drill_label = "reference" || d.drill_detected >= 1) );
        ( "corrupt snapshots healed",
          fun rows ->
            List.fold_left
              (fun acc d ->
                if String.starts_with ~prefix:"snapshot-" d.drill_label then
                  acc + d.drill_healed
                else acc)
              0 rows
            >= 3 ) ] }

(* Scene dirs are wiped before use so a re-run over a kept root starts
   from genesis, not from stale state. *)
let drill_scene_dir root name =
  let dir = Filename.concat root name in
  Durable.Fsio.mkdir_p dir;
  Array.iter
    (fun f -> Durable.Fsio.remove_if_exists (Filename.concat dir f))
    (Sys.readdir dir);
  dir

(* Run [cfg] durably in [dir] to completion, resuming across injected
   crashes (each resume re-opens the directory and re-executes with the
   previous crash point disarmed). Returns the completed run (whose sink
   holds only the final incarnation's metrics) and the number of crashes
   survived. *)
let drill_complete ~dir cfg =
  let limit = List.length crash_drill_points + 2 in
  let rec go ~armed_after ~crashes =
    if crashes > limit then
      raise (Drill_failure "crash/resume loop did not converge");
    let s =
      Durable.Session.open_ ?armed_after ~dir
        ~snapshot_every:drill_snapshot_every ()
    in
    match System.run ~durable:s cfg with
    | r -> (r, crashes)
    | exception Durable.Session.Crashed { epoch; round } ->
      go ~armed_after:(Some (epoch, round)) ~crashes:(crashes + 1)
  in
  go ~armed_after:None ~crashes:0

(* Everything observable about a finished run except the durability and
   monitor counters (a recovered run legitimately reports extra
   durability work and corruption warnings). *)
let drill_fingerprint (r : System.result) =
  String.concat "|"
    [ string_of_int r.System.generated; string_of_int r.System.processed;
      string_of_int r.System.rejected;
      Printf.sprintf "%.9f" r.System.throughput;
      Printf.sprintf "%.9f" r.System.mean_tx_latency;
      Printf.sprintf "%.9f" r.System.mean_payout_latency;
      string_of_int r.System.payouts_settled;
      string_of_int r.System.sc_cumulative_bytes;
      string_of_int r.System.sc_stored_bytes;
      string_of_int r.System.max_summary_block_bytes;
      string_of_int r.System.mc_tx_bytes; string_of_int r.System.mc_gas_total;
      String.concat ","
        (List.map
           (fun (l, n) -> l ^ ":" ^ string_of_int n)
           r.System.mc_gas_by_label);
      string_of_int r.System.epochs_run; string_of_int r.System.epochs_applied;
      string_of_int r.System.sync_count; string_of_int r.System.rollbacks;
      string_of_int r.System.exits_served;
      U256.to_string r.System.exit_claims0;
      U256.to_string r.System.exit_claims1;
      r.System.final_mode;
      string_of_bool r.System.twin_consistent;
      string_of_bool r.System.custody_consistent;
      string_of_int r.System.swaps; string_of_int r.System.mints;
      string_of_int r.System.burns; string_of_int r.System.collects ]

(* The durable directory reduced to bytes: file names, sizes, CRCs. Two
   runs ended up in the same state iff their digests match. *)
let drill_dir_digest dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let b = Durable.Fsio.read_file (Filename.concat dir f) in
         Printf.sprintf "%s:%d:%08x" f (Bytes.length b)
           (Durable.Crc32.digest b))
  |> String.concat ";"

type drill_scene =
  | Scene_crashes
  | Scene_corrupt_snapshot of Faults.Fault_plan.torn
  | Scene_torn_wal

let drill_scenes =
  [ ("crash-script", Scene_crashes);
    ( "snapshot-truncated-tail",
      Scene_corrupt_snapshot Faults.Fault_plan.Truncated_tail );
    ("snapshot-bit-flip", Scene_corrupt_snapshot Faults.Fault_plan.Bit_flip);
    ( "snapshot-stale-marker",
      Scene_corrupt_snapshot Faults.Fault_plan.Stale_marker );
    ("wal-torn-tail", Scene_torn_wal) ]

let crash_drill_in ?sink ?domains d root =
  let stat (r : System.result) name =
    Option.value ~default:0 (List.assoc_opt name r.System.durability)
  in
  let detected r =
    stat r "durability.snapshots_rejected"
    + stat r "durability.wal_repaired"
    + stat r "durability.wal_dropped"
  in
  let row ~label ~crashes ~ok (r : System.result) =
    { drill_label = label; drill_crashes = crashes;
      drill_detected = detected r;
      drill_healed = stat r "durability.snapshots_healed";
      drill_replayed = stat r "durability.records_replayed";
      drill_appended = stat r "durability.records_appended";
      drill_ok = ok }
  in
  (* Scene A: the uninterrupted durable reference run every other scene
     must reproduce byte-for-byte. *)
  let ref_dir = drill_scene_dir root "reference" in
  let r_ref, _ = drill_complete ~dir:ref_dir d.cd_cfg in
  let ref_fp = drill_fingerprint r_ref in
  let ref_digest = drill_dir_digest ref_dir in
  let ref_row =
    (* Fresh ground truth: everything appended, nothing replayed or
       found wrong. *)
    row ~label:"reference" ~crashes:0
      ~ok:
        (stat r_ref "durability.records_appended" > 0
        && stat r_ref "durability.records_replayed" = 0
        && detected r_ref = 0)
      r_ref
  in
  let identical dir r = drill_fingerprint r = ref_fp && drill_dir_digest dir = ref_digest in
  let run_scene (label, scene) =
    let dir = drill_scene_dir root label in
    match scene with
    | Scene_crashes ->
      (* Seeded hard process death at every scripted point, each with a
         torn WAL tail; the crash→recover→resume loop must converge and
         end identical to the reference. *)
      let cfg =
        { d.cd_cfg with
          faults =
            { d.cd_cfg.faults with
              Faults.Fault_plan.durability =
                { Faults.Fault_plan.crash_rate = 0.0;
                  torn_write_rate = 1.0;
                  crash_script = crash_drill_points } } }
      in
      let r, crashes = drill_complete ~dir cfg in
      let ok =
        crashes = List.length crash_drill_points && identical dir r
      in
      (row ~label ~crashes ~ok r, r)
    | Scene_corrupt_snapshot mode ->
      (* Complete a run, corrupt the newest snapshot, resume: recovery
         must detect it, fall back to the previous snapshot, and heal
         the corrupt file during re-execution. *)
      ignore (drill_complete ~dir d.cd_cfg);
      (match List.rev (Durable.Snapshot.list ~dir) with
      | (_, p) :: _ -> Durable.Torn.apply p mode
      | [] -> raise (Drill_failure (label ^ ": no snapshot on disk")));
      let r, crashes = drill_complete ~dir d.cd_cfg in
      let ok =
        stat r "durability.snapshots_rejected" >= 1
        && stat r "durability.snapshots_healed" >= 1
        && identical dir r
      in
      (row ~label ~crashes ~ok r, r)
    | Scene_torn_wal ->
      (* Complete a run, tear the newest WAL segment's tail, resume:
         recovery must repair the segment and re-execution must re-log
         the lost records. *)
      ignore (drill_complete ~dir d.cd_cfg);
      (match List.rev (Durable.Wal.list ~dir) with
      | (_, p) :: _ -> Durable.Torn.apply p Faults.Fault_plan.Truncated_tail
      | [] -> raise (Drill_failure (label ^ ": no WAL segment on disk")));
      let r, crashes = drill_complete ~dir d.cd_cfg in
      let ok =
        stat r "durability.wal_repaired" >= 1
        && stat r "durability.records_appended" >= 1
        && identical dir r
      in
      (row ~label ~crashes ~ok r, r)
  in
  let scene_rows = Parallel.map_list ?domains run_scene drill_scenes in
  (* The runs' sinks are absorbed in scene order after the parallel
     phase — same discipline as [run_table]. *)
  absorb sink r_ref;
  List.iter (fun (_, r) -> absorb sink r) scene_rows;
  ref_row :: List.map fst scene_rows

(* The drill needs real directories: under [root], which stays for
   inspection, or under a fresh temp dir removed when the drill ends.
   Paths never reach stdout — the drill output is byte-identical across
   runs, hosts and domain counts. *)
let run_crash_drill ?sink ?domains ?root d =
  match root with
  | Some dir ->
    Durable.Fsio.mkdir_p dir;
    crash_drill_in ?sink ?domains d dir
  | None -> Durable.Fsio.with_temp_dir "ammboost-drill" (crash_drill_in ?sink ?domains d)

let print_crash_drill rows =
  Printf.printf "\n=== Crash drill: kill/restart + torn-write recovery ===\n";
  Printf.printf "%-26s%9s%10s%8s%10s%10s  %s\n" "Scene" "crashes" "detected"
    "healed" "replayed" "appended" "state";
  List.iter
    (fun d ->
      Printf.printf "%-26s%9d%10d%8d%10d%10d  %s\n" d.drill_label
        d.drill_crashes d.drill_detected d.drill_healed d.drill_replayed
        d.drill_appended
        (if d.drill_ok then "ok" else "FAIL"))
    rows;
  Printf.printf "byte-identity: %s\n"
    (if List.for_all (fun d -> d.drill_ok) rows then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* State-growth observatory: the run feeding the CI growth guard       *)
(* ------------------------------------------------------------------ *)

(* Deliberately NOT [scaled]: the checked-in guard baseline
   (OBSERVE_baseline.json) compares against this exact configuration, so
   it must not move with the bench's volume divisor. *)
let observe_cfg =
  { base with
    Config.daily_volume = 100_000;
    epochs = 6;
    users = 24;
    seed = base.Config.seed ^ "-observe" }

let observe_report ?counterfactual (r : System.result) =
  let cfg = r.System.cfg in
  Observe.Run_report.render ~title:"ammBoost run report"
    ~params:
      [ ("seed", cfg.Config.seed);
        ("daily volume", string_of_int cfg.Config.daily_volume);
        ("epochs", string_of_int cfg.Config.epochs);
        ("users", string_of_int cfg.Config.users);
        ("rounds/epoch", string_of_int cfg.Config.sc_rounds_per_epoch);
        ("round duration (s)", Printf.sprintf "%.1f" cfg.Config.sc_round_duration) ]
    ~summary:
      [ ("generated", string_of_int r.System.generated);
        ("processed", string_of_int r.System.processed);
        ("rejected", string_of_int r.System.rejected);
        ("throughput (tx/s)", Printf.sprintf "%.2f" r.System.throughput);
        ("epochs applied",
         Printf.sprintf "%d/%d" r.System.epochs_applied r.System.epochs_run);
        ("lifecycle sampled ops",
         Printf.sprintf "%d/%d" r.System.lifecycle_sampled r.System.lifecycle_seen);
        ("final mode", r.System.final_mode) ]
    ~ledger:r.System.growth ?counterfactual
    ~metrics:r.System.telemetry.Telemetry.Report.metrics
    ~events:
      (List.map
         (fun (ts, m) ->
           { Observe.Run_report.ev_t = ts; ev_kind = "mode"; ev_detail = m })
         r.System.mode_transitions
      @ List.map
          (fun (label, n) ->
            { Observe.Run_report.ev_t = Float.infinity; ev_kind = "fault";
              ev_detail = Printf.sprintf "%s x%d (whole run)" label n })
          r.System.faults_injected)
    ()

(* Writes the growth series in guard-baseline form (observe.json, which
   CI's growth gate compares with OBSERVE_baseline.json) and the run
   report (report.md). *)
let observe sink =
  let r = System.run observe_cfg in
  absorb (Some sink) r;
  let print () =
    Printf.printf "\n=== State-growth observatory (seed %s) ===\n" observe_cfg.Config.seed;
    let headline =
      [ "mc.bytes.total"; "mc.gas.total"; "sc.cumulative_bytes"; "sc.stored_bytes";
        "bank.storage_words"; "baseline.bytes.sepolia" ]
    in
    Printf.printf "%-6s" "epoch";
    List.iter (fun k -> Printf.printf "%24s" k) headline;
    print_newline ();
    List.iter
      (fun (row : Observe.Growth_ledger.row) ->
        Printf.printf "%-6d" row.Observe.Growth_ledger.ge_epoch;
        List.iter
          (fun k ->
            match Observe.Growth_ledger.field row k with
            | Some v -> Printf.printf "%24.0f" v
            | None -> Printf.printf "%24s" "-")
          headline;
        print_newline ())
      (Observe.Growth_ledger.rows r.System.growth);
    Printf.printf "lifecycle: %d of %d included ops sampled (1 in 8)\n"
      r.System.lifecycle_sampled r.System.lifecycle_seen
  in
  { print;
    files =
      [ ("observe.json", Observe.Growth_ledger.to_json r.System.growth);
        ("report.md", observe_report r) ];
    failed = [] }

(* ------------------------------------------------------------------ *)
(* Scale sweep: users vs wall-seconds vs peak RSS                      *)
(* ------------------------------------------------------------------ *)

let sweep_epochs = 3

(* Each cell is seeded by its own user count, so a cell's output does not
   depend on which other cells run: trimming the sweep's user list never
   changes the remaining rows. *)
let sweep_cfg ~users =
  let daily_volume = users * 500 in
  let arrivals =
    int_of_float
      (Float.ceil
         (float_of_int daily_volume *. base.Config.sc_round_duration /. 86_400.0))
  in
  { base with
    Config.users;
    epochs = sweep_epochs;
    daily_volume;
    (* One deposit per user per epoch floods the mainchain queue, and the
       epoch sync carrying every user's entry must fit a single block
       (head-of-line): scale the gas limit and the meta-block capacity
       with the population so large cells cannot wedge. *)
    mc_gas_limit = Stdlib.max base.Config.mc_gas_limit (users * 100_000);
    meta_block_bytes = Stdlib.max base.Config.meta_block_bytes (arrivals * 1024);
    seed = Printf.sprintf "%s-sweep-%d" base.Config.seed users }

type sweep_cell = {
  sw_users : int;
  sw_generated : int;
  sw_processed : int;
  sw_throughput : float;
  sw_epochs_applied : int;
  sw_epochs_run : int;
  sw_storage_words : float;
  sw_wall_s : float;
  sw_rss_kb : int;
  sw_major_words : float;
  sw_promoted_words : float;
  sw_minor_words : float;
  sw_alloc_rate_mw_s : float;
      (* total allocation (minor + major − promoted), million words per
         wall second — the mutator's allocation pressure *)
  sw_summary_users : int; (* user entries across the cell's summaries *)
  sw_summary_users_max : int; (* largest single summary's user list *)
  sw_gc_pauses : int; (* minor collections + major slices *)
  sw_gc_pause_total_ms : float;
  sw_gc_pause_max_ms : float;
}

let peak_rss_kb () =
  (* VmHWM from /proc/self/status (Linux); 0 where unavailable. Process-
     wide and monotone, hence the ascending sequential cell order. *)
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    String.split_on_char '\n' text
    |> List.fold_left
         (fun acc line ->
           if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
             let digits =
               String.to_seq line
               |> Seq.filter (fun c -> c >= '0' && c <= '9')
               |> String.of_seq
             in
             match int_of_string_opt digits with Some v -> v | None -> acc
           else acc)
         0

(* Deterministic fields only: the measurements stay off stdout. *)
let print_scale_sweep rows =
  Printf.printf "\n=== Scale sweep (epochs=%d) ===\n" sweep_epochs;
  Printf.printf "%-10s%14s%14s%18s%10s%16s%16s\n" "users" "generated" "processed"
    "throughput tx/s" "epochs" "storage words" "summary users";
  List.iter
    (fun c ->
      Printf.printf "%-10d%14d%14d%18.2f%7d/%-2d%16.0f%11d/%-4d\n" c.sw_users
        c.sw_generated c.sw_processed c.sw_throughput c.sw_epochs_applied
        c.sw_epochs_run c.sw_storage_words c.sw_summary_users
        c.sw_summary_users_max)
    rows

(* sweep.json, which `ammboost_sim gate sweep` compares with the
   checked-in SWEEP_baseline.json. *)
let sweep_json rows =
  let cell c =
    Telemetry.Json.obj_of_fields
      [ ("users", Telemetry.Json.Int c.sw_users);
        ("generated", Telemetry.Json.Int c.sw_generated);
        ("processed", Telemetry.Json.Int c.sw_processed);
        ("epochs_applied", Telemetry.Json.Int c.sw_epochs_applied);
        ("storage_words", Telemetry.Json.Float c.sw_storage_words);
        ("wall_s", Telemetry.Json.Float c.sw_wall_s);
        ("rss_peak_kb", Telemetry.Json.Int c.sw_rss_kb);
        ("gc_major_words", Telemetry.Json.Float c.sw_major_words);
        ("gc_promoted_words", Telemetry.Json.Float c.sw_promoted_words);
        ("gc_minor_words", Telemetry.Json.Float c.sw_minor_words);
        ("alloc_rate_mw_s", Telemetry.Json.Float c.sw_alloc_rate_mw_s);
        ("summary_users", Telemetry.Json.Int c.sw_summary_users);
        ("summary_users_max", Telemetry.Json.Int c.sw_summary_users_max);
        ("gc_pauses", Telemetry.Json.Int c.sw_gc_pauses);
        ("gc_pause_total_ms", Telemetry.Json.Float c.sw_gc_pause_total_ms);
        ("gc_pause_max_ms", Telemetry.Json.Float c.sw_gc_pause_max_ms) ]
  in
  Telemetry.Json.obj
    [ ("schema", Telemetry.Json.string "ammboost-sweep/2");
      ("epochs", string_of_int sweep_epochs);
      ("cells", Telemetry.Json.array (List.map cell rows)) ]

(* One cell per entry of [users], sequentially in list order — never
   fanned across domains: peak RSS is a process-wide high-water mark, so
   cells run one at a time in ascending user order for the measurement to
   be attributable. Simulation outputs are deterministic; wall, RSS and
   GC fields are measurements and go to stderr and sweep.json only. *)
let scale_sweep ~users sink =
  let gc_pause = Telemetry.Gc_pause.start () in
  ignore (Telemetry.Gc_pause.poll gc_pause); (* drop pre-sweep noise *)
  let rows =
    List.map
      (fun users ->
        let cfg = sweep_cfg ~users in
        let sw = Telemetry.Clock.stopwatch () in
        let g0 = Gc.quick_stat () in
        let r = System.run cfg in
        let g1 = Gc.quick_stat () in
        let wall = Telemetry.Clock.elapsed_wall sw in
        let pauses = Telemetry.Gc_pause.poll gc_pause in
        absorb (Some sink) r;
        let storage_words =
          match List.rev (Observe.Growth_ledger.rows r.System.growth) with
          | last :: _ ->
            Option.value ~default:0.0
              (Observe.Growth_ledger.field last "bank.storage_words")
          | [] -> 0.0
        in
        let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
        let major_words = g1.Gc.major_words -. g0.Gc.major_words in
        let promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words in
        let allocated = minor_words +. major_words -. promoted_words in
        let ms ns = Int64.to_float ns /. 1_000_000.0 in
        let row =
          { sw_users = users; sw_generated = r.System.generated;
            sw_processed = r.System.processed; sw_throughput = r.System.throughput;
            sw_epochs_applied = r.System.epochs_applied;
            sw_epochs_run = r.System.epochs_run; sw_storage_words = storage_words;
            sw_wall_s = wall; sw_rss_kb = peak_rss_kb ();
            sw_major_words = major_words; sw_promoted_words = promoted_words;
            sw_minor_words = minor_words;
            sw_alloc_rate_mw_s =
              (if wall > 0.0 then allocated /. wall /. 1_000_000.0 else 0.0);
            sw_summary_users = r.System.summary_user_entries;
            sw_summary_users_max = r.System.summary_user_entries_max;
            sw_gc_pauses = pauses.Telemetry.Gc_pause.pauses;
            sw_gc_pause_total_ms = ms pauses.Telemetry.Gc_pause.total_ns;
            sw_gc_pause_max_ms = ms pauses.Telemetry.Gc_pause.max_ns }
        in
        (* Wall/RSS vary run to run: stderr only, stdout stays identical. *)
        Printf.eprintf
          "  [sweep users=%d: %.1fs wall, rss peak %dKB, %.0f major words, \
           %.0f Mw/s alloc, gc max pause %.2fms, %d summary user entries]\n%!"
          users wall row.sw_rss_kb row.sw_major_words row.sw_alloc_rate_mw_s
          row.sw_gc_pause_max_ms row.sw_summary_users;
        row)
      users
  in
  { print = (fun () -> print_scale_sweep rows);
    files = [ ("sweep.json", sweep_json rows ^ "\n") ];
    failed = [] }

(* ------------------------------------------------------------------ *)
(* Twin-audit drill: scripted silent corruption vs the continuous      *)
(* differential audit, a second-domain time-travel consumer, and the   *)
(* same-process overhead measurement behind the CI gate                *)
(* ------------------------------------------------------------------ *)

let twin_script script =
  { Faults.Fault_plan.none with
    Faults.Fault_plan.corruption =
      { Faults.Fault_plan.corruption_rate = 0.0; corruption_script = script } }

(* Injections reported in their own epoch, matched by epoch and key
   string. *)
let twin_hits (r : System.result) =
  List.length
    (List.filter
       (fun (e, k) ->
         List.exists
           (fun rep -> rep.Twin.r_epoch = e && Twin.key_to_string rep.Twin.r_key = k)
           r.System.twin_reports)
       r.System.twin_injections)

let twin_bisected (r : System.result) =
  List.length (List.filter (fun rep -> rep.Twin.r_culprit <> None) r.System.twin_reports)

let twin_verdict (r : System.result) =
  if r.System.twin_injections = [] then r.System.twin_consistent
  else twin_hits r = List.length r.System.twin_injections

(* Shared extra rows so the table prints one aligned matrix: detection
   bookkeeping, bisection counts, and a read-only time-travel probe run
   concurrently on two domains against the immutable view. *)
let twin_extra (r : System.result) =
  let bisected = twin_bisected r in
  let view_rows =
    match r.System.twin_view with
    | None -> [ ("Epochs sealed", "off"); ("View probe (2 domains)", "off") ]
    | Some v ->
      let epochs = Twin.epochs_sealed v in
      (* Two domains read the same immutable view concurrently: custody
         series on one, bank.meta reads on the other. *)
      let custodies, meta_reads =
        Parallel.run_pair
          (fun () ->
            List.length (List.filter_map (fun e -> Twin.custody_at v ~epoch:e) epochs))
          (fun () ->
            List.length
              (List.filter
                 (fun e -> Twin.read_at v ~epoch:e Twin.Bank_meta <> None)
                 epochs))
      in
      [ ("Epochs sealed", string_of_int (List.length epochs));
        ("View probe (2 domains)", Printf.sprintf "%d/%d" custodies meta_reads) ]
  in
  [ ("Twin audits", string_of_int r.System.twin_audits);
    ("Divergent keys", string_of_int r.System.twin_divergences);
    ("Injected/caught in-epoch",
     Printf.sprintf "%d/%d" (List.length r.System.twin_injections) (twin_hits r));
    ("Reports bisected", string_of_int bisected);
    ("Reports out-of-band", string_of_int (List.length r.System.twin_reports - bisected));
    ("Final mode", r.System.final_mode);
    ("Twin verdict", if twin_verdict r then "pass" else "FAIL") ]
  @ view_rows

let twin_audit ~scale =
  let twin_base =
    { base with
      Config.epochs = 5;
      daily_volume = scaled ~scale 50_000;
      users = 20;
      miners = 40;
      committee_size = 13;
      max_faulty = 4;
      seed = base.Config.seed ^ "-twin" }
  in
  let spr = twin_base.Config.sc_rounds_per_epoch in
  (* Corruption is scripted at the summary round (spr-1): no transaction
     processing follows it inside the epoch, so the flip cannot be
     overwritten by a later legitimate write before the audit — the
     same-epoch detection guarantee is exact for these cells. *)
  let corrupt label script =
    cell ~label ~extra:twin_extra
      { twin_base with
        Config.faults = twin_script script;
        seed = twin_base.Config.seed ^ "-" ^ label }
  in
  { title = "Twin audit: silent corruption vs the differential audit";
    col_header = "Corruption cell";
    cells =
      [ cell ~label:"clean" ~extra:twin_extra twin_base;
        corrupt "corrupt-dep" [ (1, spr - 1, Faults.Fault_plan.Deposit_row) ];
        corrupt "corrupt-pos" [ (1, spr - 1, Faults.Fault_plan.Position_slab) ];
        corrupt "corrupt-tick" [ (1, spr - 1, Faults.Fault_plan.Pool_tick) ];
        (* Consecutive corruptions under background chaos: the second
           divergence must drive the watchdog streak into a halt. *)
        cell ~label:"multi-chaos" ~extra:twin_extra
          { twin_base with
            Config.faults =
              { (Faults.Fault_plan.chaos ~intensity:0.05 ()) with
                Faults.Fault_plan.corruption =
                  { Faults.Fault_plan.corruption_rate = 0.0;
                    corruption_script =
                      [ (1, spr - 1, Faults.Fault_plan.Deposit_row);
                        (2, spr - 1, Faults.Fault_plan.Position_slab) ] } };
            mc_confirmations = 3;
            seed = twin_base.Config.seed ^ "-multi" } ];
    (* The clean run comes first; every other run corrupts. Bisection is
       judged over the whole table, not per run: corrupt-dep bisects its
       report at scale 1 but not at scale 100, and corrupt-tick never
       does. *)
    verdicts =
      [ ("twin verdict passes", List.for_all twin_verdict);
        ( "every injection caught in its epoch",
          List.for_all (fun r -> twin_hits r = List.length r.System.twin_injections) );
        ("some run injects", List.exists (fun r -> r.System.twin_injections <> []));
        ( "only the clean run is divergence-free",
          function
          | clean :: corrupt ->
            clean.System.twin_divergences = 0
            && List.for_all (fun r -> r.System.twin_divergences > 0) corrupt
          | [] -> false );
        ("some report bisected", List.exists (fun r -> twin_bisected r > 0));
        ("every run audited", List.for_all (fun r -> r.System.twin_audits > 0)) ] }

(* The overhead measurement behind CI's twin gate: one {!sweep_cfg}
   cell of [users] run twice in this process — twin off, then twin on —
   so the ratio sees identical machine conditions. Wall times are
   measurements: stderr and twin.json only, never stdout. *)
let twin_overhead ~users sink =
  let cfg = sweep_cfg ~users in
  let measure twin_on =
    let cfg = { cfg with Config.twin_audit = twin_on } in
    let sw = Telemetry.Clock.stopwatch () in
    let r = System.run cfg in
    let wall = Telemetry.Clock.elapsed_wall sw in
    absorb (Some sink) r;
    (r, wall)
  in
  let _, wall_off = measure false in
  let r, wall_on = measure true in
  let overhead_pct = 100.0 *. ((wall_on /. Float.max 1e-9 wall_off) -. 1.0) in
  let epochs = cfg.Config.epochs in
  Printf.eprintf
    "  [twin overhead users=%d: off %.2fs, on %.2fs (%+.1f%%), %d audits]\n%!"
    users wall_off wall_on overhead_pct r.System.twin_audits;
  let print () =
    Printf.printf "\n=== Twin-audit overhead cell (users=%d, epochs=%d) ===\n" users epochs;
    Printf.printf "  audits run        %14d\n" r.System.twin_audits;
    Printf.printf "  divergent keys    %14d\n" r.System.twin_divergences;
    Printf.printf "  fault-free audit  %14s\n"
      (if r.System.twin_consistent then "pass" else "FAIL")
  in
  let json =
    Telemetry.Json.obj
      [ ("schema", Telemetry.Json.string "ammboost-twin/1");
        ("users", string_of_int users);
        ("epochs", string_of_int epochs);
        ("wall_off_s", Telemetry.Json.float wall_off);
        ("wall_on_s", Telemetry.Json.float wall_on);
        ("overhead_pct", Telemetry.Json.float overhead_pct);
        ("audits", string_of_int r.System.twin_audits);
        ("divergences", string_of_int r.System.twin_divergences);
        ("consistent", if r.System.twin_consistent then "true" else "false") ]
  in
  { print; files = [ ("twin.json", json ^ "\n") ]; failed = [] }

(* ------------------------------------------------------------------ *)
(* The bench's targets                                                 *)
(* ------------------------------------------------------------------ *)

let experiments ~scale ~twin_users =
  [ of_table "table1" (table1 ~scale); of_table "table2" (table2 ~scale);
    of_table "table3" (table3 ~scale); of_table "table4" (table4 ~scale);
    of_table "table5" (table5 ~scale);
    concurrent "table6" (fun sink -> printed (table6 ~scale sink));
    concurrent "table7" (fun _ -> printed print_table7);
    concurrent "table8" (fun _ -> printed (table8 ~scale));
    concurrent "fig6" (fun sink -> printed (fig6 ~scale sink));
    concurrent "ablations" (fun sink -> printed (ablations ~scale sink));
    of_table "chaos" (chaos ~scale); of_table "exit-drill" (exit_drill ~scale);
    { name = "crash-drill"; serial = false;
      run =
        (fun ~sink ~out ->
          let d = crash_drill ~scale in
          let root = Option.map (fun dir -> Filename.concat dir "crash-drill") out in
          let rows = run_crash_drill ~sink ?root d in
          { print = (fun () -> print_crash_drill rows); files = [];
            failed = failed d.cd_verdicts rows }) };
    of_table "twin-audit" (twin_audit ~scale);
    { name = "twin-overhead"; serial = true;
      run = (fun ~sink ~out:_ -> twin_overhead ~users:twin_users sink) };
    concurrent "observe" observe ]

(* The scale sweep's 10k-user cell is far heavier than any table, and its
   measurements want an otherwise quiet process. *)
let opt_in ~sweep_users =
  [ { name = "scale-sweep"; serial = true;
      run = (fun ~sink ~out:_ -> scale_sweep ~users:sweep_users sink) } ]
