(* The benchmark's workloads: each a System.run configuration built here,
   not through Experiments, so a change to the paper-table harness never
   silently changes what the benchmark measures. Why each was chosen is in
   BENCHMARK.json and README.md.

   Sizes are chosen so one run takes 2-5 s on a 2-core machine: several
   runs fit one measurement window, and the window reports their median. *)

open Ammboost

type t = {
  name : string;
  cfg : Config.t;                 (* the default-seed configuration *)
  durable : bool;                 (* run through a Durable.Session *)
  fault_free : bool;              (* every epoch run must be applied *)
  shrink : Config.t -> Config.t;  (* the self-test's scaled-down [cfg] *)
  expected : string;              (* the default seed's fingerprint *)
}

let base = Config.default

(* Table 1's V_D = 25M cell: 100 users, the Uniswap-2023 mix. The paper
   runs 11 epochs; 3 keep one run near 3.5 s, and the meta-block capacity
   binds from the first epoch on either way. *)
let swap_flood =
  { name = "swap-flood";
    cfg = { base with daily_volume = 25_000_000; epochs = 3; seed = "ammboost-t1" };
    durable = false;
    fault_free = true;
    shrink = (fun c -> { c with daily_volume = 2_500_000; epochs = 2 });
    expected =
      String.concat " "
        [ "generated=104220"; "processed=104019"; "rejected=202";
          "throughput=241.200000"; "sc_latency=33.804982";
          "payout_latency=113.633894"; "epochs=4/4"; "summary_users=400";
          "max_summary_bytes=60608"; "mc_gas=59588146"; "mc_bytes=577304";
          "sc_bytes=104217419/218265"; "custody=true"; "twin=true" ] }

(* Table 5's (60,20,10,10) cell: 40% of operations write positions. *)
let lp_churn =
  { name = "lp-churn";
    cfg =
      { base with
        daily_volume = 25_000_000;
        epochs = 3;
        distribution =
          { Config.swap_pct = 60.; mint_pct = 20.; burn_pct = 10.; collect_pct = 10. };
        seed = "ammboost-t5" };
    durable = false;
    fault_free = true;
    shrink = (fun c -> { c with daily_volume = 2_500_000; epochs = 2 });
    expected =
      String.concat " "
        [ "generated=104220"; "processed=103549"; "rejected=672";
          "throughput=252.341667"; "sc_latency=23.303715";
          "payout_latency=103.369458"; "epochs=4/4"; "summary_users=400";
          "max_summary_bytes=213043"; "mc_gas=82385986"; "mc_bytes=1555736";
          "sc_bytes=99222483/723945"; "custody=true"; "twin=true" ] }

(* The scale-sweep cell formula (Experiments.sweep_cfg) at [users]:
   traffic, mainchain gas limit and meta-block capacity all scale with
   the population, so a sync carrying every user's entry fits a block. *)
let sweep ~users ~epochs ~seed =
  let daily_volume = users * 500 in
  let arrivals =
    int_of_float
      (Float.ceil
         (float_of_int daily_volume *. base.Config.sc_round_duration /. 86_400.0))
  in
  { base with
    Config.users;
    epochs;
    daily_volume;
    mc_gas_limit = Stdlib.max base.Config.mc_gas_limit (users * 100_000);
    meta_block_bytes = Stdlib.max base.Config.meta_block_bytes (arrivals * 1024);
    seed }

(* The sweep's 10k-user CI cell: cost driven by the population. *)
let users_10k =
  { name = "users-10k";
    cfg = sweep ~users:10_000 ~epochs:3 ~seed:"ammboost-sweep-10000";
    durable = false;
    fault_free = true;
    shrink = (fun c -> sweep ~users:500 ~epochs:2 ~seed:c.Config.seed);
    expected =
      String.concat " "
        [ "generated=20880"; "processed=20881"; "rejected=0";
          "throughput=57.358333"; "sc_latency=0.211160";
          "payout_latency=78.002586"; "epochs=4/4"; "summary_users=15073";
          "max_summary_bytes=701891"; "mc_gas=3368958499"; "mc_bytes=15522480";
          "sc_bytes=22969400/2142496"; "custody=true"; "twin=true" ] }

(* The chaos-soak system scaled up: 13-member message-level PBFT, DKG and
   threshold signing every epoch, all-layer chaos at intensity 0.1, run
   through a durable session that a second process then reopens. Faults
   may leave epochs unapplied, so only custody and the twin are checked
   on every seed. *)
let faulty_durable =
  { name = "faulty-durable";
    cfg =
      { base with
        users = 40;
        miners = 40;
        committee_size = 13;
        max_faulty = 4;
        threshold_signing = true;
        message_level_consensus = true;
        mc_confirmations = 3;
        faults = Faults.Fault_plan.chaos ~intensity:0.1 ();
        epochs = 40;
        daily_volume = 250_000;
        seed = "ammboost-faulty-durable" };
    durable = true;
    fault_free = false;
    shrink = (fun c -> { c with epochs = 3 });
    expected =
      String.concat " "
        [ "generated=14400"; "processed=14389"; "rejected=12";
          "throughput=2.995208"; "sc_latency=0.234923";
          "payout_latency=111.434340"; "epochs=41/41"; "summary_users=1610";
          "max_summary_bytes=8133"; "mc_gas=219859140"; "mc_bytes=1234868";
          "sc_bytes=14931725/1033052"; "custody=true"; "twin=true" ] }

let all = [ swap_flood; lp_churn; users_10k; faulty_durable ]
let find name = List.find_opt (fun w -> w.name = name) all

(* With an explicit seed S the run seed becomes "<default>/S", so each
   workload keeps its own random stream under any seed. *)
let config ?seed w =
  match seed with
  | None -> w.cfg
  | Some s -> { w.cfg with Config.seed = w.cfg.Config.seed ^ "/" ^ s }

(* The set-up cost alone: key generation, faucet, bootstrap deposits and
   one empty epoch. *)
let setup_config (cfg : Config.t) = { cfg with Config.daily_volume = 0; epochs = 1 }

(* Everything deterministic a run reports about the layers the benchmark
   loads; two runs of one config must agree on all of it. *)
let fingerprint (r : System.result) =
  String.concat " "
    [ Printf.sprintf "generated=%d" r.System.generated;
      Printf.sprintf "processed=%d" r.System.processed;
      Printf.sprintf "rejected=%d" r.System.rejected;
      Printf.sprintf "throughput=%.6f" r.System.throughput;
      Printf.sprintf "sc_latency=%.6f" r.System.mean_tx_latency;
      Printf.sprintf "payout_latency=%.6f" r.System.mean_payout_latency;
      Printf.sprintf "epochs=%d/%d" r.System.epochs_applied r.System.epochs_run;
      Printf.sprintf "summary_users=%d" r.System.summary_user_entries;
      Printf.sprintf "max_summary_bytes=%d" r.System.max_summary_block_bytes;
      Printf.sprintf "mc_gas=%d" r.System.mc_gas_total;
      Printf.sprintf "mc_bytes=%d" r.System.mc_tx_bytes;
      Printf.sprintf "sc_bytes=%d/%d" r.System.sc_cumulative_bytes
        r.System.sc_stored_bytes;
      Printf.sprintf "custody=%b" r.System.custody_consistent;
      Printf.sprintf "twin=%b" r.System.twin_consistent ]

(* Invariants every seed must satisfy; [None] when all hold. *)
let check w (r : System.result) =
  if not r.System.custody_consistent then Some "custody does not hold"
  else if not r.System.twin_consistent then Some "twin audit diverged"
  else if w.fault_free && r.System.epochs_applied <> r.System.epochs_run then
    Some
      (Printf.sprintf "%d of %d epochs applied" r.System.epochs_applied
         r.System.epochs_run)
  else None
