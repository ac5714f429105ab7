(* Experiment configuration. Defaults follow the paper's setup (§6):
   11 epochs of 10 mainchain rounds each, 3 sidechain rounds per mainchain
   round (30 sc rounds/epoch), 4 s sidechain rounds, 12 s mainchain
   blocks, 1 MB meta-blocks, 500-miner committees, 100 users, and the
   measured Uniswap 2023 traffic distribution. *)

type distribution = {
  swap_pct : float;
  mint_pct : float;
  burn_pct : float;
  collect_pct : float;
}

(* Table 8, year 2023. *)
let uniswap_distribution =
  { swap_pct = 93.19; mint_pct = 2.14; burn_pct = 2.38; collect_pct = 2.27 }

(* Liveness-watchdog stall thresholds. "Stall" is the number of produced-
   but-unapplied summary epochs at an epoch boundary; one epoch of lag is
   the steady-state pipeline depth, so thresholds start at 2. *)
type watchdog = {
  wd_stall_degraded : int;     (* stalled epochs before Normal → Degraded *)
  wd_stall_halted : int;       (* stalled epochs before → Halted *)
}

let default_watchdog = { wd_stall_degraded = 3; wd_stall_halted = 6 }

type t = {
  seed : string;
  epochs : int;                    (* generation epochs (queues drain after) *)
  sc_rounds_per_epoch : int;
  sc_round_duration : float;       (* seconds *)
  meta_block_bytes : int;
  mc_gas_limit : int;
  committee_size : int;
  miners : int;
  max_faulty : int;                (* f for the PBFT quorums *)
  users : int;
  daily_volume : int;              (* V_D *)
  distribution : distribution;
  verify_signatures : bool;        (* verify user tx signatures when processing *)
  threshold_signing : bool;        (* full DKG + threshold signing for syncs
                                      (tests/examples); false = pre-generated
                                      committee key, as the paper's PoC *)
  message_level_consensus : bool;  (* run real PBFT per round instead of the
                                      latency model; for small committees *)
  self_audit : bool;               (* retain per-epoch audit state and replay
                                      every summary at the end of the run *)
  twin_audit : bool;               (* run the state twin: per-epoch O(Δ)
                                      differential audit of deposits, pool and
                                      bank state, with divergence bisection
                                      wired into the watchdog *)
  sign_transactions : bool;        (* generate real BLS signatures on traffic *)
  swap_deadline_rounds : int;      (* swap validity window in sc rounds *)
  faults : Faults.Fault_plan.spec; (* every injected fault, drawn or
                                      scripted; Fault_plan.none injects none *)
  mc_confirmations : int;          (* blocks burying a tx before it is final;
                                      raise for deeper-reorg chaos runs *)
  watchdog : watchdog;
}

let default =
  { seed = "ammboost";
    epochs = 11;
    sc_rounds_per_epoch = 30;
    sc_round_duration = 4.0;
    meta_block_bytes = 1_000_000;
    mc_gas_limit = 30_000_000;
    committee_size = 500;
    miners = 1000;
    max_faulty = 166;
    users = 100;
    daily_volume = 500_000;
    distribution = uniswap_distribution;
    verify_signatures = false;
    threshold_signing = false;
    message_level_consensus = false;
    self_audit = false;
    twin_audit = true;
    sign_transactions = false;
    swap_deadline_rounds = 10_000;
    faults = Faults.Fault_plan.none;
    mc_confirmations = 1;
    watchdog = default_watchdog }

(* Fixed by the paper's setup (the watchdog thresholds by the simulator);
   no experiment varies them. *)
let mc_block_interval = 12.0
let wd_retry_degraded = 4
let wd_retry_halted = 8
let wd_signing_streak = 4
let consensus =
  { Consensus.Latency_model.mean_delay = 0.011; bandwidth_bytes = 125_000_000.0 }
let lp_fraction = 0.2
let fee_pips = 3000
let tick_spacing = 60
let max_positions_per_lp = 4
let deposit_per_epoch = Amm_math.U256.of_string "10000000000000000000000" (* 1e22 *)
let max_drain_epochs = 200

(* Arrival rate per sidechain round (§6): ρ = ⌈V_D · b_t / 86400⌉. *)
let arrivals_per_round t =
  int_of_float
    (Float.ceil (float_of_int t.daily_volume *. t.sc_round_duration /. 86_400.0))

let epoch_duration t = float_of_int t.sc_rounds_per_epoch *. t.sc_round_duration
let generation_duration t = float_of_int t.epochs *. epoch_duration t
