(** Experiment configuration. The defaults reproduce the paper's setup
    (§6): 11 epochs of 10 mainchain rounds (30 sidechain rounds of 4 s),
    12 s mainchain blocks, 1 MB meta-blocks, 500-miner committees,
    100 users, and the measured Uniswap 2023 traffic distribution. *)

type distribution = {
  swap_pct : float;
  mint_pct : float;
  burn_pct : float;
  collect_pct : float;
}

(** Liveness-watchdog stall thresholds ({!System}'s operating-mode
    machine). "Stall" counts produced-but-unapplied summary epochs at an
    epoch boundary; the steady-state pipeline depth is one epoch of lag,
    so meaningful thresholds start at 2. The retry and signing thresholds
    are fixed parameters below. *)
type watchdog = {
  wd_stall_degraded : int;   (** stalled epochs before Normal → Degraded *)
  wd_stall_halted : int;     (** stalled epochs before → Halted *)
}

val default_watchdog : watchdog

type t = {
  seed : string;                   (** all randomness derives from this *)
  epochs : int;                    (** traffic-generation epochs *)
  sc_rounds_per_epoch : int;
  sc_round_duration : float;       (** seconds *)
  meta_block_bytes : int;
  mc_gas_limit : int;
  committee_size : int;
  miners : int;
  max_faulty : int;                (** f for the PBFT quorums *)
  users : int;
  daily_volume : int;              (** V_D *)
  distribution : distribution;
  verify_signatures : bool;        (** verify user signatures when processing *)
  threshold_signing : bool;        (** full DKG + t-of-n BLS for syncs; false =
                                       pre-generated committee key (the
                                       paper's PoC shortcut) *)
  message_level_consensus : bool;  (** run real PBFT per round instead of the
                                       latency model (small committees) *)
  self_audit : bool;               (** retain per-epoch state and replay every
                                       summary through {!Sidechain.Auditor} at
                                       the end of the run (small runs) *)
  twin_audit : bool;               (** run the state twin: a shadow copy of
                                       bank + pool + deposit state advanced from
                                       the live op stream and byte-compared
                                       against the flat stores at every epoch
                                       boundary (O(Δ) differential audit, with
                                       divergence bisection and watchdog
                                       escalation); on by default *)
  sign_transactions : bool;        (** generate real BLS signatures on traffic *)
  swap_deadline_rounds : int;      (** swap validity window in sc rounds *)
  faults : Faults.Fault_plan.spec; (** every injected fault, drawn (chaos
                                       rates) or scripted (interruptions,
                                       scenarios, crash and corruption
                                       scripts); {!Faults.Fault_plan.none}
                                       injects nothing *)
  mc_confirmations : int;          (** blocks burying a mainchain tx before it
                                       is final; raise for deeper-reorg chaos *)
  watchdog : watchdog;
}

val default : t

(** {1 Fixed parameters}

    The paper's setup (§6) fixes these, and no experiment varies them;
    the three watchdog thresholds are the simulator's own. *)

val mc_block_interval : float
(** Mainchain block interval: 12 s. *)

val wd_retry_degraded : int
(** Consecutive Sync retries before the watchdog degrades: 4. *)

val wd_retry_halted : int
(** Consecutive Sync retries before the watchdog halts: 8. *)

val wd_signing_streak : int
(** Consecutive degraded-quorum signings before the watchdog degrades: 4. *)

val consensus : Consensus.Latency_model.params
(** The committee network behind the latency model: 11 ms mean one-way
    message delay and 1 Gbit/s (125 MB/s) per node. *)

val lp_fraction : float
(** Share of users that also provide liquidity: 0.2. *)

val fee_pips : int
(** The pool's fee tier in hundredths of a basis point: 3000 (0.30 %). *)

val tick_spacing : int
(** The pool's tick spacing: 60, V3's spacing for the 0.30 % tier. *)

val max_positions_per_lp : int
(** Open-position cap per LP: 4. It bounds the summary size by the user
    population, the invariant behind Table 5. *)

val deposit_per_epoch : Amm_math.U256.t
(** Deposit per token, per user, per epoch: 1e22. *)

val max_drain_epochs : int
(** Cap on the queue-drain epochs after generation: 200. *)

val arrivals_per_round : t -> int
(** ρ = ⌈V_D · b_t / 86400⌉, the paper's constant arrival rate (§6). *)

val epoch_duration : t -> float
val generation_duration : t -> float
