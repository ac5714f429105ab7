(* The ammBoost system simulator: epochs and rounds of the sidechain, the
   mainchain running in parallel, epoch-based deposits, committee election
   and key generation, meta/summary block production, Sync submission with
   mass-sync recovery, pruning on confirmation, and metric collection.

   This realizes the §3 API: SystemSetup/PartySetup happen in [create],
   CreateTx/VerifyTx in Traffic and Processor, UpdateState is meta/summary
   block production, Elect is the per-epoch sortition, and Prune fires when
   a Sync is confirmed. *)

module U256 = Amm_math.U256
module Rng = Amm_crypto.Rng
module Bls = Amm_crypto.Bls
module Address = Chain.Address
module Tx = Chain.Tx
module Eth = Mainchain.Eth
module Erc20 = Mainchain.Erc20
module Gas = Mainchain.Gas
module Token_bank = Tokenbank.Token_bank
module Sync_payload = Tokenbank.Sync_payload
module Processor = Sidechain.Processor
module Blocks = Sidechain.Blocks
module Tmetrics = Telemetry.Metrics
module Trace = Telemetry.Trace
module Log = Telemetry.Log
module Json = Telemetry.Json
module Growth_ledger = Observe.Growth_ledger
module Lifecycle = Observe.Lifecycle

let scope = "system"

(* Pre-resolved handles into the run's metrics registry, so the per-tx
   hot path pays a field access instead of a name lookup. The registry is
   the run's only counter store: the result reads its counts back from
   these handles. *)
type tele = {
  sink : Telemetry.Report.sink;
  tr : Trace.t;
  c_generated : Tmetrics.counter;
  c_processed : Tmetrics.counter;
  c_rejected : Tmetrics.counter;
  c_swaps : Tmetrics.counter;
  c_mints : Tmetrics.counter;
  c_burns : Tmetrics.counter;
  c_collects : Tmetrics.counter;
  c_sync_submitted : Tmetrics.counter;
  c_sync_applied : Tmetrics.counter;
  c_sync_failed : Tmetrics.counter;
  c_mass_syncs : Tmetrics.counter;
  c_pruned_epochs : Tmetrics.counter;
  c_deposits : Tmetrics.counter;
  c_rollbacks : Tmetrics.counter;
  c_sync_retries : Tmetrics.counter;
  c_degraded_signing : Tmetrics.counter;
  c_corrupted_partial : Tmetrics.counter;
  c_mode_transitions : Tmetrics.counter;
  c_exits : Tmetrics.counter;
  c_reconcile_applied : Tmetrics.counter;
  c_reconcile_voided : Tmetrics.counter;
  g_mode : Tmetrics.gauge;
  g_exit_value0 : Tmetrics.gauge;
  g_exit_value1 : Tmetrics.gauge;
  g_reconcile_voided0 : Tmetrics.gauge;
  g_reconcile_voided1 : Tmetrics.gauge;
  g_mempool_bytes : Tmetrics.gauge;
  h_recovery : Telemetry.Histogram.t;
  h_tx_latency : Telemetry.Histogram.t;
  h_consensus : Telemetry.Histogram.t;
  h_payout : Telemetry.Histogram.t;
  h_sync_inclusion : Telemetry.Histogram.t;
  h_meta_txs : Telemetry.Histogram.t;
  h_meta_bytes : Telemetry.Histogram.t;
  h_summary_bytes : Telemetry.Histogram.t;
  c_twin_audits : Tmetrics.counter;
  c_twin_divergences : Tmetrics.counter;
}

let make_tele sink =
  let reg = sink.Telemetry.Report.metrics in
  { sink; tr = sink.Telemetry.Report.trace;
    c_generated = Tmetrics.counter reg "traffic.generated";
    c_processed = Tmetrics.counter reg "txs.processed";
    c_rejected = Tmetrics.counter reg "txs.rejected";
    c_swaps = Tmetrics.counter reg "txs.swap";
    c_mints = Tmetrics.counter reg "txs.mint";
    c_burns = Tmetrics.counter reg "txs.burn";
    c_collects = Tmetrics.counter reg "txs.collect";
    c_sync_submitted = Tmetrics.counter reg "sync.submitted";
    c_sync_applied = Tmetrics.counter reg "sync.applied";
    c_sync_failed = Tmetrics.counter reg "sync.failed";
    c_mass_syncs = Tmetrics.counter reg "sync.mass";
    c_pruned_epochs = Tmetrics.counter reg "prune.epochs";
    c_deposits = Tmetrics.counter reg "deposits.submitted";
    c_rollbacks = Tmetrics.counter reg "interruption.rollbacks";
    c_sync_retries = Tmetrics.counter reg "recovery.sync_retries";
    c_degraded_signing = Tmetrics.counter reg "recovery.degraded_signing";
    c_corrupted_partial = Tmetrics.counter reg "recovery.corrupted_partial";
    c_mode_transitions = Tmetrics.counter reg "watchdog.transitions";
    c_exits = Tmetrics.counter reg "exit.served";
    c_reconcile_applied = Tmetrics.counter reg "reconcile.users.applied";
    c_reconcile_voided = Tmetrics.counter reg "reconcile.users.voided";
    g_mode = Tmetrics.gauge reg "watchdog.mode";
    g_exit_value0 = Tmetrics.gauge reg "exit.claims.value0";
    g_exit_value1 = Tmetrics.gauge reg "exit.claims.value1";
    g_reconcile_voided0 = Tmetrics.gauge reg "reconcile.voided.value0";
    g_reconcile_voided1 = Tmetrics.gauge reg "reconcile.voided.value1";
    g_mempool_bytes = Tmetrics.gauge reg "mempool.bytes";
    h_recovery = Tmetrics.histogram reg "latency.recovery.sync";
    h_tx_latency = Tmetrics.histogram reg "latency.tx.sidechain";
    h_consensus = Tmetrics.histogram reg "latency.consensus";
    h_payout = Tmetrics.histogram reg "latency.payout.epoch";
    h_sync_inclusion = Tmetrics.histogram reg "latency.sync.inclusion";
    h_meta_txs = Tmetrics.histogram reg "meta_block.txs";
    h_meta_bytes = Tmetrics.histogram reg "meta_block.bytes";
    h_summary_bytes = Tmetrics.histogram reg "summary_block.bytes";
    c_twin_audits = Tmetrics.counter reg "twin.audits";
    c_twin_divergences = Tmetrics.counter reg "twin.divergences" }

(* A Sync submission is in flight until it applies, fails or is dropped. *)
type submission = {
  sub_epochs : int list;
  mutable in_flight : bool;
}

(* Keep the raw signing material per epoch so fault injection can decide,
   at signing time, which share holders withhold their contribution. *)
type signer =
  | Plain_key of Bls.secret_key
  | Shared of { shares : Bls.share list; threshold : int }

(* What the self-audit (cfg.self_audit) replays for one epoch. Blocks
   store headers only, so the trail holds the bodies itself: each
   meta-block with its transactions, and the summary's payload. *)
type audit_entry = {
  a_pool : Uniswap.Pool.t;  (* epoch-start clone *)
  a_snapshot : Token_bank.snapshot;
  mutable a_metas : (Blocks.meta * Tx.t list) list;  (* newest first *)
  mutable a_payload : Sync_payload.t option;
}

type epoch_keys = {
  vk : Bls.public_key;
  commitments : Bls.commitments; (* [||] for Plain_key signing *)
  signer : signer;
}

type committee_record = {
  epoch : int;
  committee_size : int;
  leader : int;
}

(* The liveness watchdog's operating modes. Normal → Degraded on
   sustained sync lag, retry pressure or degraded-quorum signing;
   → Halted when the watchdog gives up on the committee (the bank
   freezes and parties exit on chain); Halted → Recovering when a
   reconciliation of the pending certified summaries lands; Recovering
   → Normal after a clean invariant audit. *)
type mode = Normal | Degraded | Halted | Recovering

let mode_name = function
  | Normal -> "normal"
  | Degraded -> "degraded"
  | Halted -> "halted"
  | Recovering -> "recovering"

let mode_rank = function Normal -> 0 | Degraded -> 1 | Halted -> 2 | Recovering -> 3

type result = {
  cfg : Config.t;
  generated : int;
  processed : int;
  rejected : int;
  throughput : float;
  mean_tx_latency : float;
  mean_payout_latency : float;
  payouts_settled : int;
  sc_cumulative_bytes : int;
  sc_stored_bytes : int;
  max_summary_block_bytes : int;
  summary_user_entries : int;
      (* user entries across every summary built this run — O(active)
         under delta summaries, epochs × population before them *)
  summary_user_entries_max : int;
  mc_tx_bytes : int;
  mc_gas_total : int;
  mc_gas_by_label : (string * int) list;
  mc_bytes_by_label : (string * int) list;
  deposit_gas_mean : float;
  deposit_latency_mean : float;
  sync_latency_mean : float;
  last_sync_receipt : Token_bank.sync_receipt option;
  sync_count : int;
  epochs_run : int;
  epochs_applied : int;
  mass_syncs : int;
  sync_retries : int;
  degraded_signings : int;
  corrupted_partials : int;
  rollbacks : int;
  faults_injected : (string * int) list;
  rejection_reasons : (string * int) list;
  custody_consistent : bool;
  audit_passed : bool option;
      (* Some true/false when cfg.self_audit; every epoch summary replayed *)
  final_mode : string;
  mode_transitions : (float * string) list;
      (* (time, mode entered), oldest first; empty when never left Normal *)
  monitor_audits : int;
  monitor_violations : (string * int) list;
  durability : (string * int) list;
      (* durability.* counters from the durable session (records
         appended/replayed/skipped, snapshots written/verified/healed/
         rejected, WAL repaired/dropped); empty for non-durable runs *)
  exits_served : int;
  exit_claims0 : U256.t;
  exit_claims1 : U256.t;
  exit_gas_mean : float;
  exit_conservation : bool;
  halted_at : float option;
  recovery_latency : float option;
  reconciliation : Token_bank.reconciliation option;
  committees : committee_record list;
  swaps : int;
  mints : int;
  burns : int;
  collects : int;
  growth : Growth_ledger.t;
      (* per-epoch state-growth ledger (also mirrored into the sink as
         "growth.*" series) *)
  lifecycle_sampled : int;
  lifecycle_seen : int;
  twin_audits : int;
  twin_divergences : int;
      (* divergent keys reported across all epoch-boundary twin audits *)
  twin_consistent : bool;
      (* no twin divergence all run; vacuously true when the twin is off.
         A fault-free run must end twin-consistent (zero false positives);
         a run with injected state corruption must not. *)
  twin_reports : Twin.report list;
      (* forensic divergence reports, oldest first *)
  twin_injections : (int * string) list;
      (* (epoch, key) of every silent state corruption actually landed,
         oldest first — the detection gate diffs this against
         [twin_reports] *)
  twin_view : Twin.view option;
      (* sealed-epoch snapshots for time-travel queries (custody_at,
         read_at, position_fees); None when the twin is off *)
  telemetry : Telemetry.Report.sink;
      (* the run's own sink; the counts above are read from its registry *)
}

type t = {
  cfg : Config.t;
  rng_traffic : Rng.t;
  rng_keys : Rng.t;
  rng_net : Rng.t;
  users : Party.user array;
  miners : Party.miner array;
  eth : Eth.t;
  erc0 : Erc20.t;
  erc1 : Erc20.t;
  bank : Token_bank.t;
  pool : Uniswap.Pool.t;
  sc_chain : Blocks.t;
  traffic : Traffic.t;
  mempool : Tx.t Chain.Mempool.t;
  payouts : Metrics.payout_tracker;
  committee_keys : (int, epoch_keys) Hashtbl.t;
  mutable committees : committee_record list;
  signed_payloads : (int, Sync_payload.t * Bls.signature) Hashtbl.t;
  mutable submissions : submission list;
      (* newest first; settled ones leave at the next submission *)
  mutable sync_attempts : int;
      (* Sync submissions so far: numbers each tag and drop decision *)
  mutable pending_confirm : (int list * int * float) list;
      (* epochs, inclusion height, inclusion time *)
  mutable checkpoints :
    (int * Token_bank.checkpoint * int * Twin.checkpoint option) list;
      (* height -> (state before, bank-op count before, twin mark before) *)
  mutable bank_ops : int;
      (* bank ops emitted on the surviving history (see [emit]) *)
  mutable deposits_submitted_until : int;
  rollbacks_done : (int, unit) Hashtbl.t;
  plan : Faults.Fault_plan.t;
  twin : Twin.t option;
      (* the state twin (cfg.twin_audit): advanced from the same op
         stream the live system applies, byte-compared against the flat
         stores at every epoch boundary *)
  mutable twin_divergence_streak : int;
      (* consecutive epoch audits ending in divergence; 2 halts the run *)
  mutable twin_reports : Twin.report list;     (* newest first *)
  mutable twin_injections : (int * string) list;  (* newest first *)
  monitor : Monitor.t;
  durable : Durable.Session.t option;
      (* crash-consistent persistence: every emitted bank op is also fed
         through the durable session (WAL verify-or-append), snapshots
         are taken at epoch boundaries, and the fault plan may kill the
         run at a round boundary via Session.maybe_crash *)
  mutable mode : mode;
  mutable mode_transitions : (float * mode) list;  (* newest first *)
  mutable signing_streak : int;
      (* consecutive epoch summaries signed with withheld shares *)
  mutable halted_at : float option;
  mutable recovered_at : float option;
  mutable dissolved : bool;
      (* the sidechain stopped for good: post-halt, or scripted
         permanent committee loss after the halt *)
  mutable reconcile_inflight : bool;
  mutable reconciliation : Token_bank.reconciliation option;
  mutable last_summary_epoch : int;
  mutable retry_attempt : int;
  mutable next_retry_at : float;
  mutable outage_start : float option;
  mutable summary_users_total : int;
  mutable summary_users_max : int;
  mutable max_sc_stored : int;
  mutable processed_in_window : int;
  growth : Growth_ledger.t;
  lifecycle : Lifecycle.t;
  mutable counterfactual_bytes : int;
      (* cumulative Sepolia-encoded bytes the included ops would have
         cost on the mainchain (the per-epoch analytic counterfactual) *)
  tele : tele;
  rejections : (string, int) Hashtbl.t;
  mutable last_sync_receipt : Token_bank.sync_receipt option;
  mutable audit_trail : audit_entry list;
}

(* The one record site for a bank op the live TokenBank just accepted:
   count it (the count is the mark a rollback's [Truncate] carries),
   advance the twin's replica in exactly the live application order, and
   feed the durable session, so the WAL is this op stream plus rollback
   compensations. *)
let emit t op =
  t.bank_ops <- t.bank_ops + 1;
  Option.iter (fun tw -> Twin.apply tw op) t.twin;
  Option.iter (fun s -> Durable.Session.record s (Durable.Record.Op op)) t.durable

(* Round-boundary crash injection: raises [Durable.Session.Crashed]. *)
let dur_crash t ~epoch ~round =
  match t.durable with
  | Some s -> Durable.Session.maybe_crash s ~plan:t.plan ~epoch ~round
  | None -> ()

let genesis_liquidity = U256.of_string "1000000000000000000000000" (* 1e24 per side *)
let faucet_amount = U256.of_string "1000000000000000000000000000000" (* 1e30 *)
let deposit_lead_seconds = 96.0

(* ------------------------------------------------------------------ *)
(* Committee machinery                                                 *)
(* ------------------------------------------------------------------ *)

let elect_committee t ~epoch ~now =
  let randomness = Amm_crypto.Sha256.digest_string (t.cfg.Config.seed ^ "/randomness") in
  let seed = Consensus.Election.seed_for_epoch ~randomness ~epoch in
  let credentials =
    Array.to_list
      (Array.map
         (fun (m : Party.miner) ->
           Consensus.Election.credential ~sk:m.Party.m_sk ~miner:m.Party.m ~seed)
         t.miners)
  in
  let committee, leader =
    Consensus.Election.elect ~credentials
      ~committee_size:(Stdlib.min t.cfg.Config.committee_size (Array.length t.miners))
  in
  let committee_size = List.length committee in
  t.committees <- { epoch; committee_size; leader } :: t.committees;
  Log.debug ~scope ~t:now
    ~fields:
      [ ("epoch", Json.Int epoch); ("committee", Json.Int committee_size);
        ("leader", Json.Int leader) ]
    "epoch started: committee elected"

let make_committee_keys ~cfg ~rng_keys ~epoch =
  let rng = Rng.split rng_keys (Printf.sprintf "committee-%d" epoch) in
  if cfg.Config.threshold_signing then begin
    let n = cfg.Config.committee_size in
    let threshold = Stdlib.min n ((2 * cfg.Config.max_faulty) + 2) in
    let vk, commitments, shares = Bls.dkg rng ~n ~threshold in
    { vk; commitments; signer = Shared { shares; threshold } }
  end
  else begin
    (* The paper's PoC signs Sync with a pre-generated key. *)
    let sk, vk = Bls.keygen rng in
    { vk; commitments = [||]; signer = Plain_key sk }
  end

let committee_keys t ~epoch =
  match Hashtbl.find_opt t.committee_keys epoch with
  | Some k -> k
  | None ->
    let keys = make_committee_keys ~cfg:t.cfg ~rng_keys:t.rng_keys ~epoch in
    Hashtbl.replace t.committee_keys epoch keys;
    keys

(* Threshold-sign the epoch summary. The fault plan may withhold up to
   min(f, n − threshold) shares and corrupt up to the surplus beyond the
   quorum among the remainder — the degraded-quorum path: corrupted
   partials fail [Bls.verify_partial] against the DKG commitments and
   are discarded, and any [threshold] distinct honest shares
   Lagrange-combine to the same group element, so the signature still
   verifies under the committee vk. *)
let sign_payload t ~epoch keys msg =
  match keys.signer with
  | Plain_key sk ->
    t.signing_streak <- 0;
    Bls.sign sk msg
  | Shared { shares; threshold } ->
    let n = List.length shares in
    let max_withheld = Stdlib.min t.cfg.Config.max_faulty (n - threshold) in
    let withheld =
      Faults.Fault_plan.withheld_shares t.plan ~epoch ~n ~max_withheld
    in
    let usable =
      if withheld = [] then shares
      else
        List.filter (fun s -> not (List.mem (Bls.share_index s) withheld)) shares
    in
    (* Byzantine members tamper their partials; cap keeps the honest
       remainder at or above the quorum. *)
    let max_corrupted =
      Stdlib.min t.cfg.Config.max_faulty (List.length usable - threshold)
    in
    let corrupted =
      Faults.Fault_plan.corrupted_shares t.plan ~epoch ~n ~max_corrupted
    in
    let partials =
      List.map
        (fun s ->
          let p = Bls.partial_sign s msg in
          if List.mem (Bls.share_index s) corrupted then Bls.tamper_partial p
          else p)
        usable
    in
    let verified =
      List.filter (Bls.verify_partial ~commitments:keys.commitments msg) partials
    in
    let caught = List.length partials - List.length verified in
    if caught > 0 then Tmetrics.inc ~by:caught t.tele.c_corrupted_partial;
    match Bls.combine ~threshold verified with
    | Some signature ->
      if withheld = [] && caught = 0 then t.signing_streak <- 0
      else begin
        t.signing_streak <- t.signing_streak + 1;
        Tmetrics.inc t.tele.c_degraded_signing;
        Log.warn ~scope
          ~fields:
            [ ("epoch", Json.Int epoch);
              ("withheld", Json.Int (List.length withheld));
              ("corrupted", Json.Int caught);
              ("quorum", Json.Int (List.length verified)) ]
          "degraded-quorum signing: shares withheld or corrupted"
      end;
      signature
    | None -> failwith "System: threshold combine failed"

(* Capped exponential backoff for Sync re-submission after an observed
   failure (dropped from the mempool, rejected on chain, reorged out). *)
let max_retry_exponent = 5

let schedule_retry t ~now =
  let mult = float_of_int (1 lsl Stdlib.min t.retry_attempt max_retry_exponent) in
  t.retry_attempt <- t.retry_attempt + 1;
  t.next_retry_at <- now +. (Config.mc_block_interval *. mult);
  if t.outage_start = None then t.outage_start <- Some now

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let create ~trace ?durable cfg =
  let sink = Telemetry.Report.sink ~trace () in
  let rng_root = Rng.create cfg.Config.seed in
  let rng_traffic = Rng.split rng_root "traffic" in
  let rng_keys = Rng.split rng_root "keys" in
  let rng_net = Rng.split rng_root "net" in
  let users = Party.make_users (Rng.split rng_root "users") ~count:cfg.Config.users
      ~lp_fraction:Config.lp_fraction in
  let miners = Party.make_miners (Rng.split rng_root "miners") ~count:cfg.Config.miners in
  let token0 = Chain.Token.make ~id:0 ~symbol:"TKA" in
  let token1 = Chain.Token.make ~id:1 ~symbol:"TKB" in
  let erc0 = Erc20.deploy token0 and erc1 = Erc20.deploy token1 in
  let eth = Eth.create ~interval:Config.mc_block_interval
      ~gas_limit:cfg.Config.mc_gas_limit ~k_depth:cfg.Config.mc_confirmations
      ~rng:rng_net () in
  let plan = Faults.Fault_plan.create ~seed:cfg.Config.seed cfg.Config.faults in
  (* The genesis committee's verification key is recorded at deploy
     (SystemSetup). *)
  let keys0 = make_committee_keys ~cfg ~rng_keys ~epoch:0 in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk:keys0.vk in
  let twin =
    if cfg.Config.twin_audit then
      Some
        (Twin.create ~seed:cfg.Config.seed ~genesis_committee_vk:keys0.vk
           ~flash_fee_pips:Config.fee_pips)
    else None
  in
  let pool =
    Uniswap.Pool.create
      ~pool_id:(Token_bank.create_pool bank ~flash_fee_pips:Config.fee_pips)
      ~token0 ~token1 ~fee_pips:Config.fee_pips
      ~tick_spacing:Config.tick_spacing ~sqrt_price:Amm_math.Q96.q96
  in
  let t =
    { cfg; rng_traffic; rng_keys; rng_net; users; miners; eth; erc0; erc1; bank; pool;
      sc_chain =
        Blocks.create
          ~mainchain_ref:(Amm_crypto.Sha256.digest_string (cfg.Config.seed ^ "/genesis"));
      traffic = Traffic.create ~rng:rng_traffic ~cfg ~users;
      mempool = Chain.Mempool.create ~size:(fun tx -> tx.Tx.wire_size);
      payouts = Metrics.payout_tracker ();
      committee_keys = Hashtbl.create 16; committees = [];
      signed_payloads = Hashtbl.create 16; submissions = []; sync_attempts = 0;
      pending_confirm = []; checkpoints = []; bank_ops = 0;
      deposits_submitted_until = -1;
      rollbacks_done = Hashtbl.create 4;
      plan; twin; twin_divergence_streak = 0; twin_reports = []; twin_injections = [];
      monitor =
        Monitor.create
          ~thresholds:
            { Monitor.lag_warning =
                Stdlib.max 1 (cfg.Config.watchdog.Config.wd_stall_degraded - 1);
              lag_degraded = cfg.Config.watchdog.Config.wd_stall_degraded;
              signing_streak_degraded = Config.wd_signing_streak }
          sink;
      durable;
      mode = Normal; mode_transitions = []; signing_streak = 0;
      halted_at = None; recovered_at = None; dissolved = false;
      reconcile_inflight = false; reconciliation = None;
      last_summary_epoch = -1; retry_attempt = 0; next_retry_at = Float.infinity;
      outage_start = None;
      summary_users_total = 0; summary_users_max = 0;
      max_sc_stored = 0; processed_in_window = 0;
      growth = Growth_ledger.create ~metrics:sink.Telemetry.Report.metrics ();
      lifecycle =
        Lifecycle.create ~metrics:sink.Telemetry.Report.metrics
          ~seed:cfg.Config.seed ();
      counterfactual_bytes = 0;
      tele = make_tele sink; rejections = Hashtbl.create 8;
      last_sync_receipt = None; audit_trail = [] }
  in
  Hashtbl.replace t.committee_keys 0 keys0;
  (* Faucet + unlimited approvals (users sign them once; the per-epoch
     deposit flow still models the approval round-trips for latency). *)
  Array.iter
    (fun (u : Party.user) ->
      Erc20.mint erc0 u.Party.address faucet_amount;
      Erc20.mint erc1 u.Party.address faucet_amount;
      Erc20.approve erc0 ~owner:u.Party.address ~spender:(Token_bank.address bank)
        U256.max_value;
      Erc20.approve erc1 ~owner:u.Party.address ~spender:(Token_bank.address bank)
        U256.max_value)
    t.users;
  (* Bootstrap deposits for epoch 0 (before mainchain time starts). *)
  Array.iter
    (fun (u : Party.user) ->
      let extra =
        if u.Party.user_index = 0 then U256.mul genesis_liquidity (U256.of_int 2)
        else U256.zero
      in
      let amount0 = U256.add Config.deposit_per_epoch extra in
      let amount1 = U256.add Config.deposit_per_epoch extra in
      match
        Token_bank.deposit t.bank ~user:u.Party.address ~for_epoch:0 ~amount0
          ~amount1
      with
      | Ok () ->
        emit t
          (Durable.Record.Deposit
             { user = u.Party.address; for_epoch = 0; amount0; amount1 })
      | Error e -> failwith ("System.create: bootstrap deposit failed: " ^ e))
    t.users;
  t.deposits_submitted_until <- 0;
  t

(* The genesis LP seeds the pool with a full-range position in round 0. *)
let genesis_mint_tx t =
  let lp = t.users.(0) in
  let sign = if t.cfg.Config.sign_transactions then Some lp.Party.sk else None in
  Tx.create ?sign ~issuer:lp.Party.address ~issuer_pk:lp.Party.pk ~pool:0 ~issued_round:0
    ~issued_at:0.0
    (Tx.Mint
       { lower_tick = -887220; upper_tick = 887220;
         amount0_desired = genesis_liquidity; amount1_desired = genesis_liquidity;
         target = Tx.New_position })

(* ------------------------------------------------------------------ *)
(* Deposits for upcoming epochs                                        *)
(* ------------------------------------------------------------------ *)

let submit_epoch_deposits t ~for_epoch ~at =
  (* ERC20 approvals are granted once at setup; the deposit's 4-leg flow
     still models the approval round-trips for latency, and — matching the
     paper's gas/growth accounting — only the deposit transaction itself
     is charged to the chain. *)
  Array.iter
    (fun (u : Party.user) ->
      let deposit_size = Chain.Encoding.envelope_size + Chain.Encoding.selector_size + 64 in
      let meter = Gas.meter () in
      (* Metering runs against current state at submission; execution moves
         the tokens when the transaction lands. *)
      let amount = Config.deposit_per_epoch in
      Eth.submit t.eth ~at
        { Eth.label = "deposit"; size_bytes = deposit_size;
          gas = Gas_model.paper_deposit_gas;
          flow_txs = Gas_model.deposit_flow_txs; tag = None;
          execute =
            Some
              (fun _height ->
                match
                  Token_bank.deposit ~meter t.bank ~user:u.Party.address ~for_epoch
                    ~amount0:amount ~amount1:amount
                with
                | Ok () ->
                  emit t
                    (Durable.Record.Deposit
                       { user = u.Party.address; for_epoch;
                         amount0 = amount; amount1 = amount })
                | Error e ->
                  (* Deposits in flight when the bank halts revert; any
                     other failure is a simulator bug. *)
                  if Token_bank.is_halted t.bank then
                    Log.warn ~scope ~t:(Eth.now t.eth)
                      ~fields:
                        [ ("user", Json.Int u.Party.user_index);
                          ("for_epoch", Json.Int for_epoch) ]
                      "deposit reverted: bank halted"
                  else failwith ("System: deposit failed: " ^ e)) })
    t.users

let maybe_submit_deposits t ~now =
  let dur = Config.epoch_duration t.cfg in
  let due epoch = (float_of_int epoch *. dur) -. deposit_lead_seconds -. dur in
  while due (t.deposits_submitted_until + 1) <= now do
    let e = t.deposits_submitted_until + 1 in
    submit_epoch_deposits t ~for_epoch:e ~at:now;
    Tmetrics.inc ~by:(Array.length t.users) t.tele.c_deposits;
    Trace.instant t.tele.tr ~cat:"mainchain" ~tid:2
      ~args:
        [ ("for_epoch", Json.Int e); ("users", Json.Int (Array.length t.users)) ]
      ~name:"deposits-submitted" ~ts:now ();
    Log.debug ~scope ~t:now
      ~fields:[ ("for_epoch", Json.Int e); ("users", Json.Int (Array.length t.users)) ]
      "epoch deposits submitted";
    t.deposits_submitted_until <- e
  done

(* ------------------------------------------------------------------ *)
(* Sync submission and confirmation                                    *)
(* ------------------------------------------------------------------ *)

let estimate_sync_gas payloads =
  List.fold_left
    (fun acc p ->
      let size = Sync_payload.abi_size p in
      acc + Gas.calldata_cost_of_size size + Gas.keccak_cost size + Gas.ec_mul
      + Gas.pairing_check
      + (Sync_payload.storage_words p * Gas.sstore_word)
      + (List.length p.Sync_payload.users * Gas.payout_transfer))
    Gas.tx_base payloads

let record_rejections t stats =
  List.iter
    (fun (reason, n) ->
      Hashtbl.replace t.rejections reason
        (n + Option.value ~default:0 (Hashtbl.find_opt t.rejections reason)))
    stats.Processor.rejection_reasons

let epochs_in_flight t =
  t.submissions <- List.filter (fun s -> s.in_flight) t.submissions;
  List.concat_map (fun s -> s.sub_epochs) t.submissions

let submit_sync t ~epoch ~at ~corrupt =
  let applied = Token_bank.last_synced_epoch t.bank in
  let in_flight = epochs_in_flight t in
  let wanted =
    (* Under permanent committee loss some epochs never produced a
       summary; only resubmittable (signed) epochs are wanted. *)
    List.filter
      (fun e -> (not (List.mem e in_flight)) && Hashtbl.mem t.signed_payloads e)
      (List.init (epoch - applied) (fun i -> applied + 1 + i))
  in
  if wanted <> [] then begin
    let mass = List.length wanted > 1 in
    if mass then begin
      Tmetrics.inc t.tele.c_mass_syncs;
      Log.warn ~scope ~t:at
        ~fields:
          [ ("epochs",
             Json.String (String.concat "," (List.map string_of_int wanted))) ]
        "mass-sync recovery: resubmitting unapplied epochs"
    end;
    let signed =
      List.map
        (fun e ->
          match Hashtbl.find_opt t.signed_payloads e with
          | Some sp -> sp
          | None -> failwith (Printf.sprintf "System: no signed payload for epoch %d" e))
        wanted
    in
    let signed =
      if not corrupt then signed
      else
        (* A malicious leader submits tampered balances: TokenBank must
           reject (signature no longer covers the payload). *)
        List.map
          (fun (p, s) ->
            ( { p with
                Sync_payload.pool_balance0 =
                  U256.add p.Sync_payload.pool_balance0 U256.one },
              s ))
          signed
    in
    let size =
      List.fold_left (fun acc (p, _) -> acc + Sync_payload.abi_size p) 0 signed
    in
    let attempt = t.sync_attempts in
    t.sync_attempts <- attempt + 1;
    let tag = Printf.sprintf "sync-%d-%d" epoch attempt in
    let submission = { sub_epochs = wanted; in_flight = true } in
    t.submissions <- submission :: t.submissions;
    Tmetrics.inc t.tele.c_sync_submitted;
    let span_name = if mass then "mass-sync" else "sync" in
    let span_args status =
      [ ("epochs", Json.String (String.concat "," (List.map string_of_int wanted)));
        ("bytes", Json.Int size); ("status", Json.String status) ]
    in
    let mc_epoch_at at = int_of_float (at /. Config.epoch_duration t.cfg) in
    if
      Faults.Fault_plan.sync_dropped t.plan ~epoch ~attempt
      || Faults.Fault_plan.sync_starved t.plan ~epoch:(mc_epoch_at at)
    then begin
      (* Mempool eviction (random drop, or a scripted quorum-starvation
         window): the transaction never reaches a block. The leader
         notices the missing receipt and retries with backoff. *)
      submission.in_flight <- false;
      Tmetrics.inc t.tele.c_sync_failed;
      Trace.complete t.tele.tr ~cat:"mainchain" ~tid:2
        ~args:(span_args "dropped") ~name:span_name ~ts:at ~dur:0.0 ();
      Log.warn ~scope ~t:at
        ~fields:[ ("tag", Json.String tag) ]
        "fault: sync transaction dropped from the mempool";
      schedule_retry t ~now:at
    end
    else
      Eth.submit t.eth ~at
        { Eth.label = "sync"; size_bytes = size;
          gas = estimate_sync_gas (List.map fst signed);
          flow_txs = Gas_model.sync_flow_txs; tag = Some tag;
          execute =
            Some
              (fun height ->
                (* Snapshot for rollback modeling before any state change,
                   paired with the bank-op count. *)
                t.checkpoints <-
                  (height, Token_bank.checkpoint t.bank, t.bank_ops,
                   Option.map Twin.checkpoint t.twin)
                  :: t.checkpoints;
                let time = Eth.now t.eth in
                let time = if time > at then time else at in
                match Token_bank.sync t.bank ~signed with
                | Ok receipt ->
                  submission.in_flight <- false;
                  t.last_sync_receipt <- Some receipt;
                  emit t (Durable.Record.Sync signed);
                  Tmetrics.inc t.tele.c_sync_applied;
                  List.iter
                    (fun (p, _) ->
                      Lifecycle.on_submitted t.lifecycle
                        ~epoch:p.Sync_payload.epoch ~at:time
                        ~l1_bytes:(Sync_payload.abi_size p))
                    signed;
                  Telemetry.Histogram.observe t.tele.h_sync_inclusion (time -. at);
                  (* An applied sync ends any submission outage. *)
                  t.retry_attempt <- 0;
                  t.next_retry_at <- Float.infinity;
                  (match t.outage_start with
                  | Some t0 ->
                    Telemetry.Histogram.observe t.tele.h_recovery (time -. t0);
                    t.outage_start <- None
                  | None -> ());
                  Trace.complete t.tele.tr ~cat:"mainchain" ~tid:2
                    ~args:(span_args "applied") ~name:span_name ~ts:at
                    ~dur:(time -. at) ();
                  t.pending_confirm <-
                    (receipt.Token_bank.epochs_covered, height, time)
                    :: t.pending_confirm
                | Error rejection ->
                  submission.in_flight <- false;
                  Tmetrics.inc t.tele.c_sync_failed;
                  let reg = t.tele.sink.Telemetry.Report.metrics in
                  Tmetrics.inc
                    (Tmetrics.counter reg
                       ("sync.rejected." ^ Token_bank.rejection_class rejection));
                  Trace.complete t.tele.tr ~cat:"mainchain" ~tid:2
                    ~args:(span_args "failed") ~name:span_name ~ts:at
                    ~dur:(time -. at) ();
                  Log.warn ~scope ~t:time
                    ~fields:
                      [ ("tag", Json.String tag);
                        ("class",
                         Json.String (Token_bank.rejection_class rejection));
                        ("reason",
                         Json.String (Token_bank.rejection_to_string rejection)) ]
                    "sync transaction failed on chain";
                  schedule_retry t ~now:time) }
  end

(* Retry pump: once the backoff deadline passes and summaries are still
   unapplied, re-submit (a mass-sync when several epochs are missing). *)
let maybe_retry_sync t ~now =
  if t.next_retry_at <= now then begin
    t.next_retry_at <- Float.infinity;
    if
      t.mode <> Halted && (not t.dissolved)
      && t.last_summary_epoch >= 0
      && Token_bank.last_synced_epoch t.bank < t.last_summary_epoch
    then begin
      Tmetrics.inc t.tele.c_sync_retries;
      Log.info ~scope ~t:now
        ~fields:
          [ ("attempt", Json.Int t.retry_attempt);
            ("target_epoch", Json.Int t.last_summary_epoch) ]
        "sync retry (capped exponential backoff)";
      submit_sync t ~epoch:t.last_summary_epoch ~at:now ~corrupt:false
    end
  end

(* Deterministic result ordering: Hashtbl-derived assoc lists are sorted
   by key so reports and tests never depend on iteration order. *)
let sorted_assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l
let sum_values l = List.fold_left (fun acc (_, v) -> acc + v) 0 l

(* One growth-ledger row: every layer's state footprint at an epoch
   boundary. Key names are the stable registry documented in DESIGN.md
   §4f; the checked-in guard baseline depends on them. The mainchain
   tables hold one entry per transaction label (at most four), so they
   are read whole. *)
let sample_growth t ~epoch ~now =
  let gas = sorted_assoc (Eth.gas_used_by_label t.eth) in
  let bytes = sorted_assoc (Eth.bytes_by_label t.eth) in
  let per_label prefix l = List.map (fun (k, v) -> (prefix ^ k, float_of_int v)) l in
  let fields =
    [ ("mc.bytes.total", float_of_int (sum_values bytes));
      ("mc.gas.total", float_of_int (sum_values gas));
      ("sc.cumulative_bytes", float_of_int (Blocks.cumulative_bytes t.sc_chain));
      ("sc.stored_bytes", float_of_int (Blocks.stored_bytes t.sc_chain));
      ("sc.meta_stored", float_of_int (Blocks.meta_count_stored t.sc_chain));
      ("summary.max_bytes", Telemetry.Histogram.max_value t.tele.h_summary_bytes);
      ("bank.storage_words", float_of_int (Token_bank.storage_words t.bank));
      ("bank.synced_epoch", float_of_int (Token_bank.last_synced_epoch t.bank));
      ("mempool.bytes", float_of_int (Chain.Mempool.byte_size t.mempool));
      ("baseline.bytes.sepolia", float_of_int t.counterfactual_bytes) ]
    @ per_label "mc.bytes." bytes @ per_label "mc.gas." gas
  in
  Growth_ledger.sample t.growth ~epoch ~t:now fields

(* Inclusion time isn't passed to the execute callback, so resolve it from
   the tag when settling. *)
let settle_confirmed t =
  let confirmed, still =
    List.partition (fun (_, h, _) -> h <= Eth.confirmed_height t.eth) t.pending_confirm
  in
  let now = Eth.now t.eth in
  List.iter
    (fun (epochs, _h, inclusion_time) ->
      Trace.complete t.tele.tr ~cat:"mainchain" ~tid:2
        ~args:
          [ ("epochs", Json.String (String.concat "," (List.map string_of_int epochs)))
          ]
        ~name:"confirm" ~ts:inclusion_time
        ~dur:(Float.max 0.0 (now -. inclusion_time))
        ();
      List.iter
        (fun e ->
          (match Metrics.pending_mean_issued t.payouts ~epoch:e with
          | Some (mean_issued, _n) ->
            Telemetry.Histogram.observe t.tele.h_payout (inclusion_time -. mean_issued)
          | None -> ());
          Metrics.settle_epoch t.payouts ~epoch:e ~sync_time:inclusion_time;
          (* Forks only abandon unconfirmed blocks, so no resubmission or
             reconciliation asks for a confirmed epoch's signed payload
             again. *)
          Hashtbl.remove t.signed_payloads e;
          Lifecycle.on_stage t.lifecycle ~epoch:e ~stage:Lifecycle.Confirmed
            ~at:now;
          let reclaimed = Blocks.prune_epoch t.sc_chain ~epoch:e in
          Lifecycle.on_stage t.lifecycle ~epoch:e ~stage:Lifecycle.Pruned ~at:now;
          Tmetrics.inc t.tele.c_pruned_epochs;
          Trace.complete t.tele.tr ~cat:"mainchain" ~tid:2
            ~args:[ ("epoch", Json.Int e); ("reclaimed_bytes", Json.Int reclaimed) ]
            ~name:"prune" ~ts:now ~dur:0.0 ();
          Log.debug ~scope ~t:now
            ~fields:
              [ ("epoch", Json.Int e); ("reclaimed_bytes", Json.Int reclaimed) ]
            "epoch confirmed: meta-blocks pruned")
        epochs)
    confirmed;
  t.pending_confirm <- still;
  (* Checkpoints at or below the confirmed frontier can never be restored
     (forks only abandon unconfirmed blocks): release the newest of them
     so the bank's undo journal stays bounded by the unconfirmed window. *)
  let frontier = Eth.confirmed_height t.eth in
  let dead, live =
    List.partition (fun (h, _, _, _) -> h <= frontier) t.checkpoints
  in
  match dead with
  | (_, ck, _, tck) :: _ ->
    (* Newest-first list: the head of [dead] is the youngest retired
       checkpoint; releasing it drops the journal history below it. *)
    Token_bank.release_checkpoint t.bank ck;
    (match (t.twin, tck) with
    | Some tw, Some tc -> Twin.release tw tc
    | _ -> ());
    t.checkpoints <- live
  | [] -> ()

(* Fork switch abandoning every block from [height] to the tip: restore
   TokenBank (and the bank-op count) to the paired pre-sync checkpoint,
   forget the orphaned syncs' pending confirmations, and arm the retry
   machinery; the re-submission happens via retry or the normal
   mass-sync path. *)
let rollback_to t ~height =
  let n = Eth.height t.eth - height + 1 in
  if n > 0 then begin
    Tmetrics.inc t.tele.c_rollbacks;
    let _dropped = Eth.rollback t.eth n in
    (match List.find_opt (fun (h, _, _, _) -> h = height) t.checkpoints with
    | Some (_, ck, mark, tck) ->
      Token_bank.restore t.bank ck;
      t.bank_ops <- mark;
      (* The twin rewinds its replica and bank shadow in step, recording
         a synthetic rollback op so bisection stays truthful. *)
      (match (t.twin, tck) with
      | Some tw, Some tc -> Twin.restore tw tc
      | _ -> ());
      (* The WAL cannot un-append: a reorg is logged as a compensation
         record so replay reproduces the truncation deterministically. *)
      Option.iter
        (fun s -> Durable.Session.record s (Durable.Record.Truncate { keep = mark }))
        t.durable
    | None -> ());
    (* Checkpoints at or past the fork point refer to abandoned blocks. *)
    t.checkpoints <- List.filter (fun (h, _, _, _) -> h < height) t.checkpoints;
    t.pending_confirm <- List.filter (fun (_, h', _) -> h' < height) t.pending_confirm;
    schedule_retry t ~now:(Eth.now t.eth)
  end

(* Fault-plan reorgs, scripted or drawn: an unconfirmed sync whose newest
   epoch is fated to reorg is rolled back once the fork reaches the fated
   depth. A scripted rollback has depth 1, so it fires as soon as its
   sync lands; raise [mc_confirmations] to widen the window for drawn
   depths. At most one reorg fires per round. *)
let inject_reorgs t =
  (* Past a halt the checkpoints no longer describe the system state
     (the halt and the exits are not in them), so reorgs stop. *)
  if t.mode = Halted || t.dissolved then ()
  else
    match
    List.find_map
      (fun (epochs, h, _) ->
        let key_epoch = List.fold_left Stdlib.max 0 epochs in
        if Hashtbl.mem t.rollbacks_done key_epoch then None
        else
          match Faults.Fault_plan.reorg_depth t.plan ~epoch:key_epoch with
          | Some depth when Eth.height t.eth - h + 1 >= depth ->
            Some (key_epoch, h, depth)
          | _ -> None)
      t.pending_confirm
  with
  | None -> ()
  | Some (epoch, h, depth) ->
    Hashtbl.replace t.rollbacks_done epoch ();
    Faults.Fault_plan.note t.plan "mainchain.reorg" 1;
    Log.warn ~scope ~t:(Eth.now t.eth)
      ~fields:[ ("epoch", Json.Int epoch); ("depth", Json.Int depth) ]
      "fault: mainchain reorg abandons sync inclusion";
    rollback_to t ~height:h

(* ------------------------------------------------------------------ *)
(* Liveness watchdog: operating modes, emergency exit, reconciliation  *)
(* ------------------------------------------------------------------ *)

let set_mode t m ~now ~reason =
  if m <> t.mode then begin
    Log.warn ~scope ~t:now
      ~fields:
        [ ("from", Json.String (mode_name t.mode));
          ("to", Json.String (mode_name m));
          ("reason", Json.String reason) ]
      "watchdog: operating-mode transition";
    Trace.instant t.tele.tr ~cat:"watchdog" ~tid:2
      ~args:[ ("to", Json.String (mode_name m)); ("reason", Json.String reason) ]
      ~name:"mode-transition" ~ts:now ();
    Tmetrics.inc t.tele.c_mode_transitions;
    Tmetrics.set t.tele.g_mode (float_of_int (mode_rank m));
    t.mode <- m;
    t.mode_transitions <- (now, m) :: t.mode_transitions
  end

(* Certified summaries the bank has not applied, oldest first — the
   monitor audits their certificate chain and a reconciliation replays
   them wholesale. *)
let pending_signed t =
  let applied = Token_bank.last_synced_epoch t.bank in
  List.filter_map
    (fun e -> Hashtbl.find_opt t.signed_payloads e)
    (List.init
       (Stdlib.max 0 (t.last_summary_epoch - applied))
       (fun i -> applied + 1 + i))

(* Emergency exit: one on-chain withdrawal per party against the frozen
   bank state. Gas is estimated with the same EVM-schedule terms the
   bank meters on execution. *)
let submit_exit t (u : Party.user) ~at =
  let npos =
    List.fold_left
      (fun n (p : Sync_payload.position_entry) ->
        if Address.equal p.Sync_payload.owner u.Party.address then n + 1 else n)
      0 (Token_bank.positions t.bank)
  in
  let calldata = Chain.Encoding.selector_size + 32 in
  let gas =
    Gas.tx_base + Gas.calldata_cost_of_size calldata + Gas.sstore_word
    + (npos * ((8 * Gas.sload) + Gas.sstore_update))
    + (2 * Gas.payout_transfer)
  in
  Eth.submit t.eth ~at
    { Eth.label = "exit"; size_bytes = Chain.Encoding.envelope_size + calldata;
      gas; flow_txs = 1; tag = None;
      execute =
        Some
          (fun _height ->
            let time = Eth.now t.eth in
            match Token_bank.emergency_exit t.bank ~claimant:u.Party.address with
            | Ok claim ->
              emit t (Durable.Record.Exit { claimant = u.Party.address });
              Tmetrics.inc t.tele.c_exits;
              Tmetrics.add_gauge t.tele.g_exit_value0
                (U256.to_float (U256.add claim.Token_bank.claim0 claim.Token_bank.refund0));
              Tmetrics.add_gauge t.tele.g_exit_value1
                (U256.to_float (U256.add claim.Token_bank.claim1 claim.Token_bank.refund1));
              Log.info ~scope ~t:time
                ~fields:
                  [ ("user", Json.Int u.Party.user_index);
                    ("claim0", Json.String (U256.to_string claim.Token_bank.claim0));
                    ("claim1", Json.String (U256.to_string claim.Token_bank.claim1));
                    ("positions_closed",
                     Json.Int claim.Token_bank.positions_closed);
                    ("gas", Json.Int (Gas.total claim.Token_bank.exit_gas)) ]
                "emergency exit served"
            | Error rejection ->
              Log.warn ~scope ~t:time
                ~fields:
                  [ ("user", Json.Int u.Party.user_index);
                    ("reason",
                     Json.String (Token_bank.rejection_to_string rejection)) ]
                "emergency exit rejected") }

(* Halting: freeze the bank at its synced frontier, dissolve the
   sidechain (pending traffic is void — parties are made whole on the
   mainchain instead) and submit every party's exit. *)
let enter_halt t ~now ~reason =
  set_mode t Halted ~now ~reason;
  (* Both timestamps describe the latest halt. *)
  t.halted_at <- Some now;
  t.recovered_at <- None;
  t.dissolved <- true;
  Chain.Mempool.clear t.mempool;
  t.next_retry_at <- Float.infinity;
  let frontier = Token_bank.last_synced_epoch t.bank in
  (match Token_bank.halt t.bank ~epoch:frontier with
  | Ok () -> emit t (Durable.Record.Halt { epoch = frontier })
  | Error rejection ->
    Log.warn ~scope ~t:now
      ~fields:
        [ ("reason", Json.String (Token_bank.rejection_to_string rejection)) ]
      "halt refused by the bank");
  Array.iter (fun u -> submit_exit t u ~at:now) t.users

(* While Halted, each epoch boundary retries the reconciliation: the
   pending certified summaries are replayed wholesale against the frozen
   bank, netting out the parties that already exited. The submission is
   subject to the same starvation window as the syncs. *)
let submit_reconcile t ~epoch ~at =
  let pending = pending_signed t in
  if pending <> [] && not t.reconcile_inflight then begin
    if Faults.Fault_plan.sync_starved t.plan ~epoch then
      Log.warn ~scope ~t:at
        ~fields:[ ("epoch", Json.Int epoch) ]
        "reconcile submission starved (quorum-starvation window)"
    else begin
      t.reconcile_inflight <- true;
      let size =
        List.fold_left (fun acc (p, _) -> acc + Sync_payload.abi_size p) 0 pending
      in
      Eth.submit t.eth ~at
        { Eth.label = "reconcile"; size_bytes = size;
          gas = estimate_sync_gas (List.map fst pending);
          flow_txs = 1; tag = None;
          execute =
            Some
              (fun _height ->
                t.reconcile_inflight <- false;
                let time = Eth.now t.eth in
                match Token_bank.reconcile t.bank ~signed:pending with
                | Ok r ->
                  t.reconciliation <- Some r;
                  t.recovered_at <- Some time;
                  emit t (Durable.Record.Reconcile pending);
                  Tmetrics.inc ~by:r.Token_bank.rec_users_applied
                    t.tele.c_reconcile_applied;
                  Tmetrics.inc ~by:r.Token_bank.rec_users_voided
                    t.tele.c_reconcile_voided;
                  Tmetrics.add_gauge t.tele.g_reconcile_voided0
                    (U256.to_float r.Token_bank.rec_voided0);
                  Tmetrics.add_gauge t.tele.g_reconcile_voided1
                    (U256.to_float r.Token_bank.rec_voided1);
                  Log.info ~scope ~t:time
                    ~fields:
                      [ ("epochs",
                         Json.String
                           (String.concat ","
                              (List.map string_of_int r.Token_bank.rec_epochs)));
                        ("users_applied", Json.Int r.Token_bank.rec_users_applied);
                        ("users_voided", Json.Int r.Token_bank.rec_users_voided) ]
                    "reconciliation applied: bank un-halted";
                  set_mode t Recovering ~now:time
                    ~reason:"pending summaries reconciled"
                | Error rejection ->
                  Log.warn ~scope ~t:time
                    ~fields:
                      [ ("reason",
                         Json.String (Token_bank.rejection_to_string rejection)) ]
                    "reconciliation failed on chain") }
    end
  end

(* The per-epoch watchdog tick: run the cross-layer audit, then drive
   the operating-mode machine from its verdicts plus the sync-stall and
   retry pressure. "Stall" counts summary epochs the bank is behind the
   wall clock; the steady-state pipeline depth is one epoch. *)
let watchdog_tick t ~epoch:e ~now ~committee_live =
  let report =
    Monitor.audit t.monitor ~epoch:e ~now ~bank:t.bank ~pool:t.pool
      ~last_summary_epoch:t.last_summary_epoch ~pending:(pending_signed t)
      ~deposit_horizon:t.deposits_submitted_until
      ~degraded_signing_streak:t.signing_streak ~committee_live
  in
  let w = t.cfg.Config.watchdog in
  let stall = e - 1 - Token_bank.last_synced_epoch t.bank in
  let fatal = Monitor.has_fatal report in
  let degraded_violation =
    List.exists
      (fun v -> v.Monitor.v_severity = Monitor.Degraded)
      report.Monitor.r_violations
  in
  match t.mode with
  | Normal | Degraded ->
    if fatal then enter_halt t ~now ~reason:"monitor: fatal invariant violation"
    else if stall >= w.Config.wd_stall_halted then
      enter_halt t ~now
        ~reason:(Printf.sprintf "sync stalled for %d epochs" stall)
    else if t.retry_attempt >= Config.wd_retry_halted then
      enter_halt t ~now
        ~reason:(Printf.sprintf "sync retries exhausted (%d)" t.retry_attempt)
    else begin
      let degrade_reason =
        if degraded_violation then Some "monitor: degraded violation"
        else if stall >= w.Config.wd_stall_degraded then
          Some (Printf.sprintf "sync stalled for %d epochs" stall)
        else if t.retry_attempt >= Config.wd_retry_degraded then
          Some (Printf.sprintf "%d consecutive sync retries" t.retry_attempt)
        else if t.signing_streak >= Config.wd_signing_streak then
          Some
            (Printf.sprintf "%d consecutive degraded-quorum signings"
               t.signing_streak)
        else None
      in
      match degrade_reason with
      | Some reason -> set_mode t Degraded ~now ~reason
      | None ->
        if
          t.mode = Degraded && stall <= 1
          && t.retry_attempt < Config.wd_retry_degraded
        then set_mode t Normal ~now ~reason:"stall cleared; audit clean"
    end
  | Halted -> submit_reconcile t ~epoch:e ~at:now
  | Recovering ->
    if report.Monitor.r_violations = [] then
      set_mode t Normal ~now ~reason:"clean audit after reconciliation"

(* ------------------------------------------------------------------ *)
(* The state twin: op capture, fault injection, epoch-boundary audit   *)
(* ------------------------------------------------------------------ *)

(* After-images of the pool state an op wrote: the pool's scalars plus
   every position and tick in its drained write set. *)
let pool_images t (wpos, wticks) =
  (Twin.Pool_scalars, Some (Durable.State_codec.pool_bytes t.pool))
  :: (List.map
        (fun pid -> (Twin.Pool_pos pid, Uniswap.Pool.position_bytes t.pool pid))
        wpos
     @ List.map (fun k -> (Twin.Pool_tick k, Uniswap.Pool.tick_bytes t.pool k)) wticks)

(* Per-transaction op capture, fired by the processor tap after every
   attempt — a rejected swap has already mutated pool state before the
   router's slippage check, so rejected attempts are captured too (with
   a "!rejected" label suffix). Records the after-images of everything
   the transaction touched. *)
let twin_tx_tap t tw deposits ~label ~user ~ok =
  let writes = Uniswap.Pool.drain_op_writes t.pool in
  Twin.record tw
    ~label:(if ok then label else label ^ "!rejected")
    ((Twin.Dep_row user, Sidechain.Deposits.row_image deposits user)
     :: pool_images t writes)

(* Summary construction reads fee state through the pool, which marks
   position writes (fee checkpoint updates). Record them as one op so
   the audit window stays closed over every legitimate write. *)
let twin_record_summary_touch t tw =
  match Uniswap.Pool.drain_op_writes t.pool with
  | [], [] -> ()
  | writes -> Twin.record tw ~label:"summary.build" (pool_images t writes)

(* Silent state corruption: a seeded bit-flip landed directly in a flat
   store behind the system's back — no transaction, no log record. Only
   meaningful when the twin is armed to catch it. The flip lands on the
   audit surface (dirty marks) but on no op's write set, so the audit
   sees a key the twin never captured — or captured differently. *)
let inject_corruption t ~deposits ~epoch ~round =
  match t.twin with
  | None -> ()
  | Some _ ->
    (match Faults.Fault_plan.corrupt_state t.plan ~epoch ~round with
    | None -> ()
    | Some (target, index, bit) ->
      let landed =
        match target with
        | Faults.Fault_plan.Deposit_row ->
          (match deposits with
          | None -> None
          | Some d ->
            Option.map
              (fun u -> "dep:" ^ Address.to_hex u)
              (Sidechain.Deposits.corrupt_bit d ~index ~bit))
        | Faults.Fault_plan.Position_slab ->
          Option.map
            (fun pid -> "bank.pos:" ^ Chain.Ids.Position_id.to_hex pid)
            (Tokenbank.Pos_store.corrupt_bit
               (Token_bank.positions_store t.bank) ~index ~bit)
        | Faults.Fault_plan.Pool_tick ->
          Option.map
            (fun k -> "tick:" ^ string_of_int k)
            (Uniswap.Pool.corrupt_tick_bit t.pool ~index ~bit)
      in
      match landed with
      | None -> ()   (* the selected store was empty; nothing flipped *)
      | Some key ->
        let label = Faults.Fault_plan.corruption_target_label target in
        Faults.Fault_plan.note t.plan ("state.corruption." ^ label) 1;
        t.twin_injections <- (epoch, key) :: t.twin_injections;
        Log.warn ~scope ~t:(Eth.now t.eth)
          ~fields:
            [ ("epoch", Json.Int epoch); ("round", Json.Int round);
              ("target", Json.String label); ("key", Json.String key);
              ("bit", Json.Int bit) ]
          "state corruption injected")

(* The epoch-boundary differential audit: byte-compare the twin's
   shadow against the live flat stores over exactly the keys written
   this window (by ops or by the live side's own dirty marks), then
   seal the epoch and clear the live audit surfaces. Divergence is
   forensically logged, surfaces through the monitor as a Degraded
   violation, and a repeat halts the system — a corrupted store must
   never reach the mainchain twice. *)
let twin_audit_epoch t ~deposits ~epoch ~now =
  match t.twin with
  | None -> ()
  | Some tw ->
    let live =
      { Twin.live_dep =
          (fun u ->
            match deposits with Some d -> Sidechain.Deposits.row_image d u | None -> None);
        live_dep_dirty =
          (fun () -> Option.fold ~none:[] ~some:Sidechain.Deposits.dirty_users deposits);
        live_pool_pos = (fun pid -> Uniswap.Pool.position_bytes t.pool pid);
        live_pool_tick = (fun k -> Uniswap.Pool.tick_bytes t.pool k);
        live_pool_writes = (fun () -> Uniswap.Pool.audit_writes t.pool);
        live_pool_scalars = (fun () -> Durable.State_codec.pool_bytes t.pool);
        live_bank_meta = (fun () -> Durable.State_codec.bank_meta_bytes t.bank);
        live_bank_pos =
          (fun pid ->
            Tokenbank.Pos_store.row_image (Token_bank.positions_store t.bank)
              pid);
        live_bank_dirty =
          (fun () ->
            Tokenbank.Pos_store.dirty_ids (Token_bank.positions_store t.bank));
      }
    in
    let reports = Twin.audit tw ~epoch live in
    Uniswap.Pool.clear_audit_writes t.pool;
    Tokenbank.Pos_store.clear_dirty (Token_bank.positions_store t.bank);
    Option.iter Sidechain.Deposits.clear_dirty deposits;
    Tmetrics.inc t.tele.c_twin_audits;
    (match reports with
    | [] -> t.twin_divergence_streak <- 0
    | _ :: _ ->
      t.twin_reports <- List.rev_append reports t.twin_reports;
      t.twin_divergence_streak <- t.twin_divergence_streak + 1;
      Tmetrics.inc ~by:(List.length reports) t.tele.c_twin_divergences;
      List.iter
        (fun r ->
          Log.error ~scope ~t:now
            ~fields:[ ("report", Json.String (Twin.report_to_string r)) ]
            "twin divergence")
        reports;
      Monitor.record_external t.monitor ~now ~epoch ~severity:Monitor.Degraded
        ~layer:Monitor.Twin ~check:"twin.divergence"
        ~detail:(Twin.report_to_string (List.hd reports));
      if not t.dissolved then begin
        if t.twin_divergence_streak >= 2 then
          enter_halt t ~now ~reason:"twin: repeated state divergence"
        else set_mode t Degraded ~now ~reason:"twin: state divergence detected"
      end)

(* ------------------------------------------------------------------ *)
(* The main loop                                                       *)
(* ------------------------------------------------------------------ *)

type boundary = {
  b_epoch : int;
  b_retained_words : unit -> int;
  b_twin : Twin.t option;
}

(* A live epoch's state: the processor that executes its transactions
   against the bank snapshot, and the self-audit trail entry its blocks
   are recorded into. Arms the twin's op capture and takes the durable
   snapshot due at this boundary. *)
let begin_live_epoch t ~epoch:e =
  let cfg = t.cfg in
  let snapshot = Token_bank.snapshot t.bank ~epoch:e in
  let audit_entry =
    if cfg.Config.self_audit then begin
      let entry =
        { a_pool = Uniswap.Pool.clone t.pool; a_snapshot = snapshot;
          a_metas = []; a_payload = None }
      in
      t.audit_trail <- entry :: t.audit_trail;
      Some entry
    end
    else None
  in
  let processor =
    (* Positions in still-unapplied summaries stay "changed" relative
       to the bank snapshot even if this epoch never touches them: feed
       them to the incremental summary builder as carry. *)
    let pending = List.map fst (pending_signed t) in
    let carry =
      List.concat_map
        (fun p -> List.map (fun e -> e.Sync_payload.pos_id) p.Sync_payload.positions)
        pending
    in
    let user_carry =
      List.concat_map
        (fun p -> List.map (fun u -> u.Sync_payload.user) p.Sync_payload.users)
        pending
    in
    Processor.begin_epoch ~pool:t.pool ~snapshot ~carry ~user_carry
      ~verify_signatures:cfg.Config.verify_signatures ()
  in
  (* Arm the twin's op capture for the epoch. The fresh deposit table
     marks every row dirty at construction; those rows are derived
     from the bank snapshot the sync path already audits, so they are
     not window ops — clear the marks before the first transaction
     lands and audit only rows the epoch actually writes. *)
  (match t.twin with
  | Some tw ->
    let deposits = Processor.deposits processor in
    Sidechain.Deposits.clear_dirty deposits;
    Processor.set_tap processor (twin_tx_tap t tw deposits)
  | None -> ());
  (* Durable snapshot at the epoch boundary (the deposits view is the
     processor's, i.e. post-begin_epoch). Committee-less epochs skip
     snapshots; the cadence is identical in an uninterrupted run, so
     resume-time verification lines up byte-for-byte. *)
  (match t.durable with
  | Some s when Durable.Session.snapshot_due s ~epoch:e ->
    Durable.Session.snapshot s ~epoch:e
      ~sections:
        (Durable.State_codec.sections ~bank:t.bank ~pool:t.pool
           ~deposits:(Processor.deposits processor)
           ~pending:(pending_signed t))
  | _ -> ());
  (processor, audit_entry)

(* One round's block in a live epoch. The committee drains the queue up
   to the meta-block capacity and processes with the AMM logic; only
   valid transactions enter the block. In the last round of the epoch
   the committee mines the summary-block instead of a meta-block
   (chainBoost/ammBoost block structure), so no transactions are
   processed in that round. *)
let produce_block t ~committee ~censoring (processor, audit_entry) ~epoch:e ~round:r
    ~t_round =
  let cfg = t.cfg and tele = t.tele in
  let spr = cfg.Config.sc_rounds_per_epoch and b_t = cfg.Config.sc_round_duration in
  let round = (e * spr) + r in
  let summary_round = r = spr - 1 in
  let candidates =
    if summary_round then []
    else Chain.Mempool.take_up_to t.mempool ~max_bytes:cfg.Config.meta_block_bytes
  in
  (* A censoring committee omits the victim's transactions; they stay
     pending (the user rebroadcasts) and the next epoch's committee
     processes them - the Lemma 2 liveness argument. *)
  let candidates =
    if not censoring then candidates
    else begin
      let victim = t.users.(0).Party.address in
      let kept, censored =
        List.partition
          (fun tx -> not (Address.equal tx.Tx.issuer victim))
          candidates
      in
      List.iter (fun tx -> Chain.Mempool.push t.mempool tx) censored;
      kept
    end
  in
  let included =
    List.filter
      (fun tx ->
        match Processor.process processor ~current_round:round tx with
        | Ok () -> true
        | Error _ -> false)
      candidates
  in
  if e < cfg.Config.epochs then
    t.processed_in_window <- t.processed_in_window + List.length included;
  (* Agreement on the block: message-level PBFT when configured,
     otherwise the closed-form latency model. *)
  let consensus_latency, view_changes =
    match committee with
    | Some c ->
      let digest =
        Amm_crypto.Sha256.concat
          (Bytes.of_string (Printf.sprintf "round-%d" round)
          :: List.map (fun tx -> Chain.Ids.Tx_id.to_bytes tx.Tx.id) included)
      in
      (* Plan-driven per-round replica faults: crashed members,
         a Byzantine proposer, and message-level network chaos. *)
      let silent =
        Faults.Fault_plan.crashed_members t.plan ~epoch:e ~round
          ~members:(Sidechain.Committee.members c)
          ~max_faulty:(Sidechain.Committee.max_faulty c)
      in
      let invalid_proposer =
        Faults.Fault_plan.byzantine_proposer t.plan ~epoch:e ~round
      in
      let chaos =
        Faults.Fault_plan.net_chaos t.plan ~epoch:e ~round
          ~members:(Sidechain.Committee.members c)
      in
      let o =
        Sidechain.Committee.agree ~silent ~invalid_proposer ?chaos c
          ~block_digest:digest ~horizon:b_t
      in
      ((if o.Sidechain.Committee.decided then o.Sidechain.Committee.latency else b_t),
       o.Sidechain.Committee.view_changes)
    | None ->
      let size =
        Blocks.meta_header_size
        + List.fold_left (fun acc tx -> acc + tx.Tx.wire_size) 0 included
      in
      ( Consensus.Latency_model.consensus_latency Config.consensus
          ~committee_size:cfg.Config.committee_size ~block_bytes:size,
        0 )
  in
  let meta = Blocks.make_meta ~epoch:e ~round ~view_changes included in
  Telemetry.Histogram.observe tele.h_consensus consensus_latency;
  if not summary_round then begin
    Blocks.append_meta t.sc_chain meta;
    Telemetry.Histogram.observe tele.h_meta_txs
      (float_of_int (List.length included));
    Telemetry.Histogram.observe tele.h_meta_bytes
      (float_of_int meta.Blocks.m_size);
    Trace.complete tele.tr
      ~args:
        [ ("txs", Json.Int (List.length included));
          ("bytes", Json.Int meta.Blocks.m_size);
          ("view_changes", Json.Int view_changes);
          ("consensus_latency", Json.Float consensus_latency) ]
      ~name:"meta-block"
      ~ts:(t_round +. (0.35 *. b_t))
      ~dur:(Float.min consensus_latency (0.65 *. b_t))
      ();
    match audit_entry with
    | Some a -> a.a_metas <- (meta, included) :: a.a_metas
    | None -> ()
  end;
  List.iter
    (fun tx ->
      let latency = t_round -. tx.Tx.issued_at +. consensus_latency in
      Telemetry.Histogram.observe tele.h_tx_latency latency;
      Metrics.note_processed t.payouts ~epoch:e ~issued_at:tx.Tx.issued_at;
      t.counterfactual_bytes <-
        t.counterfactual_bytes
        + Chain.Encoding.sepolia_op_size (Tx.op_of_payload tx.Tx.payload);
      Lifecycle.on_included t.lifecycle
        ~id:(Chain.Ids.Tx_id.to_bytes tx.Tx.id)
        ~cls:(Tx.type_name tx.Tx.payload) ~issued_at:tx.Tx.issued_at
        ~wire:tx.Tx.wire_size ~epoch:e
        ~at:(t_round +. consensus_latency))
    included;
  if Blocks.stored_bytes t.sc_chain > t.max_sc_stored then
    t.max_sc_stored <- Blocks.stored_bytes t.sc_chain;
  (* End of round: a silent corruption may land in a flat store —
     out-of-band, on no transaction's write set. The epoch-boundary
     audit must catch it. *)
  inject_corruption t ~deposits:(Some (Processor.deposits processor))
    ~epoch:e ~round:r

(* End of a live epoch: summary block, threshold signature, Sync
   submission. *)
let finish_epoch t (processor, audit_entry) ~epoch:e =
  let cfg = t.cfg and tele = t.tele in
  let spr = cfg.Config.sc_rounds_per_epoch and b_t = cfg.Config.sc_round_duration in
  let epoch_dur = Config.epoch_duration cfg in
  let epoch_start = float_of_int e *. epoch_dur in
  let epoch_end = float_of_int (e + 1) *. epoch_dur in
  let next_keys = committee_keys t ~epoch:(e + 1) in
  let payload =
    Processor.build_payload processor ~epoch:e ~next_committee_vk:next_keys.vk
  in
  Option.iter (twin_record_summary_touch t) t.twin;
  let keys = committee_keys t ~epoch:e in
  let signature = sign_payload t ~epoch:e keys (Sync_payload.signing_bytes payload) in
  (* The epoch's key material signs nothing after its summary. *)
  Hashtbl.remove t.committee_keys e;
  Hashtbl.replace t.signed_payloads e (payload, signature);
  t.last_summary_epoch <- e;
  let s_size = Sidechain.Codec.summary_block_size payload in
  let n_users = List.length payload.Sync_payload.users in
  t.summary_users_total <- t.summary_users_total + n_users;
  if n_users > t.summary_users_max then t.summary_users_max <- n_users;
  Telemetry.Histogram.observe tele.h_summary_bytes (float_of_int s_size);
  (* The summary round (last of the epoch) splits into summary build
     and threshold signing on the simulated timeline. *)
  let t_summary = epoch_start +. (float_of_int (spr - 1) *. b_t) in
  Trace.complete tele.tr
    ~args:
      [ ("epoch", Json.Int e); ("bytes", Json.Int s_size);
        ("users", Json.Int n_users);
        ("positions", Json.Int (List.length payload.Sync_payload.positions)) ]
    ~name:"summary" ~ts:t_summary ~dur:(0.5 *. b_t) ();
  Trace.complete tele.tr
    ~args:[ ("threshold", Json.Bool cfg.Config.threshold_signing) ]
    ~name:"sign"
    ~ts:(t_summary +. (0.5 *. b_t))
    ~dur:(0.5 *. b_t) ();
  Lifecycle.on_stage t.lifecycle ~epoch:e ~stage:Lifecycle.Summarized
    ~at:t_summary;
  Blocks.append_summary t.sc_chain
    { Blocks.s_epoch = e; s_size;
      s_rounds_covered = (e * spr, ((e + 1) * spr) - 1) };
  Option.iter (fun a -> a.a_payload <- Some payload) audit_entry;
  let silent = Faults.Fault_plan.silent_leader t.plan ~epoch:e in
  let corrupt = (not silent) && Faults.Fault_plan.corrupt_sync t.plan ~epoch:e in
  if not silent then submit_sync t ~epoch:e ~at:epoch_end ~corrupt;
  let stats = Processor.stats processor in
  record_rejections t stats;
  Tmetrics.inc ~by:stats.Processor.processed tele.c_processed;
  Tmetrics.inc ~by:stats.Processor.rejected tele.c_rejected;
  Tmetrics.inc ~by:stats.Processor.swaps tele.c_swaps;
  Tmetrics.inc ~by:stats.Processor.mints tele.c_mints;
  Tmetrics.inc ~by:stats.Processor.burns tele.c_burns;
  Tmetrics.inc ~by:stats.Processor.collects tele.c_collects;
  Trace.complete tele.tr ~cat:"epoch"
    ~args:
      [ ("epoch", Json.Int e); ("processed", Json.Int stats.Processor.processed);
        ("rejected", Json.Int stats.Processor.rejected) ]
    ~name:(Printf.sprintf "epoch-%d" e)
    ~ts:epoch_start ~dur:epoch_dur ();
  Log.info ~scope ~t:epoch_end
    ~fields:
      [ ("epoch", Json.Int e); ("processed", Json.Int stats.Processor.processed);
        ("rejected", Json.Int stats.Processor.rejected);
        ("summary_bytes", Json.Int s_size) ]
    "epoch complete"

(* One epoch: elect its committee and tick the watchdog at the
   boundary, then run its rounds. Every round advances the mainchain,
   fires due reorgs, settles confirmations, retries syncs and, until the
   sidechain dissolves, submits deposits and issues traffic. A live
   epoch also produces each round's block and the summary; a
   committee-less one (lost, or dissolved by a halt) produces nothing,
   while deposits, retries and reconciliations still pump. Either way
   the twin audits the epoch's bank ops at its end, sealing it for time
   travel. *)
let run_epoch t ~committee ~epoch:e =
  let cfg = t.cfg and tele = t.tele in
  let spr = cfg.Config.sc_rounds_per_epoch and b_t = cfg.Config.sc_round_duration in
  let epoch_dur = Config.epoch_duration cfg in
  let epoch_start = float_of_int e *. epoch_dur in
  let lost = Faults.Fault_plan.committee_lost t.plan ~epoch:e in
  if not (t.dissolved || lost) then elect_committee t ~epoch:e ~now:epoch_start;
  Eth.advance_to t.eth epoch_start;
  (* Gas-limit congestion window: congested epochs mine under a reduced
     limit, restored at the next non-congested epoch start. *)
  if Faults.Fault_plan.congested t.plan ~epoch:e then begin
    let limit = (Faults.Fault_plan.spec t.plan).Faults.Fault_plan.mainchain
                  .Faults.Fault_plan.congestion_gas_limit in
    if limit > 0 && limit < cfg.Config.mc_gas_limit then begin
      Eth.set_gas_limit t.eth limit;
      Log.warn ~scope ~t:epoch_start
        ~fields:[ ("epoch", Json.Int e); ("gas_limit", Json.Int limit) ]
        "fault: gas-limit congestion window"
    end
  end
  else if Eth.gas_limit t.eth <> cfg.Config.mc_gas_limit then
    Eth.set_gas_limit t.eth cfg.Config.mc_gas_limit;
  settle_confirmed t;
  sample_growth t ~epoch:e ~now:epoch_start;
  watchdog_tick t ~epoch:e ~now:epoch_start
    ~committee_live:(not (t.dissolved || lost));
  (* The tick may just have halted and dissolved the sidechain. *)
  let live = if t.dissolved || lost then None else Some (begin_live_epoch t ~epoch:e) in
  let censoring = live <> None && Faults.Fault_plan.censoring t.plan ~epoch:e in
  for r = 0 to spr - 1 do
    dur_crash t ~epoch:e ~round:r;
    let round = (e * spr) + r in
    let t_round = epoch_start +. (float_of_int r *. b_t) in
    Eth.advance_to t.eth t_round;
    inject_reorgs t;
    settle_confirmed t;
    maybe_retry_sync t ~now:t_round;
    if not t.dissolved then begin
      maybe_submit_deposits t ~now:t_round;
      (* Without a committee parties keep issuing: the backlog they
         accumulate is voided at dissolution and settled by the exits. *)
      if e < cfg.Config.epochs then begin
        let generated =
          Traffic.iter_round t.traffic ~round ~time:t_round
            (Chain.Mempool.push t.mempool)
        in
        Tmetrics.inc ~by:generated tele.c_generated;
        Trace.complete tele.tr
          ~args:
            [ ("generated", Json.Int generated); ("round", Json.Int round) ]
          ~name:"traffic" ~ts:t_round ~dur:(0.35 *. b_t) ()
      end
    end;
    Tmetrics.set tele.g_mempool_bytes
      (float_of_int (Chain.Mempool.byte_size t.mempool));
    match live with
    | Some l -> produce_block t ~committee ~censoring l ~epoch:e ~round:r ~t_round
    | None -> ()
  done;
  Option.iter (fun l -> finish_epoch t l ~epoch:e) live;
  (* Even a committee-less epoch gets its audit: bank ops (exits,
     reconciles) still flowed, and the twin must confirm nothing else
     moved. *)
  twin_audit_epoch t
    ~deposits:(Option.map (fun (p, _) -> Processor.deposits p) live)
    ~epoch:e ~now:(float_of_int (e + 1) *. epoch_dur)

let run ?(trace = false) ?durable ?at_boundary cfg =
  let t = create ~trace ?durable cfg in
  let tele = t.tele in
  (* Whatever recovery found wrong on disk — rejected snapshots, torn
     WAL tails — surfaces as durability violations before the run
     starts. Warning severity: the data was recovered or healed, and the
     watchdog only reacts to audit-report violations. *)
  (match t.durable with
  | Some s ->
    List.iter
      (fun (check, detail) ->
        Monitor.record_external t.monitor ~now:0.0 ~epoch:0
          ~severity:Monitor.Warning ~layer:Monitor.Durability ~check ~detail)
      (Durable.Recovery.notes (Durable.Session.report s))
  | None -> ());
  let committee =
    if cfg.Config.message_level_consensus then
      Some
        (Sidechain.Committee.create
           ~rng:(Rng.split t.rng_net "committee-consensus")
           ~members:(Stdlib.min cfg.Config.committee_size 25)
           ~max_faulty:(Stdlib.min cfg.Config.max_faulty 8)
           ~delta:(2.0 *. Config.consensus.Consensus.Latency_model.mean_delay)
           ~timeout:(cfg.Config.sc_round_duration /. 4.0))
    else None
  in
  let epoch_dur = Config.epoch_duration cfg in
  let epoch = ref 0 in
  let continue = ref true in
  Chain.Mempool.push t.mempool (genesis_mint_tx t);
  while !continue do
    let e = !epoch in
    run_epoch t ~committee ~epoch:e;
    Option.iter
      (fun f ->
        f { b_epoch = e;
            b_retained_words =
              (fun () -> Obj.reachable_words (Obj.repr (t, committee)));
            b_twin = t.twin })
      at_boundary;
    (* Stop once generation is done and the queue has drained (the paper
       empties the queues to measure comparable latency). *)
    epoch := e + 1;
    if !epoch >= cfg.Config.epochs && Chain.Mempool.is_empty t.mempool then
      continue := false;
    if !epoch >= cfg.Config.epochs + Config.max_drain_epochs then continue := false
  done;
  (* Let the final syncs land and confirm. *)
  let final_time =
    (float_of_int !epoch *. epoch_dur) +. (10.0 *. Config.mc_block_interval)
  in
  Eth.advance_to t.eth final_time;
  (* Recovery passes in case the final epochs were interrupted; bounded
     retries because the plan may also drop the recovery submissions. *)
  if t.mode <> Halted then
    submit_sync t ~epoch:(!epoch - 1) ~at:final_time ~corrupt:false;
  Eth.advance_to t.eth (final_time +. (5.0 *. Config.mc_block_interval));
  let recovery_tries = ref 0 in
  while
    t.mode <> Halted
    && t.last_summary_epoch >= 0
    && Token_bank.last_synced_epoch t.bank < t.last_summary_epoch
    && !recovery_tries < 5
  do
    incr recovery_tries;
    Tmetrics.inc t.tele.c_sync_retries;
    submit_sync t ~epoch:t.last_summary_epoch ~at:(Eth.now t.eth) ~corrupt:false;
    Eth.advance_to t.eth (Eth.now t.eth +. (5.0 *. Config.mc_block_interval))
  done;
  (* Still Halted with certified-but-unapplied summaries: keep trying
     the reconciliation a bounded number of times (the starvation window
     may cover the whole run, in which case the halt is terminal). *)
  let reconcile_tries = ref 0 in
  while t.mode = Halted && pending_signed t <> [] && !reconcile_tries < 5 do
    incr reconcile_tries;
    let now = Eth.now t.eth in
    submit_reconcile t ~epoch:(int_of_float (now /. epoch_dur)) ~at:now;
    Eth.advance_to t.eth (now +. (5.0 *. Config.mc_block_interval))
  done;
  settle_confirmed t;
  (* Final differential audit over the drain tail: the recovery passes
     above applied more bank ops (syncs, reconciles, exits) outside the
     epoch loop. *)
  twin_audit_epoch t ~deposits:None ~epoch:!epoch ~now:(Eth.now t.eth);
  (* Closing ledger row after the drain: the final state footprint. *)
  sample_growth t ~epoch:!epoch ~now:(Eth.now t.eth);
  (* Custody invariant: bank ERC20 holdings = pool balances + remaining
     (future-epoch) deposits. *)
  let custody_consistent =
    Monitor.custody_holds ~bank:t.bank ~deposit_horizon:t.deposits_submitted_until
  in
  (* Self-audit: replay every retained epoch and check its summary. *)
  let audit_passed =
    if not cfg.Config.self_audit then None
    else
      Some
        (List.for_all
           (fun a ->
             match a.a_payload with
             | None -> false
             | Some payload ->
               Sidechain.Auditor.verify_summary ~pool_at_start:a.a_pool
                 ~snapshot:a.a_snapshot ~metas:(List.rev a.a_metas) ~payload
               = Ok ())
           t.audit_trail)
  in
  let faults_injected = Faults.Fault_plan.injected t.plan in
  let gas_by_label = sorted_assoc (Eth.gas_used_by_label t.eth) in
  let bytes_by_label = sorted_assoc (Eth.bytes_by_label t.eth) in
  let reg = tele.sink.Telemetry.Report.metrics in
  let final_gauge name v = Tmetrics.set (Tmetrics.gauge reg name) v in
  final_gauge "sidechain.cumulative_bytes"
    (float_of_int (Blocks.cumulative_bytes t.sc_chain));
  final_gauge "sidechain.stored_bytes" (float_of_int (Blocks.stored_bytes t.sc_chain));
  final_gauge "sidechain.max_stored_bytes" (float_of_int t.max_sc_stored);
  final_gauge "mainchain.gas_total" (float_of_int (Eth.gas_used_total t.eth));
  final_gauge "mainchain.bytes_total" (float_of_int (sum_values bytes_by_label));
  final_gauge "epochs.applied" (float_of_int (Token_bank.last_synced_epoch t.bank + 1));
  final_gauge "custody.consistent" (if custody_consistent then 1.0 else 0.0);
  let exit_list = Token_bank.exits t.bank in
  let exits_served = List.length exit_list in
  let exit_claims0, exit_claims1 =
    List.fold_left
      (fun (a0, a1) (c : Token_bank.exit_claim) ->
        ( U256.add a0 (U256.add c.Token_bank.claim0 c.Token_bank.refund0),
          U256.add a1 (U256.add c.Token_bank.claim1 c.Token_bank.refund1) ))
      (U256.zero, U256.zero) exit_list
  in
  let exit_gas_mean =
    if exits_served = 0 then 0.0
    else
      float_of_int
        (List.fold_left
           (fun acc (c : Token_bank.exit_claim) ->
             acc + Gas.total c.Token_bank.exit_gas)
           0 exit_list)
      /. float_of_int exits_served
  in
  let exit_conservation = Token_bank.exit_conservation_ok t.bank in
  let durability =
    match t.durable with
    | Some s ->
      Durable.Session.finish s;
      Durable.Session.stats s
    | None -> []
  in
  List.iter (fun (name, v) -> final_gauge name (float_of_int v)) durability;
  final_gauge "watchdog.final_mode" (float_of_int (mode_rank t.mode));
  final_gauge "exit.conservation" (if exit_conservation then 1.0 else 0.0);
  List.iter
    (fun (label, n) -> Tmetrics.inc ~by:n (Tmetrics.counter reg ("faults." ^ label)))
    faults_injected;
  let count = Tmetrics.counter_value in
  let twin_divergences = count tele.c_twin_divergences in
  let twin_consistent = twin_divergences = 0 in
  final_gauge "twin.consistent" (if twin_consistent then 1.0 else 0.0);
  { cfg;
    generated = Traffic.generated t.traffic;
    processed = count tele.c_processed;
    rejected = count tele.c_rejected;
    throughput = float_of_int t.processed_in_window /. Config.generation_duration cfg;
    mean_tx_latency = Telemetry.Histogram.mean tele.h_tx_latency;
    mean_payout_latency = Metrics.payout_mean t.payouts;
    payouts_settled = Metrics.payout_count t.payouts;
    sc_cumulative_bytes = Blocks.cumulative_bytes t.sc_chain;
    sc_stored_bytes = Blocks.stored_bytes t.sc_chain;
    max_summary_block_bytes =
      int_of_float (Telemetry.Histogram.max_value tele.h_summary_bytes);
    summary_user_entries = t.summary_users_total;
    summary_user_entries_max = t.summary_users_max;
    mc_tx_bytes = sum_values bytes_by_label;
    mc_gas_total = Eth.gas_used_total t.eth;
    mc_gas_by_label = gas_by_label;
    mc_bytes_by_label = bytes_by_label;
    deposit_gas_mean =
      (match List.assoc_opt "deposit" gas_by_label with
      | Some g ->
        float_of_int g
        /. float_of_int (Stdlib.max 1 (Eth.included_count ~label:"deposit" t.eth))
      | None -> 0.0);
    deposit_latency_mean = Option.value ~default:0.0 (Eth.mean_latency t.eth "deposit");
    sync_latency_mean = Option.value ~default:0.0 (Eth.mean_latency t.eth "sync");
    last_sync_receipt = t.last_sync_receipt;
    sync_count = count tele.c_sync_applied;
    epochs_run = !epoch;
    epochs_applied = Token_bank.last_synced_epoch t.bank + 1;
    mass_syncs = count tele.c_mass_syncs;
    sync_retries = count tele.c_sync_retries;
    degraded_signings = count tele.c_degraded_signing;
    corrupted_partials = count tele.c_corrupted_partial;
    rollbacks = count tele.c_rollbacks;
    faults_injected;
    rejection_reasons =
      sorted_assoc (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rejections []);
    custody_consistent;
    audit_passed;
    final_mode = mode_name t.mode;
    mode_transitions =
      List.rev_map (fun (ts, m) -> (ts, mode_name m)) t.mode_transitions;
    monitor_audits = Monitor.audits_run t.monitor;
    monitor_violations = Monitor.violation_totals t.monitor;
    durability;
    exits_served;
    exit_claims0;
    exit_claims1;
    exit_gas_mean;
    exit_conservation;
    halted_at = t.halted_at;
    recovery_latency =
      (match (t.halted_at, t.recovered_at) with
      | Some h, Some r -> Some (r -. h)
      | _ -> None);
    reconciliation = t.reconciliation;
    committees = List.rev t.committees;
    swaps = count tele.c_swaps; mints = count tele.c_mints;
    burns = count tele.c_burns; collects = count tele.c_collects;
    growth = t.growth;
    lifecycle_sampled = Lifecycle.sampled_count t.lifecycle;
    lifecycle_seen = Lifecycle.seen_count t.lifecycle;
    twin_audits = count tele.c_twin_audits;
    twin_divergences;
    twin_consistent;
    twin_reports = List.rev t.twin_reports;
    twin_injections = List.rev t.twin_injections;
    twin_view = Option.map Twin.view t.twin;
    telemetry = tele.sink }
