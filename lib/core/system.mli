(** The ammBoost system simulator — the §3 functionality realized over
    the substrates: SystemSetup/PartySetup in [run]'s setup phase,
    CreateTx/VerifyTx in the traffic generator and processor, UpdateState
    as meta/summary block production, Elect as per-epoch VRF sortition,
    and Prune on Sync confirmation.

    One call to {!run} simulates the configured epochs (plus queue-drain
    epochs, as the paper empties queues before measuring latency), the
    mainchain running in parallel, epoch deposits, Sync submission with
    mass-sync recovery from interruptions, pruning, and metric
    collection. Runs are deterministic in the configuration seed. *)

(** One epoch's election. The membership itself is not kept — it is a
    pure function of the seed and the epoch, and a run of hundreds of
    epochs would otherwise hold [committee_size] ids for each. *)
type committee_record = {
  epoch : int;
  committee_size : int;  (** miners elected *)
  leader : int;
}

type result = {
  cfg : Config.t;
  generated : int;
  processed : int;
  rejected : int;
  throughput : float;
      (** transactions processed within the generation window / its duration *)
  mean_tx_latency : float;
      (** submission → meta-block inclusion (the paper's sidechain latency) *)
  mean_payout_latency : float;
      (** submission → Sync inclusion on the mainchain *)
  payouts_settled : int;
  sc_cumulative_bytes : int;   (** all sidechain blocks ever produced *)
  sc_stored_bytes : int;       (** after pruning *)
  max_summary_block_bytes : int;
  summary_user_entries : int;
      (** user entries across every summary built this run — O(active)
          under delta summaries, epochs × population before them *)
  summary_user_entries_max : int;
  mc_tx_bytes : int;           (** mainchain growth: deposits + syncs *)
  mc_gas_total : int;
  mc_gas_by_label : (string * int) list;
  mc_bytes_by_label : (string * int) list;
  deposit_gas_mean : float;
  deposit_latency_mean : float;
  sync_latency_mean : float;
  last_sync_receipt : Tokenbank.Token_bank.sync_receipt option;
  sync_count : int;
  epochs_run : int;
  epochs_applied : int;        (** epochs whose Sync landed on TokenBank *)
  mass_syncs : int;            (** recovery syncs covering multiple epochs *)
  sync_retries : int;          (** backoff re-submissions after observed
                                   sync failures (drop/reject/reorg) *)
  degraded_signings : int;     (** summaries signed with withheld or
                                   corrupted shares *)
  corrupted_partials : int;    (** tampered partial signatures caught by
                                   [Bls.verify_partial] and discarded *)
  rollbacks : int;             (** mainchain forks rolled back: the fault
                                   plan's reorgs, scripted or drawn *)
  faults_injected : (string * int) list;
      (** per-label injection counts from the fault plan, sorted *)
  rejection_reasons : (string * int) list;
  custody_consistent : bool;
      (** TokenBank ERC20 custody = pool balances + outstanding deposits *)
  audit_passed : bool option;
      (** with [Config.self_audit]: every epoch's summary re-derived from
          its meta-blocks by {!Sidechain.Auditor} and matched *)
  final_mode : string;
      (** {!Watchdog.mode_name} of the final operating mode *)
  mode_transitions : (float * string) list;
      (** (time, mode entered), oldest first; empty if never left Normal *)
  monitor_audits : int;         (** cross-layer invariant audits run *)
  monitor_violations : (string * int) list;
      (** cumulative violations per severity, zero entries omitted *)
  durability : (string * int) list;
      (** [durability.*] counters from the durable session — records
          appended / replayed / skipped, snapshots written / verified /
          healed / rejected, WAL segments repaired / dropped; empty for
          non-durable runs *)
  exits_served : int;           (** emergency exits applied while Halted *)
  exit_claims0 : Amm_math.U256.t;  (** total value withdrawn via exits *)
  exit_claims1 : Amm_math.U256.t;
  exit_gas_mean : float;        (** mean metered gas per exit *)
  exit_conservation : bool;
      (** custody at halt = custody now + everything paid out since *)
  halted_at : float option;     (** time of the latest halt *)
  recovery_latency : float option;
      (** latest halt → the reconciliation that ended it, if one did *)
  reconciliation : Tokenbank.Token_bank.reconciliation option;
  committees : committee_record list;
  swaps : int;
  mints : int;
  burns : int;
  collects : int;
  growth : Observe.Growth_ledger.t;
      (** per-epoch state-growth ledger: one row sampled at each epoch
          boundary (plus a closing row after the drain) with
          bytes/gas/storage-word fields per layer; mirrored into the
          metrics sink as ["growth.*"] time series *)
  lifecycle_sampled : int;
      (** ops the deterministic 1-in-8 lifecycle sampler kept *)
  lifecycle_seen : int;  (** all included ops the tracer counted *)
  twin_audits : int;
      (** epoch-boundary differential audits run by the state twin *)
  twin_divergences : int;
      (** divergent keys reported across all twin audits; nonzero means
          live state and the twin's shadow disagreed byte-for-byte *)
  twin_consistent : bool;  (** [twin_divergences = 0] *)
  twin_reports : Twin.report list;
      (** every forensic divergence report, oldest first *)
  twin_injections : (int * string) list;
      (** (epoch, key) of every state corruption that actually landed,
          oldest first — key strings match {!Twin.key_to_string}, so the
          twin-audit gate can diff this against [twin_reports] *)
  twin_view : Twin.view option;
      (** the twin's sealed-epoch time-travel view ([None] when
          [Config.twin_audit] is off) *)
  telemetry : Telemetry.Report.sink;
      (** the run's own sink. Its metrics registry (counters, gauges,
          latency/size histograms, growth series) is the only place the
          run counts: [processed], [rejected], [swaps]…[collects],
          [mass_syncs], [sync_retries], [degraded_signings],
          [corrupted_partials], [rollbacks], [monitor_audits],
          [twin_audits], [twin_divergences], [mean_tx_latency] and
          [max_summary_block_bytes] are read from it. Callers that
          aggregate several runs absorb it with
          {!Telemetry.Report.merge_into}, in submission order. *)
}

(** What {!run} shows a caller at each epoch boundary, after the epoch's
    twin audit. *)
type boundary = {
  b_epoch : int;
  b_retained_words : unit -> int;
      (** words reachable from the run's whole state
          ([Obj.reachable_words]): a walk of everything the run holds,
          for tests and memory probes, not for hot paths *)
  b_twin : Twin.t option;  (** the run's state twin, when on *)
}

val run :
  ?trace:bool -> ?durable:Durable.Session.t -> ?at_boundary:(boundary -> unit) ->
  Config.t -> result
(** [run ?trace cfg] simulates the system into a sink of its own,
    returned as [result.telemetry]; no state is shared with any other
    run, so concurrent runs cannot interleave their series. With
    [trace] (default [false]) the sink's tracer records simulated-clock
    phase spans (traffic, meta-block, summary, sign, sync, confirm,
    prune) exportable as Chrome trace JSON. Metrics snapshots are
    deterministic in the configuration seed.

    When [durable] is given, the run is crash-consistent: every
    accepted TokenBank op goes through the session's write-ahead
    log (verify-or-append against what a previous incarnation left on
    disk), epoch boundaries take checksummed snapshots on the session's
    cadence, and the fault plan's durability class may kill the run at a
    round boundary — {!Durable.Session.Crashed} escapes [run], and a
    fresh session over the same directory resumes by integrity-checked
    re-execution.

    [at_boundary], when given, is called at every epoch boundary (see
    {!boundary}); it only observes, and the run is the same with or
    without it. *)
