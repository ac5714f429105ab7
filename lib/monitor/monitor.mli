(** Cross-layer runtime invariant auditor.

    Once per epoch the simulator hands the monitor a consistent view of
    every layer — the live AMM pool, the mainchain TokenBank, the
    sidechain's summary frontier and its pending quorum certificates —
    and the monitor re-checks the invariants that the safety argument
    rests on: token conservation across ledger / bank / pool reserves,
    pool solvency against the aggregate position value, epoch contiguity
    of the summary chain, and the validity of every pending quorum
    certificate.

    Violations are classified by severity. [Warning] is an expected
    transient (one epoch of sync lag, a degraded-quorum signature);
    [Degraded] is sustained lag that the watchdog should react to;
    [Fatal] is a broken safety invariant — conservation, solvency or an
    invalid certificate — and immediately halts the system. Every
    violation is exported as a [monitor.violation] structured event plus
    severity-bucketed counters on the run's telemetry sink. *)

type severity = Warning | Degraded | Fatal
type layer = Amm | Tokenbank | Sidechain | Mainchain | Consensus | Durability | Twin

type violation = {
  v_check : string;    (** stable check id, e.g. ["custody-conservation"] *)
  v_layer : layer;
  v_severity : severity;
  v_detail : string;
}

type report = {
  r_epoch : int;
  r_checks : int;               (** checks evaluated in this audit *)
  r_violations : violation list;
}

val layer_to_string : layer -> string

val worst : report -> severity option
(** The highest severity in the report, [None] if it is clean. *)

val has_fatal : report -> bool

(** Lag thresholds for the contiguity / liveness checks. *)
type thresholds = {
  lag_warning : int;   (** unapplied summary epochs before a Warning *)
  lag_degraded : int;  (** … before a Degraded violation *)
  signing_streak_degraded : int;
      (** consecutive degraded-quorum signings before a Degraded *)
}

type t

val create : ?thresholds:thresholds -> Telemetry.Report.sink -> t

val audit :
  t ->
  epoch:int ->
  now:float ->
  bank:Tokenbank.Token_bank.t ->
  pool:Uniswap.Pool.t ->
  last_summary_epoch:int ->
  pending:(Tokenbank.Sync_payload.t * Amm_crypto.Bls.signature) list ->
  deposit_horizon:int ->
  degraded_signing_streak:int ->
  committee_live:bool ->
  report
(** Runs every check against the epoch-start state. [last_summary_epoch]
    is the newest quorum-certified summary the sidechain has produced;
    [pending] is the chain of certified payloads not yet applied by the
    bank, oldest first; [deposit_horizon] bounds the epochs whose
    deposits can still be outstanding (for the conservation sum).
    [committee_live = false] (permanent loss or post-halt dissolution)
    skips the liveness checks — only the safety invariants still apply. *)

val custody_holds : bank:Tokenbank.Token_bank.t -> deposit_horizon:int -> bool
(** The audit's token-conservation check on its own: the bank's ERC20
    custody equals its pool reserves plus every deposit for epochs up to
    [deposit_horizon]. *)

val record_external :
  t ->
  now:float ->
  epoch:int ->
  severity:severity ->
  layer:layer ->
  check:string ->
  detail:string ->
  unit
(** Record a violation observed out-of-band by another subsystem (e.g.
    the durable store finding a corrupt snapshot during recovery).
    Counted and emitted exactly like an audit finding, but attached to
    no report — in particular it never drives the watchdog, which reacts
    only to audit reports. *)

val audits_run : t -> int
(** Audits run so far, read from the sink's [monitor.audits] counter. *)

val violation_totals : t -> (string * int) list
(** Cumulative violation counts per severity, read from the sink's
    [monitor.violations.*] counters and sorted by name —
    [[("degraded", _); ("fatal", _); ("warning", _)]] with zero entries
    omitted. *)
