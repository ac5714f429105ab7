(** Cross-layer safety audit and the run's violation ledger.

    Once per epoch the simulator hands the monitor the live AMM pool and
    the mainchain TokenBank, and the monitor re-checks the safety
    invariants it owns: token conservation across ledger / bank / pool
    reserves ([custody-conservation]), pool solvency against the
    aggregate position value ([pool-solvency]), and the pool's own
    structural invariants ([amm-liquidity], [amm-owed-solvency]). Each is
    [Fatal]: a broken safety invariant, on which the watchdog halts a
    Normal or Degraded system.

    The monitor is not the only checker. The TokenBank alone judges
    quorum certificates (at sync and at reconcile), the watchdog
    ([Ammboost.Watchdog]) alone grades liveness, and the state twin
    audits the stores. Their findings enter the same ledger through
    {!record_external}. [Warning] is an expected transient (a short sync
    lag, a degraded-quorum signature, a healed durable record); [Degraded] is sustained lag or a twin divergence that the
    watchdog reacts to. Every violation, audited or recorded, is
    exported as a [monitor.violation] structured event plus
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
  r_violations : violation list;
}

val layer_to_string : layer -> string

val has_fatal : report -> bool

type t

val create : Telemetry.Report.sink -> t

val audit :
  t ->
  epoch:int ->
  now:float ->
  bank:Tokenbank.Token_bank.t ->
  pool:Uniswap.Pool.t ->
  deposit_horizon:int ->
  report
(** Runs the four safety checks against the epoch-start state, in the
    order custody, bank solvency, pool liquidity, pool owed-solvency,
    and counts and emits each violation. [deposit_horizon] bounds the
    epochs whose deposits can still be outstanding (for the
    conservation sum). The checks hold whether or not the committee is
    live. *)

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
(** Record a violation found by another checker: the watchdog's
    liveness findings (recorded after the epoch's audit), the twin's
    divergence, the durable store's recovery notes. Counted and emitted
    exactly like an audit finding, but attached to no report. The
    watchdog judges its own findings and the twin's divergence itself;
    a recorded violation never reaches it through the monitor. *)

val audits_run : t -> int
(** Audits run so far, read from the sink's [monitor.audits] counter. *)

val violation_totals : t -> (string * int) list
(** Cumulative violation counts per severity, read from the sink's
    [monitor.violations.*] counters and sorted by name —
    [[("degraded", _); ("fatal", _); ("warning", _)]] with zero entries
    omitted. *)
