(** The liveness watchdog: the one owner of liveness at runtime.

    A pure state machine over per-epoch observations. It grades the
    liveness findings ([summary-liveness], [sync-liveness],
    [degraded-signing]), decides the operating-mode transitions, and
    escalates twin divergence. It runs no effect: {!System} records the
    findings on the monitor, and halts, submits exits, reconciles and
    logs each transition as the returned {!action} says. Tests drive it
    without a run.

    Safety is not judged here. The TokenBank alone checks quorum
    certificates, and {!Monitor.audit} checks custody and solvency; the
    watchdog only reads the audit's report. *)

(** Operating modes. [Normal → Degraded] on sustained sync lag, retry
    pressure or degraded-quorum signing; [→ Halted] when the watchdog
    gives up on the committee (the TokenBank freezes and parties
    withdraw on chain via the emergency exit); [Halted → Recovering]
    when a reconciliation of the pending certified summaries lands;
    [Recovering → Normal] after a clean audit. *)
type mode = Normal | Degraded | Halted | Recovering

val mode_name : mode -> string
(** ["normal"], ["degraded"], ["halted"], ["recovering"]: the strings of
    [System.result.final_mode], the transitions and the logs. *)

val mode_rank : mode -> int
(** 0–3 in declaration order: the [watchdog.mode] gauge's value. *)

(** {1 Thresholds}

    Every watchdog threshold is here. The two stall thresholds come
    from {!Config.watchdog}, which experiments set; the rest are fixed.
    "Stall" counts summary epochs the bank is behind the epoch boundary
    ([epoch − 1 − last synced epoch]). *)

val pipeline_depth : int
(** Steady-state sync lag: 1 epoch. The summary of epoch e−1 is built
    at the boundary of epoch e and applied during it. *)

val retry_degraded : int
(** Consecutive Sync retries before the watchdog degrades: 4. *)

val retry_halted : int
(** Consecutive Sync retries before the watchdog halts: 8. *)

val signing_streak_degraded : int
(** Consecutive degraded-quorum signings graded Degraded: 4. One is a
    Warning. *)

val divergence_halt : int
(** Consecutive divergent twin audits that halt: 2. One degrades. *)

val lag_warning : Config.watchdog -> int
(** Liveness lag graded Warning: one below [wd_stall_degraded], at
    least 1. *)

(** {1 State} *)

type t = {
  mode : mode;
  transitions : (float * mode) list;  (** (time, mode entered), newest first *)
  signing_streak : int;  (** consecutive summaries signed with a degraded quorum *)
  divergence_streak : int;  (** consecutive epoch audits ending in divergence *)
}

val initial : t
(** [Normal], no transition, both streaks 0. *)

val enter : t -> mode -> now:float -> t
(** Records a transition into the mode at [now]. The caller runs the
    transition's effects. *)

val signed : t -> degraded:bool -> t
(** Folds one summary signature into the signing streak: a degraded
    quorum extends it, a full one resets it. *)

val halted_at : t -> float option
(** Time of the latest transition into [Halted]. *)

val recovery_latency : t -> float option
(** From the latest halt to the [Recovering] transition that ended it,
    if one did. *)

(** {1 Decisions} *)

(** What the caller does after a decision. *)
type action =
  | Stay
  | Enter of mode * string  (** move to the mode, for the reason *)
  | Halt of string  (** halt, dissolve and open the emergency exits *)
  | Reconcile  (** submit the pending certified summaries *)

(** What the watchdog sees at an epoch boundary. *)
type observation = {
  epoch : int;  (** the epoch this boundary opens *)
  last_summary_epoch : int;  (** newest certified summary, −1 before any *)
  last_synced_epoch : int;  (** the bank's frontier, −1 before any sync *)
  retry_attempt : int;  (** consecutive Sync retries *)
  committee_live : bool;
      (** [false] once the committee is lost or dissolved: the liveness
          lags are then meaningless, and no finding is graded *)
}

val findings : Config.watchdog -> t -> observation -> Monitor.violation list
(** The liveness findings, in this order when present:
    - [summary-liveness] (sidechain): summary production lag
      [epoch − 1 − last_summary_epoch];
    - [sync-liveness] (mainchain): application lag beyond the pipeline
      depth, [last_summary_epoch − last_synced_epoch − pipeline_depth];
    - [degraded-signing] (consensus): the signing streak, Warning from 1
      and Degraded from {!signing_streak_degraded}.

    A lag is a Warning from {!lag_warning} and Degraded from
    [wd_stall_degraded] epochs. *)

val tick :
  Config.watchdog -> t -> observation -> safety:Monitor.report ->
  Monitor.violation list * action
(** One epoch boundary: the {!findings}, and what to do given them and
    the monitor's safety report.
    - [Normal] and [Degraded] halt on a fatal safety violation, then on
      a stall of [wd_stall_halted], then on {!retry_halted} retries.
      Otherwise they degrade, giving the first reason that holds: a
      Degraded finding, a stall of [wd_stall_degraded], {!retry_degraded}
      retries, a signing streak of {!signing_streak_degraded}. [Degraded]
      returns to [Normal] when none holds and the stall is within the
      pipeline depth.
    - [Halted] reconciles.
    - [Recovering] returns to [Normal] when the safety report is clean
      and there is no finding of any severity.

    [Enter] is returned only for a change of mode. *)

val audited : t -> diverged:bool -> dissolved:bool -> t * action
(** One epoch-boundary twin audit. A clean audit resets the divergence
    streak. A divergent one extends it and, unless the sidechain is
    dissolved, degrades at streak 1 and halts from {!divergence_halt}:
    a corrupted store must never reach the mainchain twice. *)
