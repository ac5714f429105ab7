(** Seeded, deterministic fault-plan engine.

    A [spec] declares probabilistic fault rates for every layer of the
    system — network, consensus, committee, mainchain — and a plan derives
    every concrete decision from the run's seed alone, via keyed RNG
    splits. The same seed therefore reproduces the identical fault
    schedule on every run, at any domain count, which is what lets chaos
    sweeps diff their output byte-for-byte and lets a faulty run be
    re-executed exactly after the fact.

    Decision functions are pure in their key (epoch, round, attempt, …):
    calling one twice with the same arguments returns the same answer and
    counts the injection once. *)

(** Message-level faults inside one consensus round
    ({!Consensus.Network} hooks). *)
type network = {
  drop_rate : float;        (** per message *)
  duplicate_rate : float;   (** per message; the copy arrives later *)
  delay_rate : float;       (** per message: extra delay beyond Δ *)
  delay_max : float;        (** upper bound on the extra delay, seconds *)
  partition_rate : float;   (** per round: a temporary two-sided partition *)
}

(** Per-round replica faults for the message-level PBFT committee. *)
type consensus = {
  member_crash_rate : float;     (** per (round, member), capped at f *)
  byzantine_leader_rate : float; (** per round: the proposer equivocates *)
}

(** Faults during threshold signing of the epoch summary. *)
type committee = {
  withhold_rate : float;  (** per (epoch, member): DKG share withheld,
                              capped so a degraded quorum still signs *)
  corrupt_rate : float;   (** per (epoch, member): the member submits a
                              tampered partial signature, capped so the
                              honest remainder still reaches quorum *)
}

(** Mainchain-facing faults. *)
type mainchain = {
  silent_leader_rate : float; (** per epoch: the Sync is never submitted *)
  corrupt_sync_rate : float;  (** per epoch: the Sync inputs are tampered *)
  sync_drop_rate : float;     (** per submission attempt: the Sync
                                  transaction is evicted from the mempool *)
  reorg_rate : float;         (** per epoch: a fork abandons the block
                                  carrying its sync *)
  max_reorg_depth : int;      (** reorg depth is drawn in [1, max] *)
  congestion_rate : float;    (** per epoch: a gas-limit congestion window *)
  congestion_gas_limit : int; (** block gas limit during congestion; must
                                  exceed the largest single transaction *)
}

(** Durable-storage faults: hard process death at a round boundary, plus
    torn writes applied to the file being appended when the process
    dies. *)
type torn =
  | Truncated_tail  (** the tail of the file never reached the disk *)
  | Bit_flip        (** a payload byte was corrupted in flight *)
  | Stale_marker    (** the commit marker was overwritten/never written *)

type durability = {
  crash_rate : float;       (** per (epoch, round): hard process death *)
  torn_write_rate : float;  (** per crash: the dying write is torn *)
  crash_script : (int * int) list;
      (** exact (epoch, round) death points, in addition to the rate —
          the crash drill kills the run at every listed coordinate *)
}

(** Scripted sustained-failure scenarios — deterministic windows rather
    than probabilistic rates. They drive the liveness watchdog through
    Degraded/Halted and exercise the emergency-exit protocol. *)
type scenario = {
  quorum_starvation : (int * int) option;
      (** [Some (from, until)]: every Sync/reconcile submission whose
          mainchain epoch falls in [\[from, until)] is dropped;
          [until = max_int] starves forever. *)
  committee_loss : int option;
      (** [Some e]: from epoch [e] on, the sidechain committee is
          permanently lost — no election, no summaries, no signatures. *)
}

(** Silent in-memory state corruption: seeded bit-flips landed directly
    in the flat stores behind the system's back (no transaction, no log
    record). The twin's differential audit must catch every one at the
    epoch boundary it lands in. *)
type corruption_target =
  | Deposit_row     (** a row of the epoch's deposit account slab *)
  | Position_slab   (** a row of TokenBank's flat position store *)
  | Pool_tick       (** an initialized tick's fee-growth accumulators *)

type state_corruption = {
  corruption_rate : float;  (** per (epoch, round): one seeded bit-flip *)
  corruption_script : (int * int * corruption_target) list;
      (** exact (epoch, round, target) injection points, in addition to
          the rate — the twin-audit bench scripts these *)
}

(** Scripted interruptions, one epoch each: the paper's three (§4.2
    "Handling interruptions") and Lemma 2's censoring committee. Each
    answers through its drawn counterpart's decision and counts under the
    same label. *)
type interruption =
  | Silent_leader of int  (** the epoch's Sync leader never submits *)
  | Invalid_sync of int   (** the epoch's Sync inputs are tampered *)
  | Rollback of int       (** a depth-1 fork drops the sync whose newest
                              epoch this is *)
  | Censoring of int      (** the epoch's committee omits user 0's
                              transactions; rotation restores liveness *)

type spec = {
  network : network;
  consensus : consensus;
  committee : committee;
  mainchain : mainchain;
  durability : durability;
  corruption : state_corruption;
  scenario : scenario;
  interruptions : interruption list;
}

val corruption_target_label : corruption_target -> string
(** Stable metric tag: ["deposit_row"], ["position_slab"], ["pool_tick"]. *)

val none : spec
(** All rates zero: a plan over [none] never injects anything. *)

val chaos : ?intensity:float -> unit -> spec
(** A balanced all-layer preset. [intensity] scales every rate linearly;
    [0.0] is equivalent to {!none}, [0.1] (the default) gives a run a
    handful of faults per epoch, and values are clamped so no single rate
    reaches certainty. *)

val active : spec -> bool
(** Whether any rate is nonzero, or a scenario or an interruption is
    scripted. *)

type t

val create : seed:string -> spec -> t
val spec : t -> spec

(** {1 Decisions}

    All deterministic in [(seed, key arguments)]. *)

val silent_leader : t -> epoch:int -> bool
(** Scripted by [Silent_leader epoch], else drawn at [silent_leader_rate]. *)

val corrupt_sync : t -> epoch:int -> bool
(** Scripted by [Invalid_sync epoch], else drawn at [corrupt_sync_rate]. *)

val censoring : t -> epoch:int -> bool
(** Scripted by [Censoring epoch] only (counted under
    [committee.censoring]). Allocates nothing when no interruption is
    scripted. *)

val sync_dropped : t -> epoch:int -> attempt:int -> bool
val congested : t -> epoch:int -> bool

val sync_starved : t -> epoch:int -> bool
(** Whether a Sync/reconcile submitted during mainchain epoch [epoch]
    falls inside the quorum-starvation window (counted once per epoch). *)

val committee_lost : t -> epoch:int -> bool
(** Whether the committee is permanently gone as of [epoch] (counted
    once, at the first query that answers [true]). *)

val reorg_depth : t -> epoch:int -> int option
(** [Some d] if this epoch's sync is fated to fall off the chain once the
    fork is [d] blocks deep: [Some 1] when [Rollback epoch] is scripted,
    else drawn at [reorg_rate]. The caller counts the injection with
    {!note} when the reorg actually fires (the confirmation window may
    close first). *)

val withheld_shares : t -> epoch:int -> n:int -> max_withheld:int -> int list
(** Share indices (1-based) withheld during this epoch's threshold
    signing, at most [max_withheld] of the [n] shares. *)

val corrupted_shares : t -> epoch:int -> n:int -> max_corrupted:int -> int list
(** Share indices (1-based) whose holders submit tampered partial
    signatures this epoch, at most [max_corrupted] of the [n] shares.
    {!Bls.verify_partial} catches these at the crypto layer. *)

val crashed_members : t -> epoch:int -> round:int -> members:int -> max_faulty:int -> int list
(** Committee member ids (0-based) crashed for this consensus round, at
    most [max_faulty]. *)

val byzantine_proposer : t -> epoch:int -> round:int -> bool

val crash_now : t -> epoch:int -> round:int -> bool
(** Whether the process dies hard at the start of this sidechain round —
    scripted coordinates always fire; otherwise drawn at [crash_rate]. *)

val torn_write : t -> epoch:int -> round:int -> torn option
(** When a crash fires at this coordinate, whether (and how) the write
    in flight is torn. Only consulted at an actual crash point. *)

val corrupt_state : t -> epoch:int -> round:int -> (corruption_target * int * int) option
(** [Some (target, index, bit)] when a silent corruption lands at the
    end of this sidechain round: flip [bit] of the [index]-selected row
    (both reduced modulo the live store's size by the injector).
    Scripted coordinates always fire with their scripted target; the
    probabilistic rate draws the target uniformly. The caller counts the
    injection with {!note} under [state.corruption.<target>] when the
    flip actually lands (the selected store may be empty). *)

val net_chaos :
  t -> epoch:int -> round:int -> members:int ->
  (now:float -> src:int -> dst:int -> Consensus.Network.delivery) option
(** Per-message delivery chaos for one consensus round, or [None] when
    every network rate is zero. The closure draws from a round-keyed RNG
    stream, decides drop / duplicate / delay per message, enforces the
    round's partition (messages across the cut are dropped), and counts
    each injection. Call it once per round. *)

(** {1 Injection accounting} *)

val note : t -> string -> int -> unit
(** Count [n] injections under a label (used by callers for injections
    the plan only fates, e.g. reorgs that actually fire). *)

val injected : t -> (string * int) list
(** Injection counts so far, sorted by label. *)

val total_injected : t -> int
