(** The state twin: a copy-on-write shadow of TokenBank + pool + deposit
    state, advanced from the same op stream the live system applies and
    byte-compared against the live flat stores at every epoch boundary —
    a continuous O(Δ) differential audit.

    Two trust layers, matched to what each can afford:

    {ul
    {- The {e bank twin} is a full replica [Token_bank] advanced by the
       semantic ops (deposit / sync / halt / exit / reconcile), fed the
       very records the write-ahead log carries — genuine independent
       re-derivation of the TokenBank, continuously. Bank ops are
       per-epoch scale, so re-execution is cheap.}
    {- The {e pool and deposits twins} are after-image shadows: every
       transaction's written keys are captured into persistent maps at
       mutation time, before any later out-of-band damage can land. The
       epoch-boundary audit compares those captures against the live
       rows, catching silent corruption and lost/torn writes in the
       epoch they occur; AMM logic itself is covered by the sidechain
       auditor's summary self-audit and the Uniswap tests. A replica pool
       re-executing every swap would blow the audit's overhead budget —
       this shadow keeps it O(written keys).}}

    The persistent maps make epoch snapshots O(1), which is what funds
    the time-travel queries ({!custody_at}, {!read_at}). *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Token_bank = Tokenbank.Token_bank

type t

(** One audited state cell. *)
type key =
  | Dep_row of Address.t     (** a deposit-account row (192 bytes) *)
  | Pool_pos of Position_id.t  (** a pool position image *)
  | Pool_tick of int         (** an initialized tick image *)
  | Pool_scalars             (** the pool scalar section *)
  | Bank_meta                (** the bank.meta section *)
  | Bank_pos of Position_id.t  (** a TokenBank position row *)

type layer = Deposits_layer | Pool_layer | Bank_layer

val layer_to_string : layer -> string
val key_to_string : key -> string

val create :
  seed:string ->
  genesis_committee_vk:Amm_crypto.Bls.public_key ->
  flash_fee_pips:int ->
  t
(** Deploys the replica bank (own ERC20s, own faucet) and an empty
    shadow state. [seed] is stamped into forensic reports. *)

(** {1 Advancing: sidechain after-images}

    Called by the system's processor tap after each successful
    transaction, with the key/after-image pairs the transaction wrote
    ([None] = the key was deleted). Ops are indexed globally in arrival
    order; the index is what the bisector reports. *)

val record : t -> label:string -> (key * bytes option) list -> unit

val op_count : t -> int
(** Ops recorded so far (the next op's index). *)

val ops_retained : t -> int
(** Ops still held: those at or above the oldest live checkpoint or the
    open window, whichever is older (see {!release}). Op indexes stay
    global, so reports and bisection are unaffected by the drop. *)

(** {1 Advancing: bank ops} *)

val apply : t -> Durable.Record.op -> unit
(** Applies one bank op the live TokenBank accepted — the same record
    the write-ahead log carries — to the replica bank, captures the
    after-images of the keys it wrote {e from the replica}, and records
    a window op. A rejection that the live bank did not report is a
    divergence in its own right and surfaces at the next audit. *)

(** {1 Reorg symmetry} *)

type checkpoint

val checkpoint : t -> checkpoint
(** O(1): the replica bank's journal mark plus the persistent bank-side
    shadow map. *)

val restore : t -> checkpoint -> unit
(** Rewinds the replica and the bank-side shadow to the checkpoint and
    records a synthetic [bank.rollback] window op restating the
    post-restore images of every bank key written since — so last-writer
    bisection stays truthful across reorgs. *)

val release : t -> checkpoint -> unit
(** The checkpoint will never be restored, nor will any older one
    (forks only abandon unconfirmed blocks): releases the replica's
    undo journal below it and drops the ops below both its mark and the
    open window. *)

(** {1 The epoch-boundary audit} *)

(** Live-state access, supplied by the system. The twin deliberately
    has no dependency on the sidechain or AMM libraries — it sees live
    state only through these closures. *)
type live = {
  live_dep : Address.t -> bytes option;
  live_dep_dirty : unit -> Address.t list;
      (** deposit rows written since the last audit (fault injections
          included); the caller clears its dirty marks after the audit *)
  live_pool_pos : Position_id.t -> bytes option;
  live_pool_tick : int -> bytes option;
  live_pool_writes : unit -> Position_id.t list * int list;
      (** positions/ticks written since the last audit *)
  live_pool_scalars : unit -> bytes;
  live_bank_meta : unit -> bytes;
  live_bank_pos : Position_id.t -> bytes option;
  live_bank_dirty : unit -> Position_id.t list;
}

type report = {
  r_epoch : int;
  r_seed : string;
  r_key : key;
  r_layer : layer;
  r_expected : bytes option;  (** the twin's view ([None] = absent) *)
  r_actual : bytes option;    (** the live bytes ([None] = absent) *)
  r_culprit : (int * string) option;
      (** last window op that wrote the key (global index, label);
          [None] = no op wrote it — out-of-band corruption *)
  r_window_ops : int;         (** ops in the audited window *)
}

val report_to_string : report -> string
(** One deterministic line: epoch, layer, key, culprit, byte prefixes. *)

val audit : t -> epoch:int -> live -> report list
(** Byte-compares every key written in the window (by ops or by the
    live side's own dirty marks — corruption shows up only there)
    plus the two scalar sections, most-severe layer first, key order
    deterministic. Cost is O(written keys), never O(state).

    Whatever the outcome, the audit then seals the epoch: snapshots the
    shadow state (O(1)), opens a fresh window and drops the epoch-local
    deposit rows (the live table is rebuilt from the bank snapshot next
    epoch). The caller clears the live dirty marks, and counts the audit
    and its reports. *)

(** {1 Time travel}

    Queries over sealed epoch snapshots. A {!view} is an immutable
    capture safe to query from another domain while the twin advances.
    Only the newest {!retained_epochs} seals are kept; queries about an
    older epoch answer [None]. *)

val retained_epochs : int
(** Sealed snapshots kept for time travel (8): memory stays bounded on
    runs of any length. *)

type view

val view : t -> view

val custody_at : view -> epoch:int -> (U256.t * U256.t) option
(** The replica bank's total custody as of the epoch's audit. *)

val read_at : view -> epoch:int -> key -> bytes option
(** The audited after-image of any key at an epoch seal. *)

val epochs_sealed : view -> int list
(** Ascending epochs with a sealed snapshot. *)
