(** TokenBank — the minimal base smart contract ammBoost leaves on the
    mainchain (Fig. 4): it custodies the actual tokens, tracks pool
    balances, user deposits and synced liquidity positions, processes
    epoch-based deposits, applies authenticated Sync summaries (dispensing
    payouts, deducting payins, refunding residual deposits), and serves
    flash loans in real time. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type t

type pool_info = {
  pool_id : int;
  token0 : Chain.Token.t;
  token1 : Chain.Token.t;
  balance0 : U256.t;
  balance1 : U256.t;
  flash_fee_pips : int;
}

val deploy :
  token0:Mainchain.Erc20.t ->
  token1:Mainchain.Erc20.t ->
  genesis_committee_vk:Amm_crypto.Bls.public_key ->
  t
(** Deploys the contract over the two ERC20s and records the first
    epoch committee's verification key. *)

val address : t -> Address.t
val create_pool : t -> flash_fee_pips:int -> int
(** Initializes a pool for the token pair; returns its id. *)

val pool : t -> int -> pool_info option
val committee_vk : t -> Amm_crypto.Bls.public_key
val last_synced_epoch : t -> int
(** -1 before the first sync. *)

val is_halted : t -> bool
val halt_epoch : t -> int option
(** The epoch recorded when the bank was (last) halted; [None] if the
    bank has never been halted. *)

(** {1 Rejections}

    Typed failure classes for the authenticated entry points, so the
    watchdog and the tests can react to a rejection without matching on
    message strings. *)

type rejection =
  | Empty_submission
  | Bank_halted              (** sync/deposit refused while halted *)
  | Not_halted               (** exit/reconcile outside a halt *)
  | Already_exited of Address.t
  | Bad_signature of { epoch : int }
  | Stale_epoch of { expected : int; got : int }
      (** first payload is older than the synced frontier *)
  | Contiguity_gap of { expected : int; got : int }
      (** payload chain skips an epoch *)
  | Conservation_violation of { epoch : int }
      (** new balance ≠ old + payins − payouts *)

val rejection_class : rejection -> string
(** Short stable tag (e.g. ["stale_epoch"]) for metrics labels. *)

val rejection_to_string : rejection -> string

(** {1 Deposits} *)

val deposit :
  ?meter:Mainchain.Gas.meter ->
  t -> user:Address.t -> for_epoch:int -> amount0:U256.t -> amount1:U256.t ->
  (unit, string) result
(** Epoch-based deposit backing the user's sidechain activity during
    [for_epoch]; pulls the tokens from the user's ERC20 balances
    (requires prior approvals, reflected in the metered gas and the
    4-transaction flow latency). Deposits are scoped to their epoch, so
    funding epoch e+1 during epoch e never collides with e's sync. *)

val deposit_of : t -> epoch:int -> Address.t -> U256.t * U256.t

val deposits_for_epoch : t -> epoch:int -> (Address.t * (U256.t * U256.t)) list
(** The deposits pending for [epoch], in address order — the order the
    residual-refund drains of {!sync} and {!reconcile} pay them in. *)

val deposit_total : t -> epoch:int -> U256.t * U256.t
(** Sum of the deposits pending for [epoch], per token, without sorting
    them. *)

(** {1 Sync} *)

type sync_receipt = {
  gas : Mainchain.Gas.meter;
  calldata_bytes : int;
  payouts_dispensed : int;
  positions_written : int;
  positions_deleted : int;
  epochs_covered : int list;
}

val sync :
  ?check_signatures:bool ->
  t ->
  signed:(Sync_payload.t * Amm_crypto.Bls.signature) list ->
  (sync_receipt, rejection) result
(** Applies one or more epoch summaries, each carrying its own epoch
    committee's threshold signature (a list longer than one is a
    mass-sync after an interruption — recorded keys advance payload by
    payload, so epoch e's signature verifies under the vk recorded by
    epoch e−1's payload). [?check_signatures] (default [true]) controls
    the pairing check and its payload hashing — the state twin's replica
    passes [false]: it only ever replays payloads the live contract
    already accepted, so re-deriving state does not need to re-pay the
    dominant crypto cost, and the epoch-contiguity and conservation
    checks still run. Checks epoch contiguity and token conservation
    (new pool balance = old + payins − payouts), then updates positions,
    dispenses payouts, deducts payins (any excess over the deposit comes
    out of the payout, §4.2), refunds residual deposits, and records each
    next committee's key. Nothing is applied when any step fails. *)

val sync_exn :
  t ->
  signed:(Sync_payload.t * Amm_crypto.Bls.signature) list ->
  sync_receipt
(** Thin raising wrapper over {!sync} for callers that treat any
    rejection as fatal; raises [Failure] with the rendered rejection. *)

val positions : t -> Sync_payload.position_entry list
val find_position : t -> Position_id.t -> Sync_payload.position_entry option

val storage_words : t -> int
(** Live contract storage in 32-byte words across positions, pools, the
    committee vk, pending epoch deposits and exit claims — the on-chain
    state footprint the growth ledger samples each epoch. *)

(** {1 Emergency exit (halt / exit / reconcile)}

    The liveness escape hatch: when the sidechain committee is lost (or
    stalls past the watchdog's patience), the bank is halted and every
    party can withdraw directly on the mainchain against the last
    confirmed summary — no committee signature required. *)

val halt : t -> epoch:int -> (unit, rejection) result
(** Freezes the bank at the last confirmed summary: no further deposits,
    syncs or flashes are accepted, pool reserves and the aggregate
    position value are snapshotted as the pro-rata base for exit claims.
    [epoch] is the mainchain's view of the stalled sidechain epoch (for
    the record; claims derive from [last_synced_epoch]'s state). *)

type exit_claim = {
  claimant : Address.t;
  claim0 : U256.t;   (** pro-rata share of the frozen pool reserves *)
  claim1 : U256.t;
  refund0 : U256.t;  (** residual epoch deposits returned in full *)
  refund1 : U256.t;
  positions_closed : int;
  exit_gas : Mainchain.Gas.meter;
}

val emergency_exit : t -> claimant:Address.t -> (exit_claim, rejection) result
(** One-shot withdrawal while halted: closes the claimant's synced
    positions, pays [frozen_reserves × value(claimant) / value(all)]
    per token (floored, so total claims never exceed the reserves) plus
    every residual deposit, and marks the claimant exited. *)

val exit_of : t -> Address.t -> exit_claim option
val exits : t -> exit_claim list
(** Claims served so far, oldest first. *)

val exits_served : t -> int

type reconciliation = {
  rec_epochs : int list;
  rec_users_applied : int;
  rec_users_voided : int;       (** summary entries superseded by exits *)
  rec_positions_voided : int;
  rec_voided0 : U256.t;         (** payout value netted against exits *)
  rec_voided1 : U256.t;
  rec_paid0 : U256.t;           (** residual payouts actually dispensed *)
  rec_paid1 : U256.t;
  rec_gas : Mainchain.Gas.meter;
}

val reconcile :
  t ->
  signed:(Sync_payload.t * Amm_crypto.Bls.signature) list ->
  (reconciliation, rejection) result
(** Committee-recovery path out of a halt: verifies the pending summary
    chain against the balances frozen at the halt (signatures, epoch
    contiguity, conservation), then applies it with exit netting — any
    entry belonging to a party that already exited is void (their value
    left on-chain at exit), everyone else's flows apply normally, capped
    by the post-exit reserves. Lifts the halt and re-chains the committee
    key. *)

val exit_conservation_ok : t -> bool
(** After a halt: custody frozen at the halt = live custody + everything
    dispensed since (exit claims, refunds, reconciled payouts). Trivially
    true if the bank was never halted. *)

(** {1 Flash loans (mainchain-resident, §4.2 "Flashes")} *)

val flash :
  ?meter:Mainchain.Gas.meter ->
  t ->
  pool:int ->
  borrower:Address.t ->
  amount0:U256.t ->
  amount1:U256.t ->
  callback:(fee0:U256.t -> fee1:U256.t -> (unit, string) result) ->
  (U256.t * U256.t, string) result
(** Lends pool reserves to the borrower within a single block; the
    callback must leave the borrower holding principal + fee for
    repayment or the whole loan inverts. Returns the fees earned. *)

(** {1 Snapshot (the sidechain's SnapshotBank call)} *)

type snapshot = {
  snap_epoch : int;
  snap_deposits : (Address.t * (U256.t * U256.t)) list;
  snap_pool_balances : (int * (U256.t * U256.t)) list;
  snap_positions : Sync_payload.position_entry list;
}

val snapshot : t -> epoch:int -> snapshot
(** The sidechain committee's epoch-start view: the deposits scoped to
    the starting epoch, pool balances and positions. *)

type checkpoint

val checkpoint : t -> checkpoint
(** O(1) state capture (contract fields plus both ERC20s), used to model
    mainchain rollbacks abandoning executed Sync calls: a handful of
    pointer copies plus a {!Flatstore.Journal} mark in each of the
    bank's, the position store's and the two ERC20s' journals. *)

val restore : t -> checkpoint -> unit
(** Rewinds to the checkpoint by undoing the journal entries recorded
    since it was taken — O(keys written since the checkpoint), since each
    journal records a key only on its first write after a mark. *)

val release_checkpoint : t -> checkpoint -> unit
(** Declares that no checkpoint older than this one will ever be
    restored, letting every undo journal (the bank's, the position
    store's and both ERC20s') drop the history below its mark. The
    checkpoint itself (and any newer one) stays restorable. *)

val checkpoint_journal_bytes : t -> int
(** Cumulative bytes copied into the position-store undo journal —
    monotone; the delta across an operation bounds its checkpoint cost
    (asserted by the O(dirty) test). *)

val positions_bytes : t -> bytes
(** Compact binary snapshot of the live position table (flat rows, live
    entries only); decode with {!Pos_store.of_bytes}. *)

val positions_store : t -> Pos_store.t

val total_custody : t -> U256.t * U256.t
(** ERC20 balances held by the contract — must equal deposits + pool
    balances (conservation invariant, checked in tests). *)
