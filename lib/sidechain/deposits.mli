(** Dual per-user deposit tracking for one epoch (§4.2): the mainchain
    deposit snapshot taken at epoch start, and the sidechain-accrued
    deposit (swap outputs, burn proceeds, collected fees) usable
    immediately within the epoch. Consumption drains the mainchain
    deposit first, then the sidechain one; at epoch end the payin is the
    consumed mainchain amount and the payout is the accrued sidechain
    balance. *)

module U256 = Amm_math.U256
module Address = Chain.Address

type t

val create : snapshot:(Address.t * (U256.t * U256.t)) list -> t
(** Loads the epoch-start mainchain deposits (SnapshotBank). *)

val users_sorted : t -> Address.t list
(** Every tracked user in ascending address order. The epoch-start
    snapshot occupies a sorted prefix of the flat store, so this merges
    it with the few mid-epoch accounts instead of sorting everything. *)


(** {1 Balance updates}

    These three work on the account's slab slots in place: each slot is
    read into a register of the table, compared or updated there and
    written back, so a user who already has a row costs no allocation. *)

val covers : t -> Address.t -> amount0:U256.t -> amount1:U256.t -> bool
(** Whether the spendable balance (main + side) of each token covers its
    amount. *)

val consume : t -> Address.t -> amount0:U256.t -> amount1:U256.t -> (unit, string) result
(** Atomically consumes both token amounts (mainchain first); fails
    without any change when either is uncovered. *)

val credit_side : t -> Address.t -> amount0:U256.t -> amount1:U256.t -> unit

val payin : t -> Address.t -> U256.t * U256.t
(** Mainchain deposit consumed so far (initial − remaining). *)

val payout : t -> Address.t -> U256.t * U256.t
(** Current sidechain deposit — what the user receives at sync. *)

val totals : t -> (U256.t * U256.t) * (U256.t * U256.t)
(** [((main0, main1), (side0, side1))] summed over every account —
    exact U256 sums, independent of iteration order. *)

val accounts : t -> int
(** Number of tracked accounts this epoch. *)

val mem : t -> Address.t -> bool
(** Whether the user already has an account row. Pure: never interns. *)

val candidate_users : t -> Address.t list
(** Users marked by a balance mutation ({!consume}, {!credit_side},
    {!corrupt_bit}) since epoch start, in first-marked order — the only
    accounts whose summary entry can be nonzero. A superset of the
    entries the summary reports (a zero-amount update marks a row
    without changing it); the builder still diffs each candidate. Unrelated to
    the twin's slab dirty marks, which are cleared mid-epoch. *)

(** {1 Audit surface}

    The twin's differential audit compares exactly the rows written
    since the last {!clear_dirty} — O(dirty), not O(accounts). *)

val row_image : t -> Address.t -> bytes option
(** The user's raw 192-byte account row; [None] for a user with no row
    yet. Pure: never allocates a row. *)

val dirty_users : t -> Address.t list
(** Users whose rows were written since the last {!clear_dirty}, in row
    (first-seen) order — deterministic across runs. *)

val dirty_rows : t -> int
val clear_dirty : t -> unit

val corrupt_bit : t -> index:int -> bit:int -> Address.t option
(** Flips one bit in the row selected by [index mod accounts] (fault
    injection); returns the affected user, or [None] on an empty table.
    The row is marked dirty — corruption hits the same audit surface as
    a legitimate write. *)

(** {1 Binary codec}

    [count : u32be][addresses, row order][slab codec] — the whole
    account table, durable-snapshot ready. Decode rebuilds the registry
    and the sorted index; re-encoding is byte-identical. *)

val to_bytes : t -> bytes

val of_bytes : bytes -> (t, string) result
(** Total: malformed buffers (bad counts, truncated slab, duplicate
    addresses) come back as [Error]. *)
