(** The concentrated-liquidity constant-product pool — the AMM logic that
    baseline Uniswap runs on the mainchain and that ammBoost migrates,
    unchanged, to the sidechain (§4.2 "ammBoost does not change the logic
    based on which an AMM operates").

    State mirrors V3's core: a Q64.96 sqrt price and current tick, the
    in-range liquidity, global fee-growth accumulators (X128), the tick
    table and the position map. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type t

val create :
  pool_id:int ->
  token0:Chain.Token.t ->
  token1:Chain.Token.t ->
  fee_pips:int ->
  tick_spacing:int ->
  sqrt_price:U256.t ->
  t

val clone : t -> t
(** Deep copy of the full pool state (price, liquidity, ticks, positions,
    fee accumulators) — the auditing replays in {!Sidechain} start from a
    clone of the epoch-start state. *)

(** {1 Inspection} *)

val pool_id : t -> int
val token0 : t -> Chain.Token.t
val token1 : t -> Chain.Token.t
val fee_pips : t -> int
val sqrt_price : t -> U256.t
val current_tick : t -> int
val liquidity : t -> U256.t
(** Liquidity in range at the current price. *)

val balance0 : t -> U256.t
(** Reserve of token0 (paper: res_A). *)

val balance1 : t -> U256.t
val fee_growth_global0 : t -> U256.t
val fee_growth_global1 : t -> U256.t
val find_position : t -> Position_id.t -> Position.t option
val positions : t -> Position.t list
val position_count : t -> int
val initialized_tick_count : t -> int

(** {1 Swaps} *)

type swap_result = {
  amount_in : U256.t;        (** input consumed, fee included *)
  amount_out : U256.t;
  fee_paid : U256.t;
  sqrt_price_after : U256.t;
  tick_after : int;
  ticks_crossed : int;
}

val swap :
  t ->
  zero_for_one:bool ->
  amount:Amm_math.Swap_math.amount_specified ->
  sqrt_price_limit:U256.t ->
  (swap_result, string) result
(** Executes a swap against the pool. The price never crosses
    [sqrt_price_limit]; an exact-in swap that exhausts liquidity before
    consuming its input fills partially (the router layers slippage
    protection on top). *)

val default_price_limit : zero_for_one:bool -> U256.t
(** The loosest legal limit for the direction: one of two shared
    constants, [min_sqrt_ratio + 1] and [max_sqrt_ratio - 1]. *)

(** {1 Liquidity management} *)

val mint :
  t ->
  position_id:Position_id.t ->
  owner:Address.t ->
  lower_tick:int ->
  upper_tick:int ->
  liquidity:U256.t ->
  (U256.t * U256.t, string) result
(** Adds liquidity to a (possibly new) position; returns the token
    amounts the LP owes the pool, rounded up. *)

val burn :
  t ->
  position_id:Position_id.t ->
  liquidity:U256.t ->
  (U256.t * U256.t, string) result
(** Removes liquidity; the returned amounts are credited to the
    position's [tokens_owed] (collected separately, as in V3). *)

val collect :
  t ->
  position_id:Position_id.t ->
  amount0_requested:U256.t ->
  amount1_requested:U256.t ->
  (U256.t * U256.t, string) result
(** Pays out owed tokens (fees and burned principal) up to the requested
    amounts; deletes the position once empty. *)

val touch_position : t -> Position_id.t -> (unit, string) result
(** Refreshes a position's fee accounting without changing liquidity
    (used before reading [tokens_owed]). *)

(** {1 Epoch change tracking}

    The pool marks, at inclusion time, every position whose epoch-summary
    entry may have changed: minted/burned/collected positions plus every
    position that was in range during a swap since the last reset. The
    summary builder drains this set instead of scanning the whole
    position table — positions outside it provably kept their
    [fee_growth_inside], so their entries are unchanged. *)

val epoch_candidates : t -> Position_id.t list
(** The current over-approximation of changed positions, unordered. *)

val epoch_reset : t -> unit
(** Clears the candidate set at an epoch boundary. *)

(** {1 Twin-audit write tracking}

    Orthogonal to the epoch candidate set: these record {e exactly} the
    positions and ticks whose bytes were written, so the state twin can
    capture per-transaction after-images and the epoch-boundary audit
    can compare O(written) keys instead of O(state). *)

val drain_op_writes : t -> Position_id.t list * int list
(** The positions and ticks written since the last drain (both sorted
    ascending), clearing the per-op set — called by the processor's tap
    after each transaction. *)

val audit_writes : t -> Position_id.t list * int list
(** Everything written since the last {!clear_audit_writes} (sorted),
    fault injections included. *)

val clear_audit_writes : t -> unit

val position_bytes : t -> Position_id.t -> bytes option
(** Canonical byte image of a position (owner, range, liquidity, fee
    checkpoints, owed tokens); [None] once deleted. *)

val tick_bytes : t -> int -> bytes option
(** Canonical byte image of an initialized tick (gross/net liquidity,
    outside fee growth); [None] for uninitialized ticks. *)

val corrupt_tick_bit : t -> index:int -> bit:int -> int option
(** Fault injection: flips one bit in the fee-growth accumulators of
    the [index mod initialized]-th initialized tick and marks it on the
    audit surface (but on no transaction's write set — corruption is
    out-of-band by construction). Returns the tick, or [None] when no
    tick is initialized. *)

(** {1 Invariant helpers (for tests)} *)

val check_liquidity_consistency : t -> bool
(** Recomputes in-range liquidity from the tick table and compares. *)

val check_owed_solvency : t -> bool
(** Reserves cover every on-demand obligation: the sum of position
    [tokens_owed], per token. *)
