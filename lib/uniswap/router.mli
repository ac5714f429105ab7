(** User-facing entry points over {!Pool} — the SwapRouter /
    NonfungiblePositionManager equivalents: slippage guards on swaps,
    ownership checks and amount→liquidity conversion for liquidity
    management. Both the baseline (on the mainchain) and the ammBoost
    sidechain committee process transactions through this same logic. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type swap_outcome = {
  spent : U256.t;      (** input consumed, fee included *)
  received : U256.t;
  fee : U256.t;
  ticks_crossed : int;
}

val exact_input :
  Pool.t ->
  zero_for_one:bool ->
  amount_in:U256.t ->
  min_amount_out:U256.t ->
  ?sqrt_price_limit:U256.t ->
  unit ->
  (swap_outcome, string) result
(** Trades the full input for as much output as possible; fails when the
    output falls short of [min_amount_out] or the input cannot be fully
    consumed within the price limit. *)

val exact_output :
  Pool.t ->
  zero_for_one:bool ->
  amount_out:U256.t ->
  max_amount_in:U256.t ->
  ?sqrt_price_limit:U256.t ->
  unit ->
  (swap_outcome, string) result
(** Buys exactly [amount_out] for the least input; fails if more than
    [max_amount_in] would be needed or the pool cannot produce the
    output. *)

type mint_outcome = {
  minted_liquidity : U256.t;
  amount0_used : U256.t;
  amount1_used : U256.t;
}

val mint :
  Pool.t ->
  position_id:Position_id.t ->
  owner:Address.t ->
  lower_tick:int ->
  upper_tick:int ->
  amount0_desired:U256.t ->
  amount1_desired:U256.t ->
  (mint_outcome, string) result
(** Converts the desired token budgets into the maximum fundable
    liquidity (V3's [getLiquidityForAmounts]) and mints it. Re-minting an
    existing position id requires the same owner and range. *)

type burn_outcome = {
  burned_liquidity : U256.t;
  amount0_owed : U256.t;   (** credited to tokens_owed, not yet paid *)
  amount1_owed : U256.t;
  position_deleted : bool; (** all liquidity withdrawn *)
}

val burn :
  Pool.t ->
  position_id:Position_id.t ->
  caller:Address.t ->
  amount0_requested:U256.t ->
  amount1_requested:U256.t ->
  (burn_outcome, string) result
(** Withdraws up to the requested token amounts from the caller's
    position (full withdrawal when the requests cover the position). *)

type collect_outcome = { collected0 : U256.t; collected1 : U256.t; position_deleted : bool }

val collect :
  Pool.t ->
  position_id:Position_id.t ->
  caller:Address.t ->
  amount0_requested:U256.t ->
  amount1_requested:U256.t ->
  (collect_outcome, string) result
(** Pays out owed fees/principal up to the requested amounts; only the
    owner may collect. *)
