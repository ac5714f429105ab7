(** Conversions between token amounts and liquidity shares, following
    Uniswap V3's [LiquidityAmounts], plus signed liquidity deltas. *)

type delta =
  | Add of U256.t     (** mint: liquidity increases *)
  | Remove of U256.t  (** burn: liquidity decreases *)

val apply_delta : U256.t -> delta -> U256.t
(** Applies a signed delta to a liquidity amount. Raises {!U256.Overflow}
    when removing more than is present. *)

val get_liquidity_for_amounts :
  sqrt_price:U256.t -> sqrt_a:U256.t -> sqrt_b:U256.t ->
  amount0:U256.t -> amount1:U256.t -> U256.t
(** Maximum liquidity fundable with both budgets at the current price. *)

val get_amounts_for_liquidity :
  sqrt_price:U256.t -> sqrt_a:U256.t -> sqrt_b:U256.t -> liquidity:U256.t ->
  U256.t * U256.t
(** Token amounts [(amount0, amount1)] represented by a liquidity share
    over the range at the current price (rounded down, as on burn). *)

val get_amounts_for_liquidity_rounding_up :
  sqrt_price:U256.t -> sqrt_a:U256.t -> sqrt_b:U256.t -> liquidity:U256.t ->
  U256.t * U256.t
(** Like {!get_amounts_for_liquidity} but rounded up, as owed on mint. *)
