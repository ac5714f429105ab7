(** Price movement math for constant-product pools with concentrated
    liquidity, following Uniswap V3's [SqrtPriceMath]. All prices are
    Q64.96 sqrt prices; liquidity and amounts are unsigned. *)

val get_next_sqrt_price_from_amount0_rounding_up :
  sqrt_price:U256.t -> liquidity:U256.t -> amount:U256.t -> add:bool -> U256.t
(** Next sqrt price after adding (or removing) [amount] of token0. *)

val get_next_sqrt_price_from_input :
  sqrt_price:U256.t -> liquidity:U256.t -> amount_in:U256.t -> zero_for_one:bool -> U256.t
(** Price after an exact input of the given amount; rounds against the
    swapper. *)

val get_next_sqrt_price_from_output :
  sqrt_price:U256.t -> liquidity:U256.t -> amount_out:U256.t -> zero_for_one:bool -> U256.t
(** Price after an exact output of the given amount; rounds against the
    swapper. Raises {!U256.Overflow} if the pool cannot provide the
    output. *)

val get_amount0_delta :
  sqrt_a:U256.t -> sqrt_b:U256.t -> liquidity:U256.t -> round_up:bool -> U256.t
(** Amount of token0 covering the price range between the two sqrt
    prices at the given liquidity. *)

val get_amount1_delta :
  sqrt_a:U256.t -> sqrt_b:U256.t -> liquidity:U256.t -> round_up:bool -> U256.t
(** Amount of token1 covering the price range between the two sqrt
    prices at the given liquidity. *)
