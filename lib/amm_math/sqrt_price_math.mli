(** Price movement math for constant-product pools with concentrated
    liquidity, following Uniswap V3's [SqrtPriceMath]. All prices are
    Q64.96 sqrt prices; liquidity and amounts are unsigned.

    Each formula is written once, in destination-passing form: the
    [*_into] functions write their result into a register [dst] (a value
    from {!U256.scratch}) and keep their intermediate values in a
    {!scratch} the caller owns, so they allocate nothing. [dst] may be
    physically equal to any input. The immutable functions wrap them and
    allocate only their result. *)

type scratch
(** The intermediate registers and division workspace of one formula
    evaluation. Holds nothing between calls. *)

val scratch : unit -> scratch

val workspace : scratch -> U256.ws
(** The scratch's division workspace, free for the caller to use
    between formula evaluations. *)

(** {1 In place} *)

val get_next_sqrt_price_from_input_into :
  scratch -> dst:U256.t -> sqrt_price:U256.t -> liquidity:U256.t -> amount_in:U256.t ->
  zero_for_one:bool -> unit

val get_next_sqrt_price_from_output_into :
  scratch -> dst:U256.t -> sqrt_price:U256.t -> liquidity:U256.t -> amount_out:U256.t ->
  zero_for_one:bool -> unit

val get_amount0_delta_into :
  scratch -> dst:U256.t -> sqrt_a:U256.t -> sqrt_b:U256.t -> liquidity:U256.t ->
  round_up:bool -> unit

val get_amount1_delta_into :
  scratch -> dst:U256.t -> sqrt_a:U256.t -> sqrt_b:U256.t -> liquidity:U256.t ->
  round_up:bool -> unit

(** {1 Immutable} *)

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
