(** The single-step swap computation within one tick range, following
    Uniswap V3's [SwapMath.computeSwapStep]. *)

type amount_specified =
  | Exact_in of U256.t   (** remaining input the swapper still wants to spend *)
  | Exact_out of U256.t  (** remaining output the swapper still wants to receive *)

type step_result = {
  sqrt_price_next : U256.t;  (** price after this step (Q64.96) *)
  amount_in : U256.t;        (** input consumed by the step, fee excluded *)
  amount_out : U256.t;       (** output produced by the step *)
  fee_amount : U256.t;       (** fee taken on the input side *)
}

val fee_denominator : int
(** 1_000_000: fees are expressed in hundredths of a bip ("pips"). *)

(** {1 In place} *)

type scratch
(** The step's intermediate registers and division workspace. Holds
    nothing between calls. *)

val scratch : unit -> scratch

val workspace : scratch -> U256.ws
(** The scratch's division workspace, free for the caller to use
    between steps. *)

val registers : unit -> step_result
(** A step result whose four fields are fresh registers
    ({!U256.scratch}), for {!compute_swap_step_into} to write. *)

val compute_swap_step_into :
  scratch ->
  dst:step_result ->
  sqrt_price_current:U256.t ->
  sqrt_price_target:U256.t ->
  liquidity:U256.t ->
  exact_in:bool ->
  amount_remaining:U256.t ->
  fee_pips:int ->
  unit
(** {!compute_swap_step} written into the registers of [dst], allocating
    nothing. [exact_in] and [amount_remaining] stand for
    [Exact_in amount_remaining] or [Exact_out amount_remaining]. The four
    registers of [dst] must be distinct from one another and from every
    input. Raises what {!compute_swap_step} raises; [dst] then holds
    unspecified values. *)

(** {1 Immutable} *)

val compute_swap_step :
  sqrt_price_current:U256.t ->
  sqrt_price_target:U256.t ->
  liquidity:U256.t ->
  amount_remaining:amount_specified ->
  fee_pips:int ->
  step_result
(** Computes how far the price moves toward the target within the current
    liquidity range, how much is consumed/produced, and the fee charged.
    The swap direction is implied by the order of current and target
    prices. Allocates only its result. *)
