(* Reference model for [Amm_math.Sqrt_price_math] and
   [Amm_math.Swap_math]: the immutable formulas that allocated a fresh
   U256 for every intermediate value, kept verbatim below this comment.
   The library now computes each formula once, in destination-passing
   form over caller-owned registers; test_math and test_uniswap hold
   those registers to these bodies, values and exceptions alike. *)

module U256 = Amm_math.U256
module Q96 = Amm_math.Q96

module Sqrt_price_math = struct
  let get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price ~liquidity ~amount ~add =
    if U256.is_zero amount then sqrt_price
    else begin
      let numerator1 = U256.shift_left liquidity 96 in
      if add then
        (* Preferred precise path: L<<96 * sqrtP / (L<<96 + amount*sqrtP);
           falls back to the division-first form when the product overflows,
           exactly as the Solidity implementation. *)
        match U256.checked_mul amount sqrt_price with
        | product ->
          (match U256.checked_add numerator1 product with
           | denominator -> U256.mul_div_rounding_up numerator1 sqrt_price denominator
           | exception U256.Overflow ->
             U256.div_rounding_up numerator1 (U256.add (U256.div numerator1 sqrt_price) amount))
        | exception U256.Overflow ->
          U256.div_rounding_up numerator1 (U256.add (U256.div numerator1 sqrt_price) amount)
      else begin
        let product = U256.checked_mul amount sqrt_price in
        if U256.le numerator1 product then raise U256.Overflow;
        let denominator = U256.sub numerator1 product in
        U256.mul_div_rounding_up numerator1 sqrt_price denominator
      end
    end

  let get_next_sqrt_price_from_amount1_rounding_down ~sqrt_price ~liquidity ~amount ~add =
    if add then begin
      let quotient =
        if U256.le amount Q96.q160_max then U256.div (U256.shift_left amount 96) liquidity
        else U256.mul_div amount Q96.q96 liquidity
      in
      U256.checked_add sqrt_price quotient
    end
    else begin
      let quotient =
        if U256.le amount Q96.q160_max then U256.div_rounding_up (U256.shift_left amount 96) liquidity
        else U256.mul_div_rounding_up amount Q96.q96 liquidity
      in
      if U256.le sqrt_price quotient then raise U256.Overflow;
      U256.sub sqrt_price quotient
    end

  let get_next_sqrt_price_from_input ~sqrt_price ~liquidity ~amount_in ~zero_for_one =
    if U256.is_zero sqrt_price || U256.is_zero liquidity then
      invalid_arg "Sqrt_price_math.get_next_sqrt_price_from_input";
    if zero_for_one then
      get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price ~liquidity ~amount:amount_in ~add:true
    else
      get_next_sqrt_price_from_amount1_rounding_down ~sqrt_price ~liquidity ~amount:amount_in ~add:true

  let get_next_sqrt_price_from_output ~sqrt_price ~liquidity ~amount_out ~zero_for_one =
    if U256.is_zero sqrt_price || U256.is_zero liquidity then
      invalid_arg "Sqrt_price_math.get_next_sqrt_price_from_output";
    if zero_for_one then
      get_next_sqrt_price_from_amount1_rounding_down ~sqrt_price ~liquidity ~amount:amount_out ~add:false
    else
      get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price ~liquidity ~amount:amount_out ~add:false

  let get_amount0_delta ~sqrt_a ~sqrt_b ~liquidity ~round_up =
    let sqrt_a, sqrt_b = if U256.gt sqrt_a sqrt_b then (sqrt_b, sqrt_a) else (sqrt_a, sqrt_b) in
    if U256.is_zero sqrt_a then invalid_arg "Sqrt_price_math.get_amount0_delta: zero price";
    let numerator1 = U256.shift_left liquidity 96 in
    let numerator2 = U256.sub sqrt_b sqrt_a in
    if round_up then
      U256.div_rounding_up (U256.mul_div_rounding_up numerator1 numerator2 sqrt_b) sqrt_a
    else
      U256.div (U256.mul_div numerator1 numerator2 sqrt_b) sqrt_a

  let get_amount1_delta ~sqrt_a ~sqrt_b ~liquidity ~round_up =
    let sqrt_a, sqrt_b = if U256.gt sqrt_a sqrt_b then (sqrt_b, sqrt_a) else (sqrt_a, sqrt_b) in
    let diff = U256.sub sqrt_b sqrt_a in
    if round_up then U256.mul_div_rounding_up liquidity diff Q96.q96
    else U256.mul_div liquidity diff Q96.q96
end

module Swap_math = struct
  type amount_specified = Amm_math.Swap_math.amount_specified =
    | Exact_in of U256.t
    | Exact_out of U256.t

  type step_result = Amm_math.Swap_math.step_result = {
    sqrt_price_next : U256.t;
    amount_in : U256.t;
    amount_out : U256.t;
    fee_amount : U256.t;
  }

  let fee_denominator = 1_000_000

  let compute_swap_step ~sqrt_price_current ~sqrt_price_target ~liquidity ~amount_remaining
      ~fee_pips =
    let zero_for_one = U256.ge sqrt_price_current sqrt_price_target in
    let fee_den = U256.of_int fee_denominator in
    let fee_complement = U256.of_int (fee_denominator - fee_pips) in
    let sqrt_price_next =
      match amount_remaining with
      | Exact_in amount ->
        let amount_remaining_less_fee = U256.mul_div amount fee_complement fee_den in
        let amount_in_to_target =
          if zero_for_one then
            Sqrt_price_math.get_amount0_delta ~sqrt_a:sqrt_price_target
              ~sqrt_b:sqrt_price_current ~liquidity ~round_up:true
          else
            Sqrt_price_math.get_amount1_delta ~sqrt_a:sqrt_price_current
              ~sqrt_b:sqrt_price_target ~liquidity ~round_up:true
        in
        if U256.ge amount_remaining_less_fee amount_in_to_target then sqrt_price_target
        else
          Sqrt_price_math.get_next_sqrt_price_from_input ~sqrt_price:sqrt_price_current
            ~liquidity ~amount_in:amount_remaining_less_fee ~zero_for_one
      | Exact_out amount ->
        let amount_out_to_target =
          if zero_for_one then
            Sqrt_price_math.get_amount1_delta ~sqrt_a:sqrt_price_target
              ~sqrt_b:sqrt_price_current ~liquidity ~round_up:false
          else
            Sqrt_price_math.get_amount0_delta ~sqrt_a:sqrt_price_current
              ~sqrt_b:sqrt_price_target ~liquidity ~round_up:false
        in
        if U256.ge amount amount_out_to_target then sqrt_price_target
        else
          Sqrt_price_math.get_next_sqrt_price_from_output ~sqrt_price:sqrt_price_current
            ~liquidity ~amount_out:amount ~zero_for_one
    in
    let reached_target = U256.equal sqrt_price_next sqrt_price_target in
    let amount_in =
      if zero_for_one then
        Sqrt_price_math.get_amount0_delta ~sqrt_a:sqrt_price_next ~sqrt_b:sqrt_price_current
          ~liquidity ~round_up:true
      else
        Sqrt_price_math.get_amount1_delta ~sqrt_a:sqrt_price_current ~sqrt_b:sqrt_price_next
          ~liquidity ~round_up:true
    in
    let amount_out =
      if zero_for_one then
        Sqrt_price_math.get_amount1_delta ~sqrt_a:sqrt_price_next ~sqrt_b:sqrt_price_current
          ~liquidity ~round_up:false
      else
        Sqrt_price_math.get_amount0_delta ~sqrt_a:sqrt_price_current ~sqrt_b:sqrt_price_next
          ~liquidity ~round_up:false
    in
    (* Never deliver more than an exact-output swap asked for. *)
    let amount_out =
      match amount_remaining with
      | Exact_out amount when U256.gt amount_out amount -> amount
      | Exact_out _ | Exact_in _ -> amount_out
    in
    let fee_amount =
      match amount_remaining with
      | Exact_in amount when not reached_target ->
        (* The whole remaining input is consumed: the fee is whatever is left
           after the in-range amount, so no input dust escapes the pool. *)
        U256.sub amount amount_in
      | Exact_in _ | Exact_out _ ->
        U256.mul_div_rounding_up amount_in (U256.of_int fee_pips) fee_complement
    in
    { sqrt_price_next; amount_in; amount_out; fee_amount }
end
