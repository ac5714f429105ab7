type amount_specified =
  | Exact_in of U256.t
  | Exact_out of U256.t

type step_result = {
  sqrt_price_next : U256.t;
  amount_in : U256.t;
  amount_out : U256.t;
  fee_amount : U256.t;
}

type scratch = {
  math : Sqrt_price_math.scratch;
  fee : U256.t;
  fee_complement : U256.t;
  less_fee : U256.t;
  to_target : U256.t;
}

let scratch () =
  { math = Sqrt_price_math.scratch (); fee = U256.scratch ();
    fee_complement = U256.scratch (); less_fee = U256.scratch ();
    to_target = U256.scratch () }

let workspace s = Sqrt_price_math.workspace s.math

let registers () =
  { sqrt_price_next = U256.scratch (); amount_in = U256.scratch ();
    amount_out = U256.scratch (); fee_amount = U256.scratch () }

let fee_denominator = 1_000_000
let fee_den = U256.of_int fee_denominator

let compute_swap_step_into s ~dst ~sqrt_price_current ~sqrt_price_target ~liquidity ~exact_in
    ~amount_remaining ~fee_pips =
  let { sqrt_price_next; amount_in; amount_out; fee_amount } = dst in
  let m = s.math and amount = amount_remaining in
  let zero_for_one = U256.ge sqrt_price_current sqrt_price_target in
  U256.of_int_into ~dst:s.fee_complement (fee_denominator - fee_pips);
  if exact_in then begin
    U256.mul_div_into (workspace s) ~dst:s.less_fee amount s.fee_complement fee_den;
    if zero_for_one then
      Sqrt_price_math.get_amount0_delta_into m ~dst:s.to_target ~sqrt_a:sqrt_price_target
        ~sqrt_b:sqrt_price_current ~liquidity ~round_up:true
    else
      Sqrt_price_math.get_amount1_delta_into m ~dst:s.to_target ~sqrt_a:sqrt_price_current
        ~sqrt_b:sqrt_price_target ~liquidity ~round_up:true;
    if U256.ge s.less_fee s.to_target then U256.copy_into ~dst:sqrt_price_next sqrt_price_target
    else
      Sqrt_price_math.get_next_sqrt_price_from_input_into m ~dst:sqrt_price_next
        ~sqrt_price:sqrt_price_current ~liquidity ~amount_in:s.less_fee ~zero_for_one
  end
  else begin
    if zero_for_one then
      Sqrt_price_math.get_amount1_delta_into m ~dst:s.to_target ~sqrt_a:sqrt_price_target
        ~sqrt_b:sqrt_price_current ~liquidity ~round_up:false
    else
      Sqrt_price_math.get_amount0_delta_into m ~dst:s.to_target ~sqrt_a:sqrt_price_current
        ~sqrt_b:sqrt_price_target ~liquidity ~round_up:false;
    if U256.ge amount s.to_target then U256.copy_into ~dst:sqrt_price_next sqrt_price_target
    else
      Sqrt_price_math.get_next_sqrt_price_from_output_into m ~dst:sqrt_price_next
        ~sqrt_price:sqrt_price_current ~liquidity ~amount_out:amount ~zero_for_one
  end;
  let reached_target = U256.equal sqrt_price_next sqrt_price_target in
  if zero_for_one then begin
    Sqrt_price_math.get_amount0_delta_into m ~dst:amount_in ~sqrt_a:sqrt_price_next
      ~sqrt_b:sqrt_price_current ~liquidity ~round_up:true;
    Sqrt_price_math.get_amount1_delta_into m ~dst:amount_out ~sqrt_a:sqrt_price_next
      ~sqrt_b:sqrt_price_current ~liquidity ~round_up:false
  end
  else begin
    Sqrt_price_math.get_amount1_delta_into m ~dst:amount_in ~sqrt_a:sqrt_price_current
      ~sqrt_b:sqrt_price_next ~liquidity ~round_up:true;
    Sqrt_price_math.get_amount0_delta_into m ~dst:amount_out ~sqrt_a:sqrt_price_current
      ~sqrt_b:sqrt_price_next ~liquidity ~round_up:false
  end;
  (* Never deliver more than an exact-output swap asked for. *)
  if (not exact_in) && U256.gt amount_out amount then U256.copy_into ~dst:amount_out amount;
  if exact_in && not reached_target then
    (* The whole remaining input is consumed: the fee is whatever is left
       after the in-range amount, so no input dust escapes the pool. *)
    U256.sub_into ~dst:fee_amount amount amount_in
  else begin
    U256.of_int_into ~dst:s.fee fee_pips;
    U256.mul_div_rounding_up_into (workspace s) ~dst:fee_amount amount_in s.fee
      s.fee_complement
  end

(* One scratch per domain serves the immutable wrapper. *)
let shared_scratch = Domain.DLS.new_key scratch

let compute_swap_step ~sqrt_price_current ~sqrt_price_target ~liquidity ~amount_remaining
    ~fee_pips =
  let dst = registers () in
  let exact_in = match amount_remaining with Exact_in _ -> true | Exact_out _ -> false in
  let amount = match amount_remaining with Exact_in a | Exact_out a -> a in
  compute_swap_step_into (Domain.DLS.get shared_scratch) ~dst ~sqrt_price_current
    ~sqrt_price_target ~liquidity ~exact_in ~amount_remaining:amount ~fee_pips;
  dst
