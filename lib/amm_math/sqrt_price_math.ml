(* Each formula is written once, in destination-passing form over a
   caller-owned scratch; the immutable functions at the end wrap them with
   a domain-local scratch and allocate only their result. *)

type scratch = { ws : U256.ws; t0 : U256.t; t1 : U256.t; t2 : U256.t }

let scratch () =
  { ws = U256.workspace (); t0 = U256.scratch (); t1 = U256.scratch (); t2 = U256.scratch () }

let workspace s = s.ws

let get_next_sqrt_price_from_amount0_rounding_up_into s ~dst ~sqrt_price ~liquidity ~amount
    ~add =
  if U256.is_zero amount then U256.copy_into ~dst sqrt_price
  else begin
    let numerator1 = s.t0 and product = s.t1 in
    U256.shift_left_into ~dst:numerator1 liquidity 96;
    if add then
      (* Preferred precise path: L<<96 * sqrtP / (L<<96 + amount*sqrtP);
         falls back to the division-first form when the product overflows,
         exactly as the Solidity implementation. *)
      match
        U256.checked_mul_into ~dst:product amount sqrt_price;
        U256.checked_add_into ~dst:product numerator1 product
      with
      | () -> U256.mul_div_rounding_up_into s.ws ~dst numerator1 sqrt_price product
      | exception U256.Overflow ->
        U256.div_into s.ws ~dst:product numerator1 sqrt_price;
        U256.add_into ~dst:product product amount;
        U256.div_rounding_up_into s.ws ~dst numerator1 product
    else begin
      U256.checked_mul_into ~dst:product amount sqrt_price;
      if U256.le numerator1 product then raise U256.Overflow;
      U256.sub_into ~dst:product numerator1 product;
      U256.mul_div_rounding_up_into s.ws ~dst numerator1 sqrt_price product
    end
  end

let get_next_sqrt_price_from_amount1_rounding_down_into s ~dst ~sqrt_price ~liquidity ~amount
    ~add =
  let quotient = s.t0 in
  if add then begin
    if U256.le amount Q96.q160_max then begin
      U256.shift_left_into ~dst:quotient amount 96;
      U256.div_into s.ws ~dst:quotient quotient liquidity
    end
    else U256.mul_div_into s.ws ~dst:quotient amount Q96.q96 liquidity;
    U256.checked_add_into ~dst sqrt_price quotient
  end
  else begin
    if U256.le amount Q96.q160_max then begin
      U256.shift_left_into ~dst:quotient amount 96;
      U256.div_rounding_up_into s.ws ~dst:quotient quotient liquidity
    end
    else U256.mul_div_rounding_up_into s.ws ~dst:quotient amount Q96.q96 liquidity;
    if U256.le sqrt_price quotient then raise U256.Overflow;
    U256.sub_into ~dst sqrt_price quotient
  end

let get_next_sqrt_price_from_input_into s ~dst ~sqrt_price ~liquidity ~amount_in
    ~zero_for_one =
  if U256.is_zero sqrt_price || U256.is_zero liquidity then
    invalid_arg "Sqrt_price_math.get_next_sqrt_price_from_input";
  if zero_for_one then
    get_next_sqrt_price_from_amount0_rounding_up_into s ~dst ~sqrt_price ~liquidity
      ~amount:amount_in ~add:true
  else
    get_next_sqrt_price_from_amount1_rounding_down_into s ~dst ~sqrt_price ~liquidity
      ~amount:amount_in ~add:true

let get_next_sqrt_price_from_output_into s ~dst ~sqrt_price ~liquidity ~amount_out
    ~zero_for_one =
  if U256.is_zero sqrt_price || U256.is_zero liquidity then
    invalid_arg "Sqrt_price_math.get_next_sqrt_price_from_output";
  if zero_for_one then
    get_next_sqrt_price_from_amount1_rounding_down_into s ~dst ~sqrt_price ~liquidity
      ~amount:amount_out ~add:false
  else
    get_next_sqrt_price_from_amount0_rounding_up_into s ~dst ~sqrt_price ~liquidity
      ~amount:amount_out ~add:false

let get_amount0_delta_into s ~dst ~sqrt_a ~sqrt_b ~liquidity ~round_up =
  let swap = U256.gt sqrt_a sqrt_b in
  let sqrt_a = if swap then sqrt_b else sqrt_a and sqrt_b = if swap then sqrt_a else sqrt_b in
  if U256.is_zero sqrt_a then invalid_arg "Sqrt_price_math.get_amount0_delta: zero price";
  let numerator1 = s.t0 and numerator2 = s.t1 and scaled = s.t2 in
  U256.shift_left_into ~dst:numerator1 liquidity 96;
  U256.sub_into ~dst:numerator2 sqrt_b sqrt_a;
  if round_up then begin
    U256.mul_div_rounding_up_into s.ws ~dst:scaled numerator1 numerator2 sqrt_b;
    U256.div_rounding_up_into s.ws ~dst scaled sqrt_a
  end
  else begin
    U256.mul_div_into s.ws ~dst:scaled numerator1 numerator2 sqrt_b;
    U256.div_into s.ws ~dst scaled sqrt_a
  end

let get_amount1_delta_into s ~dst ~sqrt_a ~sqrt_b ~liquidity ~round_up =
  let swap = U256.gt sqrt_a sqrt_b in
  let sqrt_a = if swap then sqrt_b else sqrt_a and sqrt_b = if swap then sqrt_a else sqrt_b in
  let diff = s.t0 in
  U256.sub_into ~dst:diff sqrt_b sqrt_a;
  if round_up then U256.mul_div_rounding_up_into s.ws ~dst liquidity diff Q96.q96
  else U256.mul_div_into s.ws ~dst liquidity diff Q96.q96

(* ------------------------------------------------------------------ *)
(* Immutable wrappers                                                  *)
(* ------------------------------------------------------------------ *)

(* No formula above calls back into a wrapper, so one scratch per domain
   serves every call. *)
let shared_scratch = Domain.DLS.new_key scratch
let shared () = Domain.DLS.get shared_scratch

let get_next_sqrt_price_from_amount0_rounding_up ~sqrt_price ~liquidity ~amount ~add =
  let dst = U256.scratch () in
  get_next_sqrt_price_from_amount0_rounding_up_into (shared ()) ~dst ~sqrt_price ~liquidity
    ~amount ~add;
  dst

let get_next_sqrt_price_from_input ~sqrt_price ~liquidity ~amount_in ~zero_for_one =
  let dst = U256.scratch () in
  get_next_sqrt_price_from_input_into (shared ()) ~dst ~sqrt_price ~liquidity ~amount_in
    ~zero_for_one;
  dst

let get_next_sqrt_price_from_output ~sqrt_price ~liquidity ~amount_out ~zero_for_one =
  let dst = U256.scratch () in
  get_next_sqrt_price_from_output_into (shared ()) ~dst ~sqrt_price ~liquidity ~amount_out
    ~zero_for_one;
  dst

let get_amount0_delta ~sqrt_a ~sqrt_b ~liquidity ~round_up =
  let dst = U256.scratch () in
  get_amount0_delta_into (shared ()) ~dst ~sqrt_a ~sqrt_b ~liquidity ~round_up;
  dst

let get_amount1_delta ~sqrt_a ~sqrt_b ~liquidity ~round_up =
  let dst = U256.scratch () in
  get_amount1_delta_into (shared ()) ~dst ~sqrt_a ~sqrt_b ~liquidity ~round_up;
  dst
