module U256 = Amm_math.U256
module Swap_math = Amm_math.Swap_math
module Tick_math = Amm_math.Tick_math
module Liquidity_math = Amm_math.Liquidity_math
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type swap_outcome = {
  spent : U256.t;
  received : U256.t;
  fee : U256.t;
  ticks_crossed : int;
}

let ( let* ) = Result.bind

let limit_or_default ~zero_for_one = function
  | Some l -> l
  | None -> Pool.default_price_limit ~zero_for_one

let exact_input pool ~zero_for_one ~amount_in ~min_amount_out ?sqrt_price_limit () =
  let sqrt_price_limit = limit_or_default ~zero_for_one sqrt_price_limit in
  let* r =
    Pool.swap pool ~zero_for_one ~amount:(Swap_math.Exact_in amount_in) ~sqrt_price_limit
  in
  if U256.lt r.Pool.amount_in amount_in then Error "router: input not fully consumable"
  else if U256.lt r.Pool.amount_out min_amount_out then Error "router: slippage (output too low)"
  else
    Ok { spent = r.Pool.amount_in; received = r.Pool.amount_out; fee = r.Pool.fee_paid;
         ticks_crossed = r.Pool.ticks_crossed }

let exact_output pool ~zero_for_one ~amount_out ~max_amount_in ?sqrt_price_limit () =
  let sqrt_price_limit = limit_or_default ~zero_for_one sqrt_price_limit in
  let* r =
    Pool.swap pool ~zero_for_one ~amount:(Swap_math.Exact_out amount_out) ~sqrt_price_limit
  in
  if U256.lt r.Pool.amount_out amount_out then Error "router: insufficient liquidity for output"
  else if U256.gt r.Pool.amount_in max_amount_in then Error "router: slippage (input too high)"
  else
    Ok { spent = r.Pool.amount_in; received = r.Pool.amount_out; fee = r.Pool.fee_paid;
         ticks_crossed = r.Pool.ticks_crossed }

type mint_outcome = {
  minted_liquidity : U256.t;
  amount0_used : U256.t;
  amount1_used : U256.t;
}

let mint pool ~position_id ~owner ~lower_tick ~upper_tick ~amount0_desired ~amount1_desired =
  (* Reject malformed ranges before any tick-math computation — a bad
     transaction must surface as an error, never an exception. *)
  let* () =
    if lower_tick >= upper_tick then Error "router: lower tick must be below upper tick"
    else if lower_tick < Tick_math.min_tick || upper_tick > Tick_math.max_tick then
      Error "router: tick out of range"
    else Ok ()
  in
  let sqrt_a = Tick_math.get_sqrt_ratio_at_tick lower_tick in
  let sqrt_b = Tick_math.get_sqrt_ratio_at_tick upper_tick in
  let liquidity =
    Liquidity_math.get_liquidity_for_amounts ~sqrt_price:(Pool.sqrt_price pool) ~sqrt_a
      ~sqrt_b ~amount0:amount0_desired ~amount1:amount1_desired
  in
  if U256.is_zero liquidity then Error "router: amounts too small for any liquidity"
  else
    let* amount0_used, amount1_used =
      Pool.mint pool ~position_id ~owner ~lower_tick ~upper_tick ~liquidity
    in
    (* getLiquidityForAmounts guarantees the used amounts never exceed the
       desired budgets (up to rounding, checked here). *)
    if U256.gt amount0_used amount0_desired || U256.gt amount1_used amount1_desired then
      Error "router: internal rounding exceeded desired amounts"
    else Ok { minted_liquidity = liquidity; amount0_used; amount1_used }

type burn_outcome = {
  burned_liquidity : U256.t;
  amount0_owed : U256.t;
  amount1_owed : U256.t;
  position_deleted : bool;
}

let owned_position pool ~position_id ~caller =
  match Pool.find_position pool position_id with
  | None -> Error "router: unknown position"
  | Some p ->
    if Address.equal p.Position.owner caller then Ok p
    else Error "router: caller does not own the position"

let burn pool ~position_id ~caller ~amount0_requested ~amount1_requested =
  let* position = owned_position pool ~position_id ~caller in
  let held = position.Position.liquidity in
  if U256.is_zero held then Error "router: position has no liquidity"
  else begin
    let sqrt_a = Tick_math.get_sqrt_ratio_at_tick position.Position.lower_tick in
    let sqrt_b = Tick_math.get_sqrt_ratio_at_tick position.Position.upper_tick in
    (* How much liquidity the requested token amounts correspond to; a
       request covering the whole position burns it entirely. *)
    let full0, full1 =
      Liquidity_math.get_amounts_for_liquidity ~sqrt_price:(Pool.sqrt_price pool) ~sqrt_a
        ~sqrt_b ~liquidity:held
    in
    let liquidity =
      if U256.ge amount0_requested full0 && U256.ge amount1_requested full1 then held
      else
        U256.min held
          (Liquidity_math.get_liquidity_for_amounts ~sqrt_price:(Pool.sqrt_price pool)
             ~sqrt_a ~sqrt_b ~amount0:amount0_requested ~amount1:amount1_requested)
    in
    if U256.is_zero liquidity then Error "router: requested amounts burn no liquidity"
    else
      let* amount0_owed, amount1_owed = Pool.burn pool ~position_id ~liquidity in
      let deleted = U256.is_zero (U256.sub held liquidity) in
      Ok { burned_liquidity = liquidity; amount0_owed; amount1_owed;
           position_deleted = deleted }
  end

type collect_outcome = { collected0 : U256.t; collected1 : U256.t; position_deleted : bool }

let collect pool ~position_id ~caller ~amount0_requested ~amount1_requested =
  let* _position = owned_position pool ~position_id ~caller in
  let* collected0, collected1 =
    Pool.collect pool ~position_id ~amount0_requested ~amount1_requested
  in
  let deleted = Pool.find_position pool position_id = None in
  Ok { collected0; collected1; position_deleted = deleted }
