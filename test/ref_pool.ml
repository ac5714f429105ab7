(* Reference model for [Uniswap.Pool]'s arithmetic: the swap loop that
   built a fresh U256 for every intermediate value, kept verbatim but for
   the summary and audit change tracking (which moves no value), over the
   oracle step in ref_swap_math.ml. Mint, burn and collect are today's
   bodies too, with the token amounts of a liquidity change computed from
   the oracle formulas. test_uniswap drives random op sequences through
   this model and the library pool and compares every result, exception
   and byte image. *)

module U256 = Amm_math.U256
module Q96 = Amm_math.Q96
module Signed = Amm_math.Signed
module Tick_math = Amm_math.Tick_math
module Liquidity_math = Amm_math.Liquidity_math
module Swap_math = Ref_swap_math.Swap_math
module Sqrt_price_math = Ref_swap_math.Sqrt_price_math
module Tick = Uniswap.Tick
module Position = Uniswap.Position
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type t = {
  fee_pips : int;
  ticks : Tick.table;
  position_table : (Position_id.t, Position.t) Hashtbl.t;
  mutable sqrt_price : U256.t;
  mutable tick : int;
  mutable liquidity : U256.t;
  mutable fee_growth_global0 : U256.t;
  mutable fee_growth_global1 : U256.t;
  mutable balance0 : U256.t;
  mutable balance1 : U256.t;
}

let create ~fee_pips ~tick_spacing ~sqrt_price =
  { fee_pips; ticks = Tick.create ~tick_spacing; position_table = Hashtbl.create 16;
    sqrt_price; tick = Tick_math.get_tick_at_sqrt_ratio sqrt_price;
    liquidity = U256.zero; fee_growth_global0 = U256.zero; fee_growth_global1 = U256.zero;
    balance0 = U256.zero; balance1 = U256.zero }

(* Liquidity_math's token amounts, over the oracle formulas. *)
let amounts ~round_up ~sqrt_price ~sqrt_a ~sqrt_b ~liquidity =
  let sqrt_a, sqrt_b = if U256.gt sqrt_a sqrt_b then (sqrt_b, sqrt_a) else (sqrt_a, sqrt_b) in
  if U256.le sqrt_price sqrt_a then
    (Sqrt_price_math.get_amount0_delta ~sqrt_a ~sqrt_b ~liquidity ~round_up, U256.zero)
  else if U256.lt sqrt_price sqrt_b then
    ( Sqrt_price_math.get_amount0_delta ~sqrt_a:sqrt_price ~sqrt_b ~liquidity ~round_up,
      Sqrt_price_math.get_amount1_delta ~sqrt_a ~sqrt_b:sqrt_price ~liquidity ~round_up )
  else (U256.zero, Sqrt_price_math.get_amount1_delta ~sqrt_a ~sqrt_b ~liquidity ~round_up)

let fee_growth_inside t ~lower_tick ~upper_tick =
  let outside tick =
    match Tick.find t.ticks tick with
    | Some info -> (info.Tick.fee_growth_outside0, info.Tick.fee_growth_outside1)
    | None -> (U256.zero, U256.zero)
  in
  let lower0, lower1 = outside lower_tick in
  let upper0, upper1 = outside upper_tick in
  let below0, below1 =
    if t.tick >= lower_tick then (lower0, lower1)
    else (U256.sub t.fee_growth_global0 lower0, U256.sub t.fee_growth_global1 lower1)
  in
  let above0, above1 =
    if t.tick < upper_tick then (upper0, upper1)
    else (U256.sub t.fee_growth_global0 upper0, U256.sub t.fee_growth_global1 upper1)
  in
  ( U256.sub (U256.sub t.fee_growth_global0 below0) above0,
    U256.sub (U256.sub t.fee_growth_global1 below1) above1 )

type swap_result = {
  amount_in : U256.t;
  amount_out : U256.t;
  fee_paid : U256.t;
  sqrt_price_after : U256.t;
  tick_after : int;
  ticks_crossed : int;
}

let swap t ~zero_for_one ~amount ~sqrt_price_limit =
  let valid_limit =
    if zero_for_one then
      U256.lt sqrt_price_limit t.sqrt_price && U256.ge sqrt_price_limit Tick_math.min_sqrt_ratio
    else
      U256.gt sqrt_price_limit t.sqrt_price && U256.lt sqrt_price_limit Tick_math.max_sqrt_ratio
  in
  let specified_positive =
    match amount with
    | Swap_math.Exact_in a | Swap_math.Exact_out a -> not (U256.is_zero a)
  in
  if not valid_limit then Error "pool: invalid price limit"
  else if not specified_positive then Error "pool: zero amount"
  else begin
    let remaining = ref amount in
    let total_in = ref U256.zero and total_out = ref U256.zero in
    let total_fee = ref U256.zero in
    let crossed = ref 0 in
    let finished = ref false in
    while not !finished do
      let exhausted =
        match !remaining with
        | Swap_math.Exact_in a | Swap_math.Exact_out a -> U256.is_zero a
      in
      if exhausted || U256.equal t.sqrt_price sqrt_price_limit then finished := true
      else begin
        let tick_next, initialized =
          if zero_for_one then
            match Tick.next_initialized t.ticks ~from_tick:t.tick ~lte:true with
            | Some tk -> (Stdlib.max tk Tick_math.min_tick, true)
            | None -> (Tick_math.min_tick, false)
          else
            match Tick.next_initialized t.ticks ~from_tick:t.tick ~lte:false with
            | Some tk -> (Stdlib.min tk Tick_math.max_tick, true)
            | None -> (Tick_math.max_tick, false)
        in
        let sqrt_tick_next = Tick_math.get_sqrt_ratio_at_tick_uncached tick_next in
        let target =
          if zero_for_one then U256.max sqrt_tick_next sqrt_price_limit
          else U256.min sqrt_tick_next sqrt_price_limit
        in
        if U256.equal target t.sqrt_price then finished := true
        else begin
          let step =
            Swap_math.compute_swap_step ~sqrt_price_current:t.sqrt_price
              ~sqrt_price_target:target ~liquidity:t.liquidity
              ~amount_remaining:!remaining ~fee_pips:t.fee_pips
          in
          t.sqrt_price <- step.Swap_math.sqrt_price_next;
          let consumed_in = U256.add step.amount_in step.fee_amount in
          total_in := U256.add !total_in consumed_in;
          total_out := U256.add !total_out step.amount_out;
          total_fee := U256.add !total_fee step.fee_amount;
          (remaining :=
             match !remaining with
             | Swap_math.Exact_in a ->
               Swap_math.Exact_in
                 (if U256.ge consumed_in a then U256.zero else U256.sub a consumed_in)
             | Swap_math.Exact_out a ->
               Swap_math.Exact_out
                 (if U256.ge step.amount_out a then U256.zero else U256.sub a step.amount_out));
          if not (U256.is_zero t.liquidity) then begin
            let growth = U256.mul_div step.fee_amount Q96.q128 t.liquidity in
            if zero_for_one then
              t.fee_growth_global0 <- U256.add t.fee_growth_global0 growth
            else t.fee_growth_global1 <- U256.add t.fee_growth_global1 growth
          end;
          if U256.equal t.sqrt_price sqrt_tick_next then begin
            if initialized then begin
              incr crossed;
              let net =
                Tick.cross t.ticks ~tick:tick_next
                  ~fee_growth_global0:t.fee_growth_global0
                  ~fee_growth_global1:t.fee_growth_global1
              in
              let net = if zero_for_one then Signed.neg net else net in
              t.liquidity <- Signed.apply t.liquidity net
            end;
            t.tick <- (if zero_for_one then tick_next - 1 else tick_next)
          end
          else t.tick <- Tick_math.get_tick_at_sqrt_ratio t.sqrt_price
        end
      end
    done;
    if U256.is_zero !total_in && U256.is_zero !total_out then
      Error "pool: insufficient liquidity"
    else begin
      if zero_for_one then begin
        t.balance0 <- U256.add t.balance0 !total_in;
        t.balance1 <- U256.checked_sub t.balance1 !total_out
      end
      else begin
        t.balance1 <- U256.add t.balance1 !total_in;
        t.balance0 <- U256.checked_sub t.balance0 !total_out
      end;
      Ok
        { amount_in = !total_in; amount_out = !total_out; fee_paid = !total_fee;
          sqrt_price_after = t.sqrt_price; tick_after = t.tick;
          ticks_crossed = !crossed }
    end
  end

let update_position_liquidity t position ~liquidity_delta =
  let lower_tick = position.Position.lower_tick in
  let upper_tick = position.Position.upper_tick in
  let flipped_lower =
    Tick.update t.ticks ~tick:lower_tick ~current_tick:t.tick
      ~fee_growth_global0:t.fee_growth_global0 ~fee_growth_global1:t.fee_growth_global1
      ~liquidity_delta ~upper:false
  in
  let flipped_upper =
    Tick.update t.ticks ~tick:upper_tick ~current_tick:t.tick
      ~fee_growth_global0:t.fee_growth_global0 ~fee_growth_global1:t.fee_growth_global1
      ~liquidity_delta ~upper:true
  in
  let inside0, inside1 = fee_growth_inside t ~lower_tick ~upper_tick in
  Position.update position ~liquidity_delta ~fee_growth_inside0:inside0
    ~fee_growth_inside1:inside1;
  (match liquidity_delta with
  | Liquidity_math.Remove _ ->
    if flipped_lower then Tick.clear t.ticks lower_tick;
    if flipped_upper then Tick.clear t.ticks upper_tick
  | Liquidity_math.Add _ -> ());
  if t.tick >= lower_tick && t.tick < upper_tick then
    t.liquidity <- Liquidity_math.apply_delta t.liquidity liquidity_delta

(* The range checks are [Pool.mint]'s; the oracle only runs valid ranges. *)
let mint t ~position_id ~owner ~lower_tick ~upper_tick ~liquidity =
  let position =
    match Hashtbl.find_opt t.position_table position_id with
    | Some p -> p
    | None ->
      let p = Position.create ~id:position_id ~owner ~lower_tick ~upper_tick in
      Hashtbl.add t.position_table position_id p;
      p
  in
  update_position_liquidity t position ~liquidity_delta:(Liquidity_math.Add liquidity);
  let amount0, amount1 =
    amounts ~round_up:true ~sqrt_price:t.sqrt_price
      ~sqrt_a:(Tick_math.get_sqrt_ratio_at_tick_uncached lower_tick)
      ~sqrt_b:(Tick_math.get_sqrt_ratio_at_tick_uncached upper_tick)
      ~liquidity
  in
  t.balance0 <- U256.add t.balance0 amount0;
  t.balance1 <- U256.add t.balance1 amount1;
  (amount0, amount1)

let burn t ~position_id ~liquidity =
  let position = Hashtbl.find t.position_table position_id in
  update_position_liquidity t position ~liquidity_delta:(Liquidity_math.Remove liquidity);
  let amount0, amount1 =
    amounts ~round_up:false ~sqrt_price:t.sqrt_price
      ~sqrt_a:(Tick_math.get_sqrt_ratio_at_tick_uncached position.Position.lower_tick)
      ~sqrt_b:(Tick_math.get_sqrt_ratio_at_tick_uncached position.Position.upper_tick)
      ~liquidity
  in
  position.Position.tokens_owed0 <- U256.add position.Position.tokens_owed0 amount0;
  position.Position.tokens_owed1 <- U256.add position.Position.tokens_owed1 amount1;
  (amount0, amount1)

let collect t ~position_id ~amount0_requested ~amount1_requested =
  let position = Hashtbl.find t.position_table position_id in
  let inside0, inside1 =
    fee_growth_inside t ~lower_tick:position.Position.lower_tick
      ~upper_tick:position.Position.upper_tick
  in
  Position.update position ~liquidity_delta:(Liquidity_math.Add U256.zero)
    ~fee_growth_inside0:inside0 ~fee_growth_inside1:inside1;
  let pay0 = U256.min amount0_requested position.Position.tokens_owed0 in
  let pay1 = U256.min amount1_requested position.Position.tokens_owed1 in
  position.Position.tokens_owed0 <- U256.sub position.Position.tokens_owed0 pay0;
  position.Position.tokens_owed1 <- U256.sub position.Position.tokens_owed1 pay1;
  t.balance0 <- U256.checked_sub t.balance0 pay0;
  t.balance1 <- U256.checked_sub t.balance1 pay1;
  if Position.is_empty position then Hashtbl.remove t.position_table position_id;
  (pay0, pay1)

let find_position t pid = Hashtbl.find_opt t.position_table pid

(* [Pool.position_bytes] and [Pool.tick_bytes], over this model's tables. *)
let position_bytes t pid =
  match Hashtbl.find_opt t.position_table pid with
  | None -> None
  | Some p ->
    let buf = Buffer.create 196 in
    Buffer.add_bytes buf (Address.to_bytes p.Position.owner);
    Buffer.add_int64_be buf (Int64.of_int p.Position.lower_tick);
    Buffer.add_int64_be buf (Int64.of_int p.Position.upper_tick);
    Buffer.add_bytes buf (U256.to_bytes_be p.Position.liquidity);
    Buffer.add_bytes buf (U256.to_bytes_be p.Position.fee_growth_inside0_last);
    Buffer.add_bytes buf (U256.to_bytes_be p.Position.fee_growth_inside1_last);
    Buffer.add_bytes buf (U256.to_bytes_be p.Position.tokens_owed0);
    Buffer.add_bytes buf (U256.to_bytes_be p.Position.tokens_owed1);
    Some (Buffer.to_bytes buf)

let tick_bytes t tick =
  match Tick.find t.ticks tick with
  | None -> None
  | Some info ->
    let buf = Buffer.create 129 in
    Buffer.add_bytes buf (U256.to_bytes_be info.Tick.liquidity_gross);
    Buffer.add_char buf
      (if Signed.is_negative info.Tick.liquidity_net then '\001' else '\000');
    Buffer.add_bytes buf (U256.to_bytes_be (Signed.magnitude info.Tick.liquidity_net));
    Buffer.add_bytes buf (U256.to_bytes_be info.Tick.fee_growth_outside0);
    Buffer.add_bytes buf (U256.to_bytes_be info.Tick.fee_growth_outside1);
    Some (Buffer.to_bytes buf)
