module U256 = Amm_math.U256
module Q96 = Amm_math.Q96
module Signed = Amm_math.Signed
module Tick_math = Amm_math.Tick_math
module Swap_math = Amm_math.Swap_math
module Sqrt_price_math = Amm_math.Sqrt_price_math
module Liquidity_math = Amm_math.Liquidity_math
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id

type t = {
  pool_id : int;
  token0 : Chain.Token.t;
  token1 : Chain.Token.t;
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
  (* Inclusion-time change tracking for O(Δ) epoch summaries. [dirty]
     over-approximates the positions whose summary entry may differ from
     the epoch-start snapshot: every minted/burned/collected position,
     plus every position that was in range during a swap since the last
     [epoch_reset]. [in_range] is the standing set
     of positions whose range contains the current tick, maintained at
     mint/collect and at tick crossings via [bounds_index]
     (tick -> positions bound there). [fee_marked] records that the
     current in-range set has already been bulk-marked this epoch, so
     later fee events only pay for new entrants. *)
  dirty : (Position_id.t, unit) Hashtbl.t;
  in_range : (Position_id.t, unit) Hashtbl.t;
  bounds_index : (int, Position_id.t list ref) Hashtbl.t;
  mutable fee_marked : bool;
  (* Twin-audit write tracking, orthogonal to [dirty] (which
     over-approximates summary candidates): these record exactly the
     positions and ticks whose bytes were written. [op_*] collect the
     writes of the transaction in flight and are drained per op by the
     processor's tap; [audit_*] accumulate until the epoch-boundary
     audit clears them. Fault injection marks only [audit_*] — a silent
     corruption must not be attributed to the next transaction. *)
  op_pos : (Position_id.t, unit) Hashtbl.t;
  op_ticks : (int, unit) Hashtbl.t;
  audit_pos : (Position_id.t, unit) Hashtbl.t;
  audit_ticks : (int, unit) Hashtbl.t;
  regs : regs;
}

(* The swap loop's register file: the step's scratch and results, the
   amount still to swap, the running totals and the fee-growth
   increment. Registers are mutated in place and never leave the pool:
   every value the pool publishes — a field, a swap result — is a fresh
   copy, because [Tick.update], [clone] and the sync payload keep the
   published values by reference. *)
and regs = {
  scratch : Swap_math.scratch;
  step : Swap_math.step_result;
  remaining : U256.t;
  consumed : U256.t;
  total_in : U256.t;
  total_out : U256.t;
  total_fee : U256.t;
  growth : U256.t;
}

let registers () =
  { scratch = Swap_math.scratch (); step = Swap_math.registers ();
    remaining = U256.scratch (); consumed = U256.scratch (); total_in = U256.scratch ();
    total_out = U256.scratch (); total_fee = U256.scratch (); growth = U256.scratch () }

let create ~pool_id ~token0 ~token1 ~fee_pips ~tick_spacing ~sqrt_price =
  if U256.lt sqrt_price Tick_math.min_sqrt_ratio || U256.ge sqrt_price Tick_math.max_sqrt_ratio
  then invalid_arg "Pool.create: sqrt_price out of range";
  { pool_id; token0; token1; fee_pips;
    ticks = Tick.create ~tick_spacing;
    position_table = Hashtbl.create 64;
    sqrt_price;
    tick = Tick_math.get_tick_at_sqrt_ratio sqrt_price;
    liquidity = U256.zero;
    fee_growth_global0 = U256.zero; fee_growth_global1 = U256.zero;
    balance0 = U256.zero; balance1 = U256.zero;
    dirty = Hashtbl.create 64; in_range = Hashtbl.create 64;
    bounds_index = Hashtbl.create 64; fee_marked = false;
    op_pos = Hashtbl.create 16; op_ticks = Hashtbl.create 16;
    audit_pos = Hashtbl.create 64; audit_ticks = Hashtbl.create 64;
    regs = registers () }

let clone t =
  let copy_tbl src =
    let dst = Hashtbl.create (Stdlib.max 16 (Hashtbl.length src)) in
    Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src;
    dst
  in
  let position_table = Hashtbl.create (Hashtbl.length t.position_table) in
  Hashtbl.iter
    (fun k (p : Position.t) ->
      Hashtbl.replace position_table k
        { p with Position.liquidity = p.Position.liquidity })
    t.position_table;
  let bounds_index = Hashtbl.create (Stdlib.max 16 (Hashtbl.length t.bounds_index)) in
  Hashtbl.iter (fun k l -> Hashtbl.replace bounds_index k (ref !l)) t.bounds_index;
  { t with ticks = Tick.clone t.ticks; position_table;
    dirty = copy_tbl t.dirty; in_range = copy_tbl t.in_range; bounds_index;
    op_pos = copy_tbl t.op_pos; op_ticks = copy_tbl t.op_ticks;
    audit_pos = copy_tbl t.audit_pos; audit_ticks = copy_tbl t.audit_ticks;
    regs = registers () }

(* ------------------------------------------------------------------ *)
(* Change tracking                                                     *)
(* ------------------------------------------------------------------ *)

let mark_dirty t pid = Hashtbl.replace t.dirty pid ()

let write_pos t pid =
  Hashtbl.replace t.op_pos pid ();
  Hashtbl.replace t.audit_pos pid ()

let write_tick t tick =
  Hashtbl.replace t.op_ticks tick ();
  Hashtbl.replace t.audit_ticks tick ()

(* Fees are about to accrue to in-range liquidity: make sure every
   position currently in range is a summary candidate. Amortized — the
   bulk pass runs once per epoch, later fee events only mark entrants. *)
let mark_fee_bearing t =
  if not t.fee_marked then begin
    Hashtbl.iter (fun pid () -> mark_dirty t pid) t.in_range;
    t.fee_marked <- true
  end

let bounds_add t tick pid =
  match Hashtbl.find_opt t.bounds_index tick with
  | Some l -> l := pid :: !l
  | None -> Hashtbl.add t.bounds_index tick (ref [ pid ])

let bounds_remove t tick pid =
  match Hashtbl.find_opt t.bounds_index tick with
  | Some l ->
    l := List.filter (fun q -> not (Position_id.equal q pid)) !l;
    if !l = [] then Hashtbl.remove t.bounds_index tick
  | None -> ()

(* Re-derive whether [pid]'s range contains the current tick. Entering
   range marks the position: any subsequent fee event reaches it. *)
let refresh_range_membership t pid =
  match Hashtbl.find_opt t.position_table pid with
  | None -> Hashtbl.remove t.in_range pid
  | Some p ->
    if p.Position.lower_tick <= t.tick && t.tick < p.Position.upper_tick then begin
      if not (Hashtbl.mem t.in_range pid) then begin
        Hashtbl.replace t.in_range pid ();
        mark_dirty t pid
      end
    end
    else Hashtbl.remove t.in_range pid

let drain_op_writes t =
  let pos =
    List.sort Position_id.compare
      (Hashtbl.fold (fun pid () acc -> pid :: acc) t.op_pos [])
  in
  let ticks = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.op_ticks []) in
  Hashtbl.reset t.op_pos;
  Hashtbl.reset t.op_ticks;
  (pos, ticks)

let audit_writes t =
  let pos =
    List.sort Position_id.compare
      (Hashtbl.fold (fun pid () acc -> pid :: acc) t.audit_pos [])
  in
  let ticks =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.audit_ticks [])
  in
  (pos, ticks)

let clear_audit_writes t =
  Hashtbl.reset t.audit_pos;
  Hashtbl.reset t.audit_ticks

let epoch_candidates t = Hashtbl.fold (fun pid () acc -> pid :: acc) t.dirty []

let epoch_reset t =
  Hashtbl.reset t.dirty;
  t.fee_marked <- false

let pool_id t = t.pool_id
let token0 t = t.token0
let token1 t = t.token1
let fee_pips t = t.fee_pips
let sqrt_price t = t.sqrt_price
let current_tick t = t.tick
let liquidity t = t.liquidity
let balance0 t = t.balance0
let balance1 t = t.balance1
let fee_growth_global0 t = t.fee_growth_global0
let fee_growth_global1 t = t.fee_growth_global1
let find_position t pid = Hashtbl.find_opt t.position_table pid

let positions t = Hashtbl.fold (fun _ p acc -> p :: acc) t.position_table []
let position_count t = Hashtbl.length t.position_table
let initialized_tick_count t = Tick.initialized_count t.ticks

(* ------------------------------------------------------------------ *)
(* Fee growth inside a range                                           *)
(* ------------------------------------------------------------------ *)

let fee_growth_inside t ~lower_tick ~upper_tick =
  let outside tick =
    match Tick.find t.ticks tick with
    | Some info -> (info.Tick.fee_growth_outside0, info.Tick.fee_growth_outside1)
    | None -> (U256.zero, U256.zero)
  in
  let lower0, lower1 = outside lower_tick in
  let upper0, upper1 = outside upper_tick in
  (* All subtractions wrap, exactly as V3's X128 accounting does. *)
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

(* ------------------------------------------------------------------ *)
(* Swaps                                                               *)
(* ------------------------------------------------------------------ *)

type swap_result = {
  amount_in : U256.t;
  amount_out : U256.t;
  fee_paid : U256.t;
  sqrt_price_after : U256.t;
  tick_after : int;
  ticks_crossed : int;
}

(* Shared constants: [swap] only reads its limit. *)
let min_price_limit = U256.add Tick_math.min_sqrt_ratio U256.one
let max_price_limit = U256.sub Tick_math.max_sqrt_ratio U256.one

let default_price_limit ~zero_for_one =
  if zero_for_one then min_price_limit else max_price_limit

let swap t ~zero_for_one ~amount ~sqrt_price_limit =
  let valid_limit =
    if zero_for_one then
      U256.lt sqrt_price_limit t.sqrt_price && U256.ge sqrt_price_limit Tick_math.min_sqrt_ratio
    else
      U256.gt sqrt_price_limit t.sqrt_price && U256.lt sqrt_price_limit Tick_math.max_sqrt_ratio
  in
  let exact_in = match amount with Swap_math.Exact_in _ -> true | Swap_math.Exact_out _ -> false in
  let specified = match amount with Swap_math.Exact_in a | Swap_math.Exact_out a -> a in
  if not valid_limit then Error "pool: invalid price limit"
  else if U256.is_zero specified then Error "pool: zero amount"
  else begin
    (* Every position in range anywhere along the swap path may accrue
       fees: mark the current set now, entrants as ticks are crossed. *)
    mark_fee_bearing t;
    let r = t.regs in
    let step = r.step in
    U256.copy_into ~dst:r.remaining specified;
    U256.copy_into ~dst:r.total_in U256.zero;
    U256.copy_into ~dst:r.total_out U256.zero;
    U256.copy_into ~dst:r.total_fee U256.zero;
    let crossed = ref 0 in
    let finished = ref false in
    while not !finished do
      if U256.is_zero r.remaining || U256.equal t.sqrt_price sqrt_price_limit then
        finished := true
      else begin
        (* Find the next initialized tick in the swap direction; the pool
           edge acts as a final pseudo-tick. *)
        let next = Tick.next_initialized t.ticks ~from_tick:t.tick ~lte:zero_for_one in
        let initialized = Option.is_some next in
        let tick_next =
          match next with
          | Some tk ->
            if zero_for_one then Stdlib.max tk Tick_math.min_tick
            else Stdlib.min tk Tick_math.max_tick
          | None -> if zero_for_one then Tick_math.min_tick else Tick_math.max_tick
        in
        let sqrt_tick_next = Tick_math.get_sqrt_ratio_at_tick tick_next in
        let target =
          if zero_for_one then U256.max sqrt_tick_next sqrt_price_limit
          else U256.min sqrt_tick_next sqrt_price_limit
        in
        if U256.equal target t.sqrt_price then
          (* No liquidity left in the direction of travel. *)
          finished := true
        else begin
          Swap_math.compute_swap_step_into r.scratch ~dst:step
            ~sqrt_price_current:t.sqrt_price ~sqrt_price_target:target ~liquidity:t.liquidity
            ~exact_in ~amount_remaining:r.remaining ~fee_pips:t.fee_pips;
          t.sqrt_price <- U256.copy step.Swap_math.sqrt_price_next;
          U256.add_into ~dst:r.consumed step.amount_in step.fee_amount;
          U256.add_into ~dst:r.total_in r.total_in r.consumed;
          U256.add_into ~dst:r.total_out r.total_out step.amount_out;
          U256.add_into ~dst:r.total_fee r.total_fee step.fee_amount;
          let used = if exact_in then r.consumed else step.amount_out in
          if U256.ge used r.remaining then U256.copy_into ~dst:r.remaining U256.zero
          else U256.sub_into ~dst:r.remaining r.remaining used;
          (* The fee accrues to in-range liquidity on the input token side. *)
          if not (U256.is_zero t.liquidity) then begin
            U256.mul_div_into (Swap_math.workspace r.scratch) ~dst:r.growth step.fee_amount
              Q96.q128 t.liquidity;
            if zero_for_one then
              t.fee_growth_global0 <- U256.add t.fee_growth_global0 r.growth
            else t.fee_growth_global1 <- U256.add t.fee_growth_global1 r.growth
          end;
          if U256.equal t.sqrt_price sqrt_tick_next then begin
            if initialized then begin
              incr crossed;
              write_tick t tick_next;
              let net =
                Tick.cross t.ticks ~tick:tick_next
                  ~fee_growth_global0:t.fee_growth_global0
                  ~fee_growth_global1:t.fee_growth_global1
              in
              let net = if zero_for_one then Signed.neg net else net in
              t.liquidity <- Signed.apply t.liquidity net
            end;
            t.tick <- (if zero_for_one then tick_next - 1 else tick_next);
            (* Crossing flips range membership for positions bound at
               this tick; entrants get marked for the epoch summary. *)
            (match Hashtbl.find_opt t.bounds_index tick_next with
            | Some l -> List.iter (refresh_range_membership t) !l
            | None -> ())
          end
          else t.tick <- Tick_math.get_tick_at_sqrt_ratio t.sqrt_price
        end
      end
    done;
    if U256.is_zero r.total_in && U256.is_zero r.total_out then
      Error "pool: insufficient liquidity"
    else begin
      if zero_for_one then begin
        t.balance0 <- U256.add t.balance0 r.total_in;
        t.balance1 <- U256.checked_sub t.balance1 r.total_out
      end
      else begin
        t.balance1 <- U256.add t.balance1 r.total_in;
        t.balance0 <- U256.checked_sub t.balance0 r.total_out
      end;
      Ok
        { amount_in = U256.copy r.total_in; amount_out = U256.copy r.total_out;
          fee_paid = U256.copy r.total_fee; sqrt_price_after = t.sqrt_price;
          tick_after = t.tick; ticks_crossed = !crossed }
    end
  end

(* ------------------------------------------------------------------ *)
(* Liquidity management                                                *)
(* ------------------------------------------------------------------ *)

let check_ticks t ~lower_tick ~upper_tick =
  let spacing = Tick.tick_spacing t.ticks in
  if lower_tick >= upper_tick then Error "pool: lower tick must be below upper tick"
  else if lower_tick < Tick_math.min_tick || upper_tick > Tick_math.max_tick then
    Error "pool: tick out of range"
  else if lower_tick mod spacing <> 0 || upper_tick mod spacing <> 0 then
    Error "pool: tick not a multiple of spacing"
  else Ok ()

let update_position_liquidity t position ~liquidity_delta =
  let lower_tick = position.Position.lower_tick in
  let upper_tick = position.Position.upper_tick in
  write_pos t position.Position.id;
  write_tick t lower_tick;
  write_tick t upper_tick;
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
  (* Ticks whose gross liquidity dropped to zero are garbage collected. *)
  (match liquidity_delta with
  | Liquidity_math.Remove _ ->
    if flipped_lower then Tick.clear t.ticks lower_tick;
    if flipped_upper then Tick.clear t.ticks upper_tick
  | Liquidity_math.Add _ -> ());
  if t.tick >= lower_tick && t.tick < upper_tick then
    t.liquidity <- Liquidity_math.apply_delta t.liquidity liquidity_delta

let mint t ~position_id ~owner ~lower_tick ~upper_tick ~liquidity =
  match check_ticks t ~lower_tick ~upper_tick with
  | Error e -> Error e
  | Ok () ->
    if U256.is_zero liquidity then Error "pool: zero liquidity mint"
    else begin
      let position =
        match Hashtbl.find_opt t.position_table position_id with
        | Some p -> p
        | None ->
          let p = Position.create ~id:position_id ~owner ~lower_tick ~upper_tick in
          Hashtbl.add t.position_table position_id p;
          bounds_add t lower_tick position_id;
          bounds_add t upper_tick position_id;
          p
      in
      if not (Address.equal position.Position.owner owner) then
        Error "pool: not the position owner"
      else if position.Position.lower_tick <> lower_tick
              || position.Position.upper_tick <> upper_tick then
        Error "pool: position range mismatch"
      else begin
        update_position_liquidity t position ~liquidity_delta:(Liquidity_math.Add liquidity);
        mark_dirty t position_id;
        refresh_range_membership t position_id;
        let amount0, amount1 =
          Liquidity_math.get_amounts_for_liquidity_rounding_up ~sqrt_price:t.sqrt_price
            ~sqrt_a:(Tick_math.get_sqrt_ratio_at_tick lower_tick)
            ~sqrt_b:(Tick_math.get_sqrt_ratio_at_tick upper_tick)
            ~liquidity
        in
        t.balance0 <- U256.add t.balance0 amount0;
        t.balance1 <- U256.add t.balance1 amount1;
        Ok (amount0, amount1)
      end
    end

let burn t ~position_id ~liquidity =
  match Hashtbl.find_opt t.position_table position_id with
  | None -> Error "pool: unknown position"
  | Some position ->
    if U256.gt liquidity position.Position.liquidity then
      Error "pool: burning more than the position holds"
    else if U256.is_zero liquidity then Error "pool: zero liquidity burn"
    else begin
      update_position_liquidity t position
        ~liquidity_delta:(Liquidity_math.Remove liquidity);
      mark_dirty t position_id;
      let amount0, amount1 =
        Liquidity_math.get_amounts_for_liquidity ~sqrt_price:t.sqrt_price
          ~sqrt_a:(Tick_math.get_sqrt_ratio_at_tick position.Position.lower_tick)
          ~sqrt_b:(Tick_math.get_sqrt_ratio_at_tick position.Position.upper_tick)
          ~liquidity
      in
      position.Position.tokens_owed0 <- U256.add position.Position.tokens_owed0 amount0;
      position.Position.tokens_owed1 <- U256.add position.Position.tokens_owed1 amount1;
      Ok (amount0, amount1)
    end

let touch_position t position_id =
  match Hashtbl.find_opt t.position_table position_id with
  | None -> Error "pool: unknown position"
  | Some position ->
    let inside0, inside1 =
      fee_growth_inside t ~lower_tick:position.Position.lower_tick
        ~upper_tick:position.Position.upper_tick
    in
    Position.update position ~liquidity_delta:(Liquidity_math.Add U256.zero)
      ~fee_growth_inside0:inside0 ~fee_growth_inside1:inside1;
    write_pos t position_id;
    Ok ()

let collect t ~position_id ~amount0_requested ~amount1_requested =
  match touch_position t position_id with
  | Error e -> Error e
  | Ok () ->
    let position = Hashtbl.find t.position_table position_id in
    let pay0 = U256.min amount0_requested position.Position.tokens_owed0 in
    let pay1 = U256.min amount1_requested position.Position.tokens_owed1 in
    position.Position.tokens_owed0 <- U256.sub position.Position.tokens_owed0 pay0;
    position.Position.tokens_owed1 <- U256.sub position.Position.tokens_owed1 pay1;
    t.balance0 <- U256.checked_sub t.balance0 pay0;
    t.balance1 <- U256.checked_sub t.balance1 pay1;
    mark_dirty t position_id;
    if Position.is_empty position then begin
      Hashtbl.remove t.position_table position_id;
      Hashtbl.remove t.in_range position_id;
      bounds_remove t position.Position.lower_tick position_id;
      bounds_remove t position.Position.upper_tick position_id
    end;
    Ok (pay0, pay1)

(* ------------------------------------------------------------------ *)
(* Audit images                                                        *)
(* ------------------------------------------------------------------ *)

(* Canonical byte images of a position / an initialized tick for the
   twin's differential audit. Not a durable codec — a stable,
   field-complete surface: two pools that agree on every image (plus
   the scalar section) are observably identical. *)

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

(* Deterministic nth initialized tick, walking the sorted set. *)
let nth_initialized ticks n =
  let rec go from k =
    match Tick.next_initialized ticks ~from_tick:from ~lte:false with
    | None -> None
    | Some tk -> if k = 0 then Some tk else go tk (k - 1)
  in
  go (Tick_math.min_tick - 1) n

(* Corruption stays within the fee-growth accumulators: they are pure
   audit surface, so the flipped run keeps satisfying the pool's
   liquidity arithmetic and terminates — the audit, not a crash, must
   be what catches the fault. Marks only the audit set: out-of-band
   damage is not attributable to any transaction. *)
let corrupt_tick_bit t ~index ~bit =
  let n = Tick.initialized_count t.ticks in
  if n = 0 then None
  else begin
    let idx = ((index mod n) + n) mod n in
    match nth_initialized t.ticks idx with
    | None -> None
    | Some tick ->
      (match Tick.find t.ticks tick with
      | None -> None
      | Some info ->
        let flip v =
          let b = ((bit mod 256) + 256) mod 256 in
          let bytes = U256.to_bytes_be v in
          let o = b / 8 in
          Bytes.set bytes o
            (Char.chr (Char.code (Bytes.get bytes o) lxor (1 lsl (b mod 8))));
          U256.of_bytes_be bytes
        in
        if (bit / 256) mod 2 = 0 then
          info.Tick.fee_growth_outside0 <- flip info.Tick.fee_growth_outside0
        else info.Tick.fee_growth_outside1 <- flip info.Tick.fee_growth_outside1;
        Hashtbl.replace t.audit_ticks tick ();
        Some tick)
  end

(* ------------------------------------------------------------------ *)
(* Invariant checks                                                    *)
(* ------------------------------------------------------------------ *)

let check_liquidity_consistency t =
  (* Sum liquidity_net over all initialized ticks at or below the current
     tick; the result must equal the tracked in-range liquidity. *)
  let net =
    Tick.fold t.ticks ~init:Signed.zero ~f:(fun tick info acc ->
        if tick <= t.tick then Signed.add acc info.Tick.liquidity_net else acc)
  in
  (not (Signed.is_negative net)) && U256.equal (Signed.magnitude net) t.liquidity

let check_owed_solvency t =
  (* Everything the pool owes on demand — position [tokens_owed] (burned
     principal plus accrued fees) — must be covered by the reserves it
     actually holds. *)
  let owed0, owed1 =
    Hashtbl.fold
      (fun _ (p : Position.t) (o0, o1) ->
        (U256.add o0 p.Position.tokens_owed0, U256.add o1 p.Position.tokens_owed1))
      t.position_table (U256.zero, U256.zero)
  in
  U256.ge t.balance0 owed0 && U256.ge t.balance1 owed1
