module U256 = Amm_math.U256
module Tick_math = Amm_math.Tick_math
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Tx = Chain.Tx
module Router = Uniswap.Router
module Pool = Uniswap.Pool
module Position = Uniswap.Position
module Sync_payload = Tokenbank.Sync_payload
module Log = Telemetry.Log

let scope = "processor"

type deleted_position = {
  del_id : Position_id.t;
  del_owner : Address.t;
  del_lower : int;
  del_upper : int;
}

type tap = label:string -> user:Address.t -> ok:bool -> unit

type t = {
  pool : Pool.t;
  deposits : Deposits.t;
  mutable tap : tap option;
      (* Fired after every transaction attempt, success or rejection —
         a rejected swap has already moved the pool (the router's
         slippage check runs after [Pool.swap]), so the observer must
         see those writes too. *)
  verify_signatures : bool;
  snapshot_positions : (Position_id.t, Sync_payload.position_entry) Hashtbl.t;
  carry : Position_id.t list;
      (* Positions reported by still-unapplied summaries of earlier
         epochs. The snapshot diffs against the bank's last *synced*
         state, so while syncs lag those positions stay "changed" even if
         this epoch never touches them — the pool's inclusion-time marks
         alone would miss them. *)
  user_carry : Address.t list;
      (* Users listed by still-unapplied summaries. Per-epoch user flows
         restart from zero each epoch, so unlike positions these can only
         re-enter the summary through fresh activity — but while syncs
         lag, the carry keeps the incremental builder considering them,
         guaranteeing it diffs a superset of what the full-scan oracle
         reports whatever the lag pattern. *)
  mutable deleted : deleted_position list;
  mutable processed : int;
  mutable swaps : int;
  mutable mints : int;
  mutable burns : int;
  mutable collects : int;
  wire_bytes : (string, int) Hashtbl.t; (* per class, processed txs only *)
  rejections : (string, int) Hashtbl.t;
  mutable rejected_total : int;
}

type stats = {
  processed : int;
  rejected : int;
  rejection_reasons : (string * int) list;
  swaps : int;
  mints : int;
  burns : int;
  collects : int;
  wire_bytes_by_class : (string * int) list; (* sorted by class *)
}

let begin_epoch ~pool ~snapshot ?(carry = []) ?(user_carry = []) ~verify_signatures () =
  let snapshot_positions = Hashtbl.create 64 in
  List.iter
    (fun (p : Sync_payload.position_entry) ->
      Hashtbl.replace snapshot_positions p.pos_id p)
    snapshot.Tokenbank.Token_bank.snap_positions;
  (* The epoch's change set starts empty: from here on the pool marks
     every position this epoch touches. *)
  Pool.epoch_reset pool;
  { pool;
    deposits = Deposits.create ~snapshot:snapshot.Tokenbank.Token_bank.snap_deposits;
    tap = None;
    verify_signatures; snapshot_positions; carry; user_carry; deleted = [];
    processed = 0; swaps = 0; mints = 0; burns = 0; collects = 0;
    wire_bytes = Hashtbl.create 4;
    rejections = Hashtbl.create 8; rejected_total = 0 }

let pool t = t.pool
let deposits t = t.deposits
let set_tap t tap = t.tap <- Some tap

let ( let* ) = Result.bind

let reject t ~tx reason =
  t.rejected_total <- t.rejected_total + 1;
  Hashtbl.replace t.rejections reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.rejections reason));
  Log.debug ~scope
    ~fields:
      [ ("reason", Telemetry.Json.String reason);
        ("issuer", Telemetry.Json.String (Address.to_hex tx.Tx.issuer));
        ("issued_round", Telemetry.Json.Int tx.Tx.issued_round) ]
    "transaction rejected";
  Error reason

let needed_amounts ~zero_for_one amount =
  if zero_for_one then (amount, U256.zero) else (U256.zero, amount)

let covered t user ~amount0 ~amount1 = Deposits.covers t.deposits user ~amount0 ~amount1

let consume_exn t user ~amount0 ~amount1 =
  match Deposits.consume t.deposits user ~amount0 ~amount1 with
  | Ok () -> ()
  | Error e ->
    (* Coverage was pre-checked; failure here is a processor bug. *)
    failwith ("Processor.consume: " ^ e)

let record_deletion t (position : Position.t) =
  t.deleted <-
    { del_id = position.Position.id; del_owner = position.Position.owner;
      del_lower = position.Position.lower_tick; del_upper = position.Position.upper_tick }
    :: t.deleted

let process_swap t (tx : Tx.t) (s : Tx.swap) =
  let user = tx.Tx.issuer in
  match s.Tx.kind with
  | Tx.Exact_input ->
    let amount0, amount1 = needed_amounts ~zero_for_one:s.Tx.zero_for_one s.Tx.amount_specified in
    if not (covered t user ~amount0 ~amount1) then Error "swap: deposit not covered"
    else
      let price_limit =
        if U256.is_zero s.Tx.sqrt_price_limit then None else Some s.Tx.sqrt_price_limit
      in
      let* outcome =
        Router.exact_input t.pool ~zero_for_one:s.Tx.zero_for_one
          ~amount_in:s.Tx.amount_specified ~min_amount_out:s.Tx.amount_limit
          ?sqrt_price_limit:price_limit ()
      in
      consume_exn t user ~amount0 ~amount1;
      let out0, out1 = needed_amounts ~zero_for_one:(not s.Tx.zero_for_one) outcome.Router.received in
      Deposits.credit_side t.deposits user ~amount0:out0 ~amount1:out1;
      Ok ()
  | Tx.Exact_output ->
    (* Reserve the slippage bound (max input); consume what was spent. *)
    let max0, max1 = needed_amounts ~zero_for_one:s.Tx.zero_for_one s.Tx.amount_limit in
    if not (covered t user ~amount0:max0 ~amount1:max1) then
      Error "swap: deposit not covered"
    else
      let price_limit =
        if U256.is_zero s.Tx.sqrt_price_limit then None else Some s.Tx.sqrt_price_limit
      in
      let* outcome =
        Router.exact_output t.pool ~zero_for_one:s.Tx.zero_for_one
          ~amount_out:s.Tx.amount_specified ~max_amount_in:s.Tx.amount_limit
          ?sqrt_price_limit:price_limit ()
      in
      let in0, in1 = needed_amounts ~zero_for_one:s.Tx.zero_for_one outcome.Router.spent in
      consume_exn t user ~amount0:in0 ~amount1:in1;
      let out0, out1 = needed_amounts ~zero_for_one:(not s.Tx.zero_for_one) outcome.Router.received in
      Deposits.credit_side t.deposits user ~amount0:out0 ~amount1:out1;
      Ok ()

let process_mint t (tx : Tx.t) (m : Tx.mint) =
  let user = tx.Tx.issuer in
  if not (covered t user ~amount0:m.Tx.amount0_desired ~amount1:m.Tx.amount1_desired) then
    Error "mint: deposit not covered"
  else begin
    let position_id =
      match m.Tx.target with
      | Tx.New_position -> Position.derive_id ~minter:user ~tx_id:tx.Tx.id
      | Tx.Existing_position pid -> pid
    in
    (* Supplementing an existing position requires issuer = owner; the
       added liquidity lands on the position's own range ("an existing
       position will receive an increase in its balance", §4.2). *)
    let* lower_tick, upper_tick =
      match m.Tx.target with
      | Tx.New_position -> Ok (m.Tx.lower_tick, m.Tx.upper_tick)
      | Tx.Existing_position pid ->
        (match Pool.find_position t.pool pid with
        | None -> Error "mint: unknown position"
        | Some p ->
          if Address.equal p.Position.owner user then
            Ok (p.Position.lower_tick, p.Position.upper_tick)
          else Error "mint: not the position owner")
    in
    let* outcome =
      Router.mint t.pool ~position_id ~owner:user ~lower_tick ~upper_tick
        ~amount0_desired:m.Tx.amount0_desired ~amount1_desired:m.Tx.amount1_desired
    in
    consume_exn t user ~amount0:outcome.Router.amount0_used
      ~amount1:outcome.Router.amount1_used;
    Ok ()
  end

let process_burn t (tx : Tx.t) (b : Tx.burn) =
  let user = tx.Tx.issuer in
  let before = Pool.find_position t.pool b.Tx.burn_position in
  let* outcome =
    Router.burn t.pool ~position_id:b.Tx.burn_position ~caller:user
      ~amount0_requested:b.Tx.amount0_requested ~amount1_requested:b.Tx.amount1_requested
  in
  (* Withdrawn principal is paid into the sidechain deposit right away
     (§4.2 burn summary rules): pull it out of the pool's owed bucket. *)
  let* paid0, paid1 =
    Pool.collect t.pool ~position_id:b.Tx.burn_position
      ~amount0_requested:outcome.Router.amount0_owed
      ~amount1_requested:outcome.Router.amount1_owed
  in
  Deposits.credit_side t.deposits user ~amount0:paid0 ~amount1:paid1;
  (* A fully withdrawn position pays its remaining fees into the LP's
     payout and disappears ("if a deleted position has fees owed to it,
     the owner LP will receive these fees as part of her total payout"). *)
  let* () =
    match Pool.find_position t.pool b.Tx.burn_position with
    | Some p when U256.is_zero p.Position.liquidity ->
      let* fees0, fees1 =
        Pool.collect t.pool ~position_id:b.Tx.burn_position
          ~amount0_requested:U256.max_value ~amount1_requested:U256.max_value
      in
      Deposits.credit_side t.deposits user ~amount0:fees0 ~amount1:fees1;
      Ok ()
    | Some _ | None -> Ok ()
  in
  (if Pool.find_position t.pool b.Tx.burn_position = None then
     match before with Some p -> record_deletion t p | None -> ());
  Ok ()

let process_collect t (tx : Tx.t) (c : Tx.collect) =
  let user = tx.Tx.issuer in
  let before = Pool.find_position t.pool c.Tx.collect_position in
  let* outcome =
    Router.collect t.pool ~position_id:c.Tx.collect_position ~caller:user
      ~amount0_requested:c.Tx.fees0_requested ~amount1_requested:c.Tx.fees1_requested
  in
  Deposits.credit_side t.deposits user ~amount0:outcome.Router.collected0
    ~amount1:outcome.Router.collected1;
  (if outcome.Router.position_deleted then
     match before with Some p -> record_deletion t p | None -> ());
  Ok ()

let process t ~current_round (tx : Tx.t) =
  let result =
    let* () =
      if t.verify_signatures && not (Tx.verify_signature tx) then
        Error "invalid signature"
      else Ok ()
    in
    match tx.Tx.payload with
    | Tx.Swap s ->
      let* () =
        if current_round > s.Tx.deadline then Error "swap: deadline passed" else Ok ()
      in
      process_swap t tx s
    | Tx.Mint m -> process_mint t tx m
    | Tx.Burn b -> process_burn t tx b
    | Tx.Collect c -> process_collect t tx c
  in
  let outcome =
    match result with
    | Ok () ->
      t.processed <- t.processed + 1;
      (match tx.Tx.payload with
      | Tx.Swap _ -> t.swaps <- t.swaps + 1
      | Tx.Mint _ -> t.mints <- t.mints + 1
      | Tx.Burn _ -> t.burns <- t.burns + 1
      | Tx.Collect _ -> t.collects <- t.collects + 1);
      let cls = Tx.type_name tx.Tx.payload in
      Hashtbl.replace t.wire_bytes cls
        (tx.Tx.wire_size
        + Option.value ~default:0 (Hashtbl.find_opt t.wire_bytes cls));
      Ok ()
    | Error reason -> reject t ~tx reason
  in
  (match t.tap with
  | Some f ->
    f ~label:(Tx.type_name tx.Tx.payload) ~user:tx.Tx.issuer
      ~ok:(Result.is_ok outcome)
  | None -> ());
  outcome

let stats (t : t) =
  { processed = t.processed; rejected = t.rejected_total;
    rejection_reasons = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.rejections [];
    swaps = t.swaps; mints = t.mints; burns = t.burns; collects = t.collects;
    wire_bytes_by_class =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.wire_bytes []) }

(* ------------------------------------------------------------------ *)
(* Summary construction (Fig. 5)                                       *)
(* ------------------------------------------------------------------ *)

let position_entry_of t (p : Position.t) =
  let sqrt_a = Tick_math.get_sqrt_ratio_at_tick p.Position.lower_tick in
  let sqrt_b = Tick_math.get_sqrt_ratio_at_tick p.Position.upper_tick in
  let amount0, amount1 =
    Amm_math.Liquidity_math.get_amounts_for_liquidity
      ~sqrt_price:(Pool.sqrt_price t.pool) ~sqrt_a ~sqrt_b ~liquidity:p.Position.liquidity
  in
  { Sync_payload.pos_id = p.Position.id; owner = p.Position.owner;
    lower_tick = p.Position.lower_tick; upper_tick = p.Position.upper_tick;
    liquidity = p.Position.liquidity; amount0; amount1;
    fees0 = p.Position.tokens_owed0; fees1 = p.Position.tokens_owed1;
    deleted = false }

let entry_changed (a : Sync_payload.position_entry) (b : Sync_payload.position_entry) =
  not
    (U256.equal a.liquidity b.liquidity
    && U256.equal a.fees0 b.fees0
    && U256.equal a.fees1 b.fees1
    && U256.equal a.amount0 b.amount0
    && U256.equal a.amount1 b.amount1)

let user_entry t user =
  let payin0, payin1 = Deposits.payin t.deposits user in
  let payout0, payout1 = Deposits.payout t.deposits user in
  { Sync_payload.user; payin0; payin1; payout0; payout1 }

(* The deposit table is rebuilt from the bank snapshot at epoch start,
   so every account's begin-epoch entry is the zero entry: "changed
   since the snapshot" and "nonzero" are the same predicate. *)
let user_entry_nonzero (u : Sync_payload.user_entry) =
  not
    (U256.is_zero u.Sync_payload.payin0
    && U256.is_zero u.Sync_payload.payin1
    && U256.is_zero u.Sync_payload.payout0
    && U256.is_zero u.Sync_payload.payout1)

let finish_payload t ~epoch ~next_committee_vk ~users ~touched =
  let deletions =
    t.deleted
    |> List.filter (fun d -> Pool.find_position t.pool d.del_id = None)
    |> List.map (fun d ->
           { Sync_payload.pos_id = d.del_id; owner = d.del_owner;
             lower_tick = d.del_lower; upper_tick = d.del_upper;
             liquidity = U256.zero; amount0 = U256.zero; amount1 = U256.zero;
             fees0 = U256.zero; fees1 = U256.zero; deleted = true })
  in
  let positions =
    (touched @ deletions)
    |> List.sort (fun a b ->
           Position_id.compare a.Sync_payload.pos_id b.Sync_payload.pos_id)
  in
  Log.info ~scope
    ~fields:
      [ ("epoch", Telemetry.Json.Int epoch);
        ("users", Telemetry.Json.Int (List.length users));
        ("positions", Telemetry.Json.Int (List.length positions));
        ("deleted", Telemetry.Json.Int (List.length deletions));
        ("processed", Telemetry.Json.Int t.processed);
        ("rejected", Telemetry.Json.Int t.rejected_total) ]
    "epoch summary payload built";
  { Sync_payload.epoch; pool = Pool.pool_id t.pool;
    pool_balance0 = Pool.balance0 t.pool; pool_balance1 = Pool.balance1 t.pool;
    users; positions; next_committee_vk }

let build_payload_reference t ~epoch ~next_committee_vk =
  (* Full scan off the incrementally-sorted index (already ascending —
     no re-sort), reporting every account whose flows moved this epoch.
     Zero entries are omitted: they carry no value movement, and the
     bank settles unlisted residual deposits in aggregate. *)
  let users =
    Deposits.users_sorted t.deposits
    |> List.filter_map (fun u ->
           let entry = user_entry t u in
           if user_entry_nonzero entry then Some entry else None)
  in
  (* Refresh fee accounting, then report every position that is new or
     changed since the snapshot, plus deletions. *)
  let touched =
    Pool.positions t.pool
    |> List.filter_map (fun p ->
           (match Pool.touch_position t.pool p.Position.id with
           | Ok () -> ()
           | Error _ -> ());
           let entry = position_entry_of t p in
           match Hashtbl.find_opt t.snapshot_positions p.Position.id with
           | Some old when not (entry_changed old entry) -> None
           | Some _ | None -> Some entry)
  in
  finish_payload t ~epoch ~next_committee_vk ~users ~touched

let build_payload t ~epoch ~next_committee_vk =
  (* Only users a balance mutation marked this epoch — plus the carry
     from unapplied earlier summaries — can have nonzero flows; diff
     those instead of walking every account. Sorting the candidates
     (O(active log active)) reproduces the reference's ascending order. *)
  let seen_users = Hashtbl.create 256 in
  let consider_user acc user =
    if Hashtbl.mem seen_users user || not (Deposits.mem t.deposits user) then acc
    else begin
      Hashtbl.replace seen_users user ();
      let entry = user_entry t user in
      if user_entry_nonzero entry then entry :: acc else acc
    end
  in
  let users =
    List.fold_left consider_user
      (List.fold_left consider_user [] (Deposits.candidate_users t.deposits))
      t.user_carry
    |> List.sort (fun a b -> Address.compare a.Sync_payload.user b.Sync_payload.user)
  in
  (* Only positions the pool marked this epoch — plus the carry from
     unapplied earlier summaries — can differ from the snapshot; touch
     and diff those instead of scanning the whole table. *)
  let seen = Hashtbl.create 256 in
  let consider acc pid =
    if Hashtbl.mem seen pid then acc
    else begin
      Hashtbl.replace seen pid ();
      match Pool.find_position t.pool pid with
      | None -> acc
      | Some p ->
        (match Pool.touch_position t.pool pid with
        | Ok () -> ()
        | Error _ -> ());
        let entry = position_entry_of t p in
        (match Hashtbl.find_opt t.snapshot_positions pid with
        | Some old when not (entry_changed old entry) -> acc
        | Some _ | None -> entry :: acc)
    end
  in
  let touched =
    List.fold_left consider
      (List.fold_left consider [] (Pool.epoch_candidates t.pool))
      t.carry
  in
  finish_payload t ~epoch ~next_committee_vk ~users ~touched
