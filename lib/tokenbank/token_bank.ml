module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Gas = Mainchain.Gas
module Erc20 = Mainchain.Erc20
module Bls = Amm_crypto.Bls
module Log = Telemetry.Log
module Journal = Flatstore.Journal

let scope = "token_bank"

type pool_info = {
  pool_id : int;
  token0 : Chain.Token.t;
  token1 : Chain.Token.t;
  balance0 : U256.t;
  balance1 : U256.t;
  flash_fee_pips : int;
}

module Epoch_map = Map.Make (Int)

type exit_claim = {
  claimant : Address.t;
  claim0 : U256.t;
  claim1 : U256.t;
  refund0 : U256.t;
  refund1 : U256.t;
  positions_closed : int;
  exit_gas : Gas.meter;
}

(* One user's pending deposit for one epoch; [None] once consumed or
   refunded. *)
type deposit_cell = (U256.t * U256.t) option Journal.cell

type t = {
  bank_address : Address.t;
  erc0 : Erc20.t;
  erc1 : Erc20.t;
  mutable pools : pool_info array;  (* indexed by pool_id *)
  mutable next_pool_id : int;
  (* A persistent map of mutable per-epoch tables: a checkpoint keeps the
     map pointer (so epochs retired or opened since are undone for free)
     and the journal rewinds the cells. *)
  mutable user_deposits : deposit_cell Address.Tbl.t Epoch_map.t;
  journal : Journal.t;  (* deposit cells and exit claims *)
  positions_store : Pos_store.t;
  mutable vk : Bls.public_key;
  mutable synced_epoch : int;
  (* Emergency-exit state. While [halted] no Sync or deposit is accepted;
     parties withdraw pro-rata against the reserves frozen at the halt. *)
  mutable halted : bool;
  mutable ever_halted : bool;
  mutable halt_epoch : int;
  mutable frozen_pools : pool_info list;
  mutable frozen_value0 : U256.t;  (* Σ position (amount + fees), token0 *)
  mutable frozen_value1 : U256.t;
  mutable custody_at_halt : U256.t * U256.t;
  mutable paid_out0 : U256.t;      (* custody dispensed since the halt *)
  mutable paid_out1 : U256.t;
  exit_table : (Address.t, exit_claim) Hashtbl.t;
  mutable exit_order : Address.t list;  (* newest first *)
}

let deploy ~token0 ~token1 ~genesis_committee_vk =
  { bank_address = Address.of_label "TokenBank";
    erc0 = token0; erc1 = token1;
    pools = [||]; next_pool_id = 0;
    user_deposits = Epoch_map.empty;
    journal = Journal.create ();
    positions_store = Pos_store.create ();
    vk = genesis_committee_vk;
    synced_epoch = -1;
    halted = false; ever_halted = false; halt_epoch = -1;
    frozen_pools = []; frozen_value0 = U256.zero; frozen_value1 = U256.zero;
    custody_at_halt = (U256.zero, U256.zero);
    paid_out0 = U256.zero; paid_out1 = U256.zero;
    exit_table = Hashtbl.create 16; exit_order = [] }

let address t = t.bank_address

let create_pool t ~flash_fee_pips =
  let pool_id = t.next_pool_id in
  t.next_pool_id <- pool_id + 1;
  let info =
    { pool_id; token0 = Erc20.token t.erc0; token1 = Erc20.token t.erc1;
      balance0 = U256.zero; balance1 = U256.zero; flash_fee_pips }
  in
  let pools = Array.make (pool_id + 1) info in
  Array.blit t.pools 0 pools 0 pool_id;
  t.pools <- pools;
  pool_id

let pool t id =
  if id >= 0 && id < t.next_pool_id then Some t.pools.(id) else None

let set_pool_balances t id balance0 balance1 =
  if id >= 0 && id < t.next_pool_id then
    t.pools.(id) <- { (t.pools.(id)) with balance0; balance1 }

(* Newest-created first — the order the old cons-list exposed, which the
   emergency-exit drain and snapshots depend on. *)
let pools_newest_first t =
  let acc = ref [] in
  for id = 0 to t.next_pool_id - 1 do
    acc := t.pools.(id) :: !acc
  done;
  !acc

let committee_vk t = t.vk
let last_synced_epoch t = t.synced_epoch
let is_halted t = t.halted
let halt_epoch t = if t.ever_halted then Some t.halt_epoch else None

(* ------------------------------------------------------------------ *)
(* Rejections                                                          *)
(* ------------------------------------------------------------------ *)

type rejection =
  | Empty_submission
  | Bank_halted
  | Not_halted
  | Already_exited of Address.t
  | Bad_signature of { epoch : int }
  | Stale_epoch of { expected : int; got : int }
  | Contiguity_gap of { expected : int; got : int }
  | Conservation_violation of { epoch : int }

let rejection_class = function
  | Empty_submission -> "empty_submission"
  | Bank_halted -> "bank_halted"
  | Not_halted -> "not_halted"
  | Already_exited _ -> "already_exited"
  | Bad_signature _ -> "bad_signature"
  | Stale_epoch _ -> "stale_epoch"
  | Contiguity_gap _ -> "contiguity_gap"
  | Conservation_violation _ -> "conservation_violation"

let rejection_to_string = function
  | Empty_submission -> "TokenBank.sync: empty payload list"
  | Bank_halted -> "TokenBank: bank is halted (emergency-exit mode)"
  | Not_halted -> "TokenBank: bank is not halted"
  | Already_exited a ->
    Printf.sprintf "TokenBank.emergency_exit: %s already exited" (Address.to_hex a)
  | Bad_signature { epoch } ->
    Printf.sprintf "TokenBank.sync: bad committee signature for epoch %d" epoch
  | Stale_epoch { expected; got } ->
    Printf.sprintf "TokenBank.sync: stale epoch %d (expected %d)" got expected
  | Contiguity_gap { expected; got } ->
    Printf.sprintf "TokenBank.sync: contiguity gap, expected epoch %d, got %d"
      expected got
  | Conservation_violation { epoch } ->
    Printf.sprintf "TokenBank.sync: token conservation violated in epoch %d" epoch

(* ------------------------------------------------------------------ *)
(* Deposits                                                            *)
(* ------------------------------------------------------------------ *)

let no_deposit = (U256.zero, U256.zero)

let find_cell t ~epoch user =
  match Epoch_map.find_opt epoch t.user_deposits with
  | None -> None
  | Some tbl -> Address.Tbl.find_opt tbl user

let deposit_of t ~epoch user =
  match find_cell t ~epoch user with
  | Some { value = Some d; _ } -> d
  | _ -> no_deposit

let set_pending t c v = Journal.set t.journal ~bytes:64 c v

(* Consume a user's pending deposit for [epoch], returning it. *)
let take_deposit t ~epoch user =
  match find_cell t ~epoch user with
  | Some ({ value = Some d; _ } as c) ->
    set_pending t c None;
    d
  | _ -> no_deposit

let pending_in tbl =
  Address.Tbl.fold
    (fun user (c : deposit_cell) acc ->
      match c.value with Some d -> (user, d) :: acc | None -> acc)
    tbl []

(* Address order: every consumer that turns pending deposits into output
   (snapshots, residual refunds) visits them in this order. *)
let deposits_for_epoch t ~epoch =
  match Epoch_map.find_opt epoch t.user_deposits with
  | None -> []
  | Some tbl -> List.sort (fun (a, _) (b, _) -> Address.compare a b) (pending_in tbl)

let deposit_total t ~epoch =
  let s0 = U256.scratch () and s1 = U256.scratch () in
  Option.iter
    (Address.Tbl.iter (fun _ (c : deposit_cell) ->
         match c.value with
         | Some (d0, d1) ->
           U256.add_into ~dst:s0 s0 d0;
           U256.add_into ~dst:s1 s1 d1
         | None -> ()))
    (Epoch_map.find_opt epoch t.user_deposits);
  (s0, s1)

let charge meter label amount =
  match meter with Some m -> Gas.charge m label amount | None -> ()

let ( let* ) = Result.bind

let deposit ?meter t ~user ~for_epoch ~amount0 ~amount1 =
  if t.halted then Error (rejection_to_string Bank_halted)
  else begin
  charge meter "base" Gas.tx_base;
  charge meter "calldata" (Gas.calldata_cost_of_size (Chain.Encoding.selector_size + 64));
  let* () =
    if U256.is_zero amount0 then Ok ()
    else Erc20.transfer_from ?meter t.erc0 ~spender:t.bank_address ~source:user
        ~dest:t.bank_address amount0
  in
  let* () =
    if U256.is_zero amount1 then Ok ()
    else Erc20.transfer_from ?meter t.erc1 ~spender:t.bank_address ~source:user
        ~dest:t.bank_address amount1
  in
  let tbl =
    match Epoch_map.find_opt for_epoch t.user_deposits with
    | Some tbl -> tbl
    | None ->
      let tbl = Address.Tbl.create 64 in
      t.user_deposits <- Epoch_map.add for_epoch tbl t.user_deposits;
      tbl
  in
  let c =
    match Address.Tbl.find_opt tbl user with
    | Some c -> c
    | None ->
      let c = Journal.cell None in
      Address.Tbl.add tbl user c;
      c
  in
  let d0, d1 = Option.value ~default:no_deposit c.value in
  set_pending t c (Some (U256.add d0 amount0, U256.add d1 amount1));
  charge meter "deposit.bookkeeping" (Gas.sload + (2 * Gas.sstore_update));
  (* Deposits are the hottest bank entry point (one per user per epoch at
     the big sweep cells): don't pay for hex/decimal rendering unless the
     debug level is actually on. *)
  if Log.enabled Log.Debug then
    Log.debug ~scope
      ~fields:
        [ ("user", Telemetry.Json.String (Address.to_hex user));
          ("for_epoch", Telemetry.Json.Int for_epoch);
          ("amount0", Telemetry.Json.String (U256.to_string amount0));
          ("amount1", Telemetry.Json.String (U256.to_string amount1)) ]
      "deposit recorded";
  Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Sync                                                                *)
(* ------------------------------------------------------------------ *)

type sync_receipt = {
  gas : Gas.meter;
  calldata_bytes : int;
  payouts_dispensed : int;
  positions_written : int;
  positions_deleted : int;
  epochs_covered : int list;
}

let conservation_ok ~balance0 ~balance1 payload =
  let sum f =
    List.fold_left (fun acc u -> U256.add acc (f u)) U256.zero payload.Sync_payload.users
  in
  let in0 = sum (fun u -> u.Sync_payload.payin0)
  and in1 = sum (fun u -> u.Sync_payload.payin1)
  and out0 = sum (fun u -> u.Sync_payload.payout0)
  and out1 = sum (fun u -> u.Sync_payload.payout1) in
  (* new = old + payins − payouts, per token; fails if payouts exceed
     what the pool plus payins can cover. *)
  let check old payin payout updated =
    let credited = U256.add old payin in
    U256.ge credited payout && U256.equal (U256.sub credited payout) updated
  in
  check balance0 in0 out0 payload.Sync_payload.pool_balance0
  && check balance1 in1 out1 payload.Sync_payload.pool_balance1

let apply_payload t (m : Gas.meter) payload =
  let open Sync_payload in
  (* Positions: write updates, delete withdrawn. *)
  let written = ref 0 and deleted = ref 0 in
  List.iter
    (fun p ->
      if p.deleted then begin
        Pos_store.remove t.positions_store p.pos_id;
        incr deleted
      end
      else begin
        Pos_store.set t.positions_store p;
        incr written
      end)
    payload.positions;
  Gas.charge m "storage" (storage_words payload * Gas.sstore_word);
  set_pool_balances t payload.pool payload.pool_balance0 payload.pool_balance1;
  (* Users: deduct payins, dispense payouts, refund residual deposits. *)
  let payouts_dispensed = ref 0 in
  (* Payout plus residual refund leave the bank in one transfer per
     token. *)
  let send ~dest erc amount ~token0 =
    if not (U256.is_zero amount) then begin
      match Erc20.transfer erc ~source:t.bank_address ~dest amount with
      | Ok () ->
        incr payouts_dispensed;
        (* After a halt-and-reconcile cycle, every dispensed token still
           counts against the custody frozen at the halt. *)
        if t.ever_halted then
          if token0 then t.paid_out0 <- U256.add t.paid_out0 amount
          else t.paid_out1 <- U256.add t.paid_out1 amount
      | Error e -> failwith ("TokenBank.sync: custody underflow: " ^ e)
    end
  in
  List.iter
    (fun u ->
      let d0, d1 = take_deposit t ~epoch:payload.epoch u.user in
      (* Payin beyond the deposit is taken out of the payout (§4.2). *)
      let short0 = if U256.ge d0 u.payin0 then U256.zero else U256.sub u.payin0 d0 in
      let short1 = if U256.ge d1 u.payin1 then U256.zero else U256.sub u.payin1 d1 in
      let residual0 = if U256.ge d0 u.payin0 then U256.sub d0 u.payin0 else U256.zero in
      let residual1 = if U256.ge d1 u.payin1 then U256.sub d1 u.payin1 else U256.zero in
      let pay0 = U256.sub (U256.max u.payout0 short0) short0 in
      let pay1 = U256.sub (U256.max u.payout1 short1) short1 in
      send ~dest:u.user t.erc0 (U256.add pay0 residual0) ~token0:true;
      send ~dest:u.user t.erc1 (U256.add pay1 residual1) ~token0:false)
    payload.users;
  (* A delta payload lists only users with nonzero flows; every other
     deposit pending for this epoch is untouched in full. Refund the
     leftovers in aggregate and retire the epoch's table wholesale, so
     pending-deposit storage stays O(active), not O(population). *)
  List.iter
    (fun (user, (d0, d1)) ->
      send ~dest:user t.erc0 d0 ~token0:true;
      send ~dest:user t.erc1 d1 ~token0:false)
    (deposits_for_epoch t ~epoch:payload.epoch);
  t.user_deposits <- Epoch_map.remove payload.epoch t.user_deposits;
  Gas.charge m "payouts" (!payouts_dispensed * Gas.payout_transfer);
  t.vk <- payload.next_committee_vk;
  t.synced_epoch <- payload.epoch;
  (!written, !deleted, !payouts_dispensed)

(* Dry-run verification pass — nothing is applied unless every payload
   checks out. The committee key chain advances payload by payload: epoch
   e's signature verifies under the vk recorded by e−1. Shared between
   [sync] and [reconcile] (which verifies against the frozen balances). *)
let rec verify_all ?(check_signatures = true) m ~vk ~expected_epoch ~balance0
    ~balance1 = function
  | [] -> Ok ()
  | (p, signature) :: rest ->
    (* The epoch-ordering check comes first: it is a couple of sloads,
       so the contract rejects stale or gapped chains before paying for
       the pairing. *)
    if p.Sync_payload.epoch <> expected_epoch then begin
      if p.Sync_payload.epoch < expected_epoch then
        Error (Stale_epoch { expected = expected_epoch; got = p.Sync_payload.epoch })
      else
        Error (Contiguity_gap { expected = expected_epoch; got = p.Sync_payload.epoch })
    end
    else begin
      if check_signatures then begin
        Gas.charge m "auth.hash_to_point"
          (Gas.keccak_cost (Sync_payload.abi_size p) + Gas.ec_mul);
        Gas.charge m "auth.pairing" Gas.pairing_check
      end;
      if check_signatures
         && not (Bls.verify vk (Sync_payload.signing_bytes p) signature)
      then Error (Bad_signature { epoch = p.Sync_payload.epoch })
      else if not (conservation_ok ~balance0 ~balance1 p) then
        Error (Conservation_violation { epoch = p.Sync_payload.epoch })
      else
        verify_all ~check_signatures m ~vk:p.Sync_payload.next_committee_vk
          ~expected_epoch:(expected_epoch + 1)
          ~balance0:p.Sync_payload.pool_balance0
          ~balance1:p.Sync_payload.pool_balance1 rest
    end

let log_rejected t ~payloads rejection =
  Log.warn ~scope
    ~fields:
      [ ("reason", Telemetry.Json.String (rejection_to_string rejection));
        ("class", Telemetry.Json.String (rejection_class rejection));
        ("payloads", Telemetry.Json.Int (List.length payloads));
        ("synced_epoch", Telemetry.Json.Int t.synced_epoch) ]
    "sync rejected: state unchanged";
  Error rejection

let sync ?(check_signatures = true) t ~signed =
  match signed with
  | [] -> Error Empty_submission
  | _ when t.halted -> log_rejected t ~payloads:(List.map fst signed) Bank_halted
  | _ ->
    let payloads = List.map fst signed in
    let m = Gas.meter () in
    Gas.charge m "base" Gas.tx_base;
    let calldata_bytes =
      List.fold_left (fun acc p -> acc + Sync_payload.abi_size p) 0 payloads
    in
    Gas.charge m "calldata" (Gas.calldata_cost_of_size calldata_bytes);
    let balance0, balance1 =
      match payloads with
      | p :: _ ->
        (match pool t p.Sync_payload.pool with
        | Some info -> (info.balance0, info.balance1)
        | None -> (U256.zero, U256.zero))
      | [] -> (U256.zero, U256.zero)
    in
    let* () =
      match
        verify_all ~check_signatures m ~vk:t.vk ~expected_epoch:(t.synced_epoch + 1)
          ~balance0 ~balance1 signed
      with
      | Ok () -> Ok ()
      | Error rejection -> log_rejected t ~payloads rejection
    in
    let written = ref 0 and deleted = ref 0 and paid = ref 0 in
    List.iter
      (fun p ->
        let w, d, pd = apply_payload t m p in
        written := !written + w;
        deleted := !deleted + d;
        paid := !paid + pd)
      payloads;
    let epochs_covered = List.map (fun p -> p.Sync_payload.epoch) payloads in
    Log.info ~scope
      ~fields:
        [ ("epochs",
           Telemetry.Json.String (String.concat "," (List.map string_of_int epochs_covered)));
          ("payouts", Telemetry.Json.Int !paid);
          ("positions_written", Telemetry.Json.Int !written);
          ("positions_deleted", Telemetry.Json.Int !deleted);
          ("calldata_bytes", Telemetry.Json.Int calldata_bytes);
          ("gas", Telemetry.Json.Int (Gas.total m)) ]
      "sync applied: committee key rotated";
    Ok
      { gas = m; calldata_bytes; payouts_dispensed = !paid;
        positions_written = !written; positions_deleted = !deleted;
        epochs_covered }

let sync_exn t ~signed =
  match sync t ~signed with
  | Ok receipt -> receipt
  | Error rejection -> failwith (rejection_to_string rejection)

let positions t = Pos_store.fold t.positions_store ~init:[] ~f:(fun acc p -> p :: acc)
let find_position t pid = Pos_store.find t.positions_store pid

(* Live contract storage footprint in 32-byte words: the quantity the
   paper's state-growth argument is about. 6 words per open position
   (owner, bounds, liquidity, amounts, fees packed as in
   [Sync_payload.storage_words]), 2 per pool (reserves), 4 for the
   committee vk, 3 per pending epoch-deposit entry (key + two amounts)
   and 6 per exit claim. *)
let storage_words t =
  let deposit_entries =
    Epoch_map.fold
      (fun _ tbl acc ->
        Address.Tbl.fold
          (fun _ (c : deposit_cell) n -> if Option.is_some c.value then n + 1 else n)
          tbl acc)
      t.user_deposits 0
  in
  (6 * Pos_store.length t.positions_store)
  + (2 * t.next_pool_id)
  + 4
  + (3 * deposit_entries)
  + (6 * Hashtbl.length t.exit_table)

(* ------------------------------------------------------------------ *)
(* Flash loans                                                         *)
(* ------------------------------------------------------------------ *)

let flash ?meter t ~pool:pool_id ~borrower ~amount0 ~amount1 ~callback =
  if t.halted then Error (rejection_to_string Bank_halted)
  else
  match pool t pool_id with
  | None -> Error "TokenBank.flash: unknown pool"
  | Some p ->
    if U256.gt amount0 p.balance0 || U256.gt amount1 p.balance1 then
      Error "TokenBank.flash: exceeds pool reserves"
    else begin
      charge meter "base" Gas.tx_base;
      let fee_of a =
        U256.mul_div_rounding_up a (U256.of_int p.flash_fee_pips)
          (U256.of_int Amm_math.Swap_math.fee_denominator)
      in
      let fee0 = fee_of amount0 and fee1 = fee_of amount1 in
      (* The entire flash executes inside one transaction: on any failure
         every token movement — including whatever the callback did —
         reverts, exactly as the EVM unwinds state. *)
      let ck0 = Erc20.checkpoint t.erc0 and ck1 = Erc20.checkpoint t.erc1 in
      let revert () =
        Erc20.restore t.erc0 ck0;
        Erc20.restore t.erc1 ck1
      in
      let lend erc amount =
        if U256.is_zero amount then Ok ()
        else Erc20.transfer ?meter erc ~source:t.bank_address ~dest:borrower amount
      in
      let repay () =
        let pull erc amount =
          if U256.is_zero amount then Ok ()
          else Erc20.transfer ?meter erc ~source:borrower ~dest:t.bank_address amount
        in
        let* () = pull t.erc0 (U256.add amount0 fee0) in
        pull t.erc1 (U256.add amount1 fee1)
      in
      let outcome =
        let* () = lend t.erc0 amount0 in
        let* () = lend t.erc1 amount1 in
        let* () = callback ~fee0 ~fee1 in
        repay ()
      in
      match outcome with
      | Error e ->
        revert ();
        Error ("TokenBank.flash: reverted: " ^ e)
      | Ok () ->
        (* Fees accrue to the pool reserves. *)
        set_pool_balances t pool_id (U256.add p.balance0 fee0) (U256.add p.balance1 fee1);
        Ok (fee0, fee1)
    end

(* ------------------------------------------------------------------ *)
(* Emergency exit: halt / exit / reconcile                             *)
(* ------------------------------------------------------------------ *)

let total_custody t =
  (Erc20.balance_of t.erc0 t.bank_address, Erc20.balance_of t.erc1 t.bank_address)

(* Aggregate value the last confirmed summary attributes to open
   positions: principal plus uncollected fees, per token. The pro-rata
   denominator for exit claims. *)
let position_value t =
  Pos_store.fold t.positions_store ~init:(U256.zero, U256.zero)
    ~f:(fun (v0, v1) (p : Sync_payload.position_entry) ->
      ( U256.add v0 (U256.add p.Sync_payload.amount0 p.Sync_payload.fees0),
        U256.add v1 (U256.add p.Sync_payload.amount1 p.Sync_payload.fees1) ))

let halt t ~epoch =
  if t.halted then Error Bank_halted
  else begin
    let v0, v1 = position_value t in
    t.halted <- true;
    t.ever_halted <- true;
    t.halt_epoch <- epoch;
    t.frozen_pools <- pools_newest_first t;
    t.frozen_value0 <- v0;
    t.frozen_value1 <- v1;
    t.custody_at_halt <- total_custody t;
    t.paid_out0 <- U256.zero;
    t.paid_out1 <- U256.zero;
    Log.error ~scope
      ~fields:
        [ ("epoch", Telemetry.Json.Int epoch);
          ("position_value0", Telemetry.Json.String (U256.to_string v0));
          ("position_value1", Telemetry.Json.String (U256.to_string v1)) ]
      "bank halted: emergency-exit mode engaged";
    Ok ()
  end

let track_paid t ~token0 amount =
  if token0 then t.paid_out0 <- U256.add t.paid_out0 amount
  else t.paid_out1 <- U256.add t.paid_out1 amount

(* One outgoing transfer per token; an error here means the conservation
   invariant is already broken, which the dry-run verification rules out. *)
let pay_out t m ~dest ~label amount ~token0 =
  if not (U256.is_zero amount) then begin
    let erc = if token0 then t.erc0 else t.erc1 in
    match Erc20.transfer erc ~source:t.bank_address ~dest amount with
    | Ok () ->
      Gas.charge m label Gas.payout_transfer;
      track_paid t ~token0 amount
    | Error e -> failwith ("TokenBank: custody underflow: " ^ e)
  end

let emergency_exit t ~claimant =
  if not t.halted then Error Not_halted
  else if Hashtbl.mem t.exit_table claimant then Error (Already_exited claimant)
  else begin
    let m = Gas.meter () in
    Gas.charge m "base" Gas.tx_base;
    Gas.charge m "calldata"
      (Gas.calldata_cost_of_size (Chain.Encoding.selector_size + 32));
    (* The claimant's open positions, in id order, valued exactly as the
       last confirmed summary recorded them. *)
    let mine =
      Pos_store.fold t.positions_store ~init:[]
        ~f:(fun acc (p : Sync_payload.position_entry) ->
          if Address.equal p.Sync_payload.owner claimant then
            (p.Sync_payload.pos_id, p) :: acc
          else acc)
      |> List.sort (fun (a, _) (b, _) -> Position_id.compare a b)
    in
    Gas.charge m "exit.positions" (List.length mine * 8 * Gas.sload);
    let mine0, mine1 =
      List.fold_left
        (fun (v0, v1) (_, (p : Sync_payload.position_entry)) ->
          ( U256.add v0 (U256.add p.Sync_payload.amount0 p.Sync_payload.fees0),
            U256.add v1 (U256.add p.Sync_payload.amount1 p.Sync_payload.fees1) ))
        (U256.zero, U256.zero) mine
    in
    (* Pro-rata claim against the reserves frozen at the halt, floored so
       the sum over all claimants can never exceed those reserves. *)
    let frozen0, frozen1 =
      List.fold_left
        (fun (b0, b1) p -> (U256.add b0 p.balance0, U256.add b1 p.balance1))
        (U256.zero, U256.zero) t.frozen_pools
    in
    let share frozen mine total =
      if U256.is_zero total then U256.zero else U256.mul_div frozen mine total
    in
    let claim0 = share frozen0 mine0 t.frozen_value0 in
    let claim1 = share frozen1 mine1 t.frozen_value1 in
    (* Residual epoch deposits — never consumed by a sync — come back in
       full, regardless of which epoch they were scoped to. *)
    let refund0 = ref U256.zero and refund1 = ref U256.zero in
    Epoch_map.iter
      (fun epoch _ ->
        let d0, d1 = take_deposit t ~epoch claimant in
        refund0 := U256.add !refund0 d0;
        refund1 := U256.add !refund1 d1)
      t.user_deposits;
    (* Drain the claim from the live pool balances, pool by pool,
       newest-created first (the historical list order). *)
    let rem0 = ref claim0 and rem1 = ref claim1 in
    for id = t.next_pool_id - 1 downto 0 do
      let p = t.pools.(id) in
      let take rem bal =
        let x = U256.min !rem bal in
        rem := U256.sub !rem x;
        U256.sub bal x
      in
      t.pools.(id) <-
        { p with balance0 = take rem0 p.balance0; balance1 = take rem1 p.balance1 }
    done;
    List.iter (fun (pid, _) -> Pos_store.remove t.positions_store pid) mine;
    Gas.charge m "exit.bookkeeping"
      ((List.length mine * Gas.sstore_update) + Gas.sstore_word);
    pay_out t m ~dest:claimant ~label:"exit.payout" (U256.add claim0 !refund0)
      ~token0:true;
    pay_out t m ~dest:claimant ~label:"exit.payout" (U256.add claim1 !refund1)
      ~token0:false;
    let claim =
      { claimant; claim0; claim1; refund0 = !refund0; refund1 = !refund1;
        positions_closed = List.length mine; exit_gas = m }
    in
    if Journal.recording t.journal then begin
      let table = t.exit_table in
      match Hashtbl.find_opt table claimant with
      | None -> Journal.push t.journal ~bytes:32 (fun () -> Hashtbl.remove table claimant)
      | Some prev ->
        Journal.push t.journal ~bytes:32 (fun () -> Hashtbl.replace table claimant prev)
    end;
    Hashtbl.replace t.exit_table claimant claim;
    t.exit_order <- claimant :: t.exit_order;
    Log.warn ~scope
      ~fields:
        [ ("claimant", Telemetry.Json.String (Address.to_hex claimant));
          ("claim0", Telemetry.Json.String (U256.to_string claim0));
          ("claim1", Telemetry.Json.String (U256.to_string claim1));
          ("refund0", Telemetry.Json.String (U256.to_string !refund0));
          ("refund1", Telemetry.Json.String (U256.to_string !refund1));
          ("positions_closed", Telemetry.Json.Int claim.positions_closed);
          ("gas", Telemetry.Json.Int (Gas.total m)) ]
      "emergency exit served";
    Ok claim
  end

let exit_of t user = Hashtbl.find_opt t.exit_table user
let exits t = List.rev_map (fun a -> Hashtbl.find t.exit_table a) t.exit_order
let exits_served t = Hashtbl.length t.exit_table

type reconciliation = {
  rec_epochs : int list;
  rec_users_applied : int;
  rec_users_voided : int;
  rec_positions_voided : int;
  rec_voided0 : U256.t;
  rec_voided1 : U256.t;
  rec_paid0 : U256.t;
  rec_paid1 : U256.t;
  rec_gas : Gas.meter;
}

let reconcile t ~signed =
  match signed with
  | [] -> Error Empty_submission
  | _ when not t.halted -> Error Not_halted
  | _ ->
    let payloads = List.map fst signed in
    let m = Gas.meter () in
    Gas.charge m "base" Gas.tx_base;
    let calldata_bytes =
      List.fold_left (fun acc p -> acc + Sync_payload.abi_size p) 0 payloads
    in
    Gas.charge m "calldata" (Gas.calldata_cost_of_size calldata_bytes);
    (* The recovered committee's summaries were built against the pre-halt
       state, so the chain verifies against the balances frozen at the
       halt — not the live ones the exits have since drained. *)
    let frozen_of pool_id =
      match List.find_opt (fun p -> p.pool_id = pool_id) t.frozen_pools with
      | Some info -> (info.balance0, info.balance1)
      | None -> (U256.zero, U256.zero)
    in
    let balance0, balance1 =
      match payloads with
      | p :: _ -> frozen_of p.Sync_payload.pool
      | [] -> (U256.zero, U256.zero)
    in
    let* () =
      match
        verify_all m ~vk:t.vk ~expected_epoch:(t.synced_epoch + 1) ~balance0
          ~balance1 signed
      with
      | Ok () -> Ok ()
      | Error rejection -> log_rejected t ~payloads rejection
    in
    let users_applied = ref 0 and users_voided = ref 0 in
    let positions_voided = ref 0 in
    let voided0 = ref U256.zero and voided1 = ref U256.zero in
    let paid0 = ref U256.zero and paid1 = ref U256.zero in
    (* Live per-pool balances, mutated as flows are applied. *)
    let live = Hashtbl.create 4 in
    Array.iter (fun p -> Hashtbl.replace live p.pool_id (p.balance0, p.balance1)) t.pools;
    List.iter
      (fun (p : Sync_payload.t) ->
        let open Sync_payload in
        List.iter
          (fun pe ->
            if Hashtbl.mem t.exit_table pe.owner then begin
              (* The owner already withdrew this position's value on-chain:
                 the summary's view of it is void. *)
              Pos_store.remove t.positions_store pe.pos_id;
              incr positions_voided
            end
            else if pe.deleted then Pos_store.remove t.positions_store pe.pos_id
            else Pos_store.set t.positions_store pe)
          p.positions;
        Gas.charge m "storage" (storage_words p * Gas.sstore_word);
        let b0, b1 =
          Option.value ~default:(U256.zero, U256.zero) (Hashtbl.find_opt live p.pool)
        in
        let b0 = ref b0 and b1 = ref b1 in
        List.iter
          (fun u ->
            if Hashtbl.mem t.exit_table u.user then begin
              incr users_voided;
              voided0 := U256.add !voided0 u.payout0;
              voided1 := U256.add !voided1 u.payout1
            end
            else begin
              incr users_applied;
              let d0, d1 = take_deposit t ~epoch:p.epoch u.user in
              let short0 =
                if U256.ge d0 u.payin0 then U256.zero else U256.sub u.payin0 d0
              in
              let short1 =
                if U256.ge d1 u.payin1 then U256.zero else U256.sub u.payin1 d1
              in
              let residual0 =
                if U256.ge d0 u.payin0 then U256.sub d0 u.payin0 else U256.zero
              in
              let residual1 =
                if U256.ge d1 u.payin1 then U256.sub d1 u.payin1 else U256.zero
              in
              (* Credit the payin first, then cap the payout at what the
                 live (post-exit) reserves can actually cover. *)
              b0 := U256.add !b0 u.payin0;
              b1 := U256.add !b1 u.payin1;
              let want0 = U256.sub (U256.max u.payout0 short0) short0 in
              let want1 = U256.sub (U256.max u.payout1 short1) short1 in
              let pay0 = U256.min want0 !b0 and pay1 = U256.min want1 !b1 in
              if U256.lt pay0 want0 || U256.lt pay1 want1 then
                Log.warn ~scope
                  ~fields:
                    [ ("user", Telemetry.Json.String (Address.to_hex u.user));
                      ("epoch", Telemetry.Json.Int p.epoch) ]
                  "reconcile: payout capped by post-exit reserves";
              b0 := U256.sub !b0 pay0;
              b1 := U256.sub !b1 pay1;
              paid0 := U256.add !paid0 (U256.add pay0 residual0);
              paid1 := U256.add !paid1 (U256.add pay1 residual1);
              pay_out t m ~dest:u.user ~label:"reconcile.payout"
                (U256.add pay0 residual0) ~token0:true;
              pay_out t m ~dest:u.user ~label:"reconcile.payout"
                (U256.add pay1 residual1) ~token0:false
            end)
          p.users;
        (* Deposits the delta payload leaves unlisted are pure residuals
           (exited claimants were already drained by their exit): refund
           them in aggregate and retire the epoch's table, mirroring
           [apply_payload]. *)
        List.iter
          (fun (user, (d0, d1)) ->
            paid0 := U256.add !paid0 d0;
            paid1 := U256.add !paid1 d1;
            pay_out t m ~dest:user ~label:"reconcile.payout" d0 ~token0:true;
            pay_out t m ~dest:user ~label:"reconcile.payout" d1 ~token0:false)
          (deposits_for_epoch t ~epoch:p.epoch);
        t.user_deposits <- Epoch_map.remove p.epoch t.user_deposits;
        Hashtbl.replace live p.pool (!b0, !b1);
        t.vk <- p.next_committee_vk;
        t.synced_epoch <- p.epoch)
      payloads;
    Hashtbl.iter (fun pool_id (b0, b1) -> set_pool_balances t pool_id b0 b1) live;
    t.halted <- false;
    let rec_epochs = List.map (fun p -> p.Sync_payload.epoch) payloads in
    let r =
      { rec_epochs; rec_users_applied = !users_applied;
        rec_users_voided = !users_voided; rec_positions_voided = !positions_voided;
        rec_voided0 = !voided0; rec_voided1 = !voided1;
        rec_paid0 = !paid0; rec_paid1 = !paid1; rec_gas = m }
    in
    Log.info ~scope
      ~fields:
        [ ("epochs",
           Telemetry.Json.String
             (String.concat "," (List.map string_of_int rec_epochs)));
          ("users_applied", Telemetry.Json.Int r.rec_users_applied);
          ("users_voided", Telemetry.Json.Int r.rec_users_voided);
          ("positions_voided", Telemetry.Json.Int r.rec_positions_voided);
          ("voided0", Telemetry.Json.String (U256.to_string r.rec_voided0));
          ("voided1", Telemetry.Json.String (U256.to_string r.rec_voided1));
          ("gas", Telemetry.Json.Int (Gas.total m)) ]
      "bank reconciled: halt lifted, committee key re-chained";
    Ok r

let exit_conservation_ok t =
  if not t.ever_halted then true
  else begin
    let c0h, c1h = t.custody_at_halt in
    let c0, c1 = total_custody t in
    U256.equal c0h (U256.add c0 t.paid_out0)
    && U256.equal c1h (U256.add c1 t.paid_out1)
  end

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_epoch : int;
  snap_deposits : (Address.t * (U256.t * U256.t)) list;
  snap_pool_balances : (int * (U256.t * U256.t)) list;
  snap_positions : Sync_payload.position_entry list;
}

let snapshot t ~epoch =
  { snap_epoch = epoch;
    snap_deposits = deposits_for_epoch t ~epoch;
    snap_pool_balances =
      List.map (fun p -> (p.pool_id, (p.balance0, p.balance1))) (pools_newest_first t);
    snap_positions = positions t }

(* A checkpoint is O(1): the only copied state is the (tiny) pool array;
   everything else is a pointer (the per-epoch deposit map, the exit
   order) or a mark in one of four journals — the bank's own (deposit
   cells, exit claims), the position store's, and each ERC-20's. Ledger
   cells record once per checkpoint, on their first write, and a sync
   writes each position row at most once, so [restore] costs O(keys
   dirtied since the checkpoint), whatever the number of positions,
   users or writes. *)
type checkpoint = {
  ck_pools : pool_info array;
  ck_next_pool_id : int;
  ck_deposits : deposit_cell Address.Tbl.t Epoch_map.t;
  ck_pos_mark : int;
  ck_mark : int;
  ck_vk : Bls.public_key;
  ck_synced_epoch : int;
  ck_erc0 : Erc20.checkpoint;
  ck_erc1 : Erc20.checkpoint;
  ck_halted : bool;
  ck_ever_halted : bool;
  ck_halt_epoch : int;
  ck_frozen_pools : pool_info list;
  ck_frozen_value : U256.t * U256.t;
  ck_custody_at_halt : U256.t * U256.t;
  ck_paid_out : U256.t * U256.t;
  ck_exit_order : Address.t list;
}

let checkpoint t =
  { ck_pools = Array.copy t.pools; ck_next_pool_id = t.next_pool_id;
    ck_deposits = t.user_deposits;
    ck_pos_mark = Pos_store.mark t.positions_store;
    ck_mark = Journal.mark t.journal;
    ck_vk = t.vk; ck_synced_epoch = t.synced_epoch;
    ck_erc0 = Erc20.checkpoint t.erc0; ck_erc1 = Erc20.checkpoint t.erc1;
    ck_halted = t.halted; ck_ever_halted = t.ever_halted;
    ck_halt_epoch = t.halt_epoch; ck_frozen_pools = t.frozen_pools;
    ck_frozen_value = (t.frozen_value0, t.frozen_value1);
    ck_custody_at_halt = t.custody_at_halt;
    ck_paid_out = (t.paid_out0, t.paid_out1);
    ck_exit_order = t.exit_order }

let restore t ck =
  Log.warn ~scope
    ~fields:
      [ ("from_epoch", Telemetry.Json.Int t.synced_epoch);
        ("to_epoch", Telemetry.Json.Int ck.ck_synced_epoch) ]
    "state restored to pre-sync checkpoint";
  t.pools <- Array.copy ck.ck_pools;
  t.next_pool_id <- ck.ck_next_pool_id;
  t.user_deposits <- ck.ck_deposits;
  Journal.undo_to t.journal ck.ck_mark;
  Pos_store.undo_to t.positions_store ck.ck_pos_mark;
  t.vk <- ck.ck_vk;
  t.synced_epoch <- ck.ck_synced_epoch;
  Erc20.restore t.erc0 ck.ck_erc0;
  Erc20.restore t.erc1 ck.ck_erc1;
  t.halted <- ck.ck_halted;
  t.ever_halted <- ck.ck_ever_halted;
  t.halt_epoch <- ck.ck_halt_epoch;
  t.frozen_pools <- ck.ck_frozen_pools;
  (let v0, v1 = ck.ck_frozen_value in
   t.frozen_value0 <- v0;
   t.frozen_value1 <- v1);
  t.custody_at_halt <- ck.ck_custody_at_halt;
  (let p0, p1 = ck.ck_paid_out in
   t.paid_out0 <- p0;
   t.paid_out1 <- p1);
  t.exit_order <- ck.ck_exit_order

let release_checkpoint t ck =
  Journal.release_below t.journal ck.ck_mark;
  Pos_store.release_below t.positions_store ck.ck_pos_mark;
  Erc20.release t.erc0 ck.ck_erc0;
  Erc20.release t.erc1 ck.ck_erc1

let checkpoint_journal_bytes t = Pos_store.journal_bytes t.positions_store

let positions_bytes t = Pos_store.to_bytes t.positions_store
let positions_store t = t.positions_store
