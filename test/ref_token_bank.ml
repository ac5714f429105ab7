(* Reference model for the journaled [Tokenbank.Token_bank]: the earlier
   implementation, whose pending deposits were persistent maps captured
   by pointer at each checkpoint and whose exit claims had a private
   list journal, over {!Ref_erc20}. Cut down to what the differential
   tests drive — deposits, syncs (without signature checks), flash
   loans, halt and exit, checkpoints — and to the state they compare;
   gas metering and logging are left out. Positions live in the same
   [Pos_store] as the real bank. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Erc20 = Ref_erc20
module Pos_store = Tokenbank.Pos_store
module Sync_payload = Tokenbank.Sync_payload

type pool_info = { pool_id : int; balance0 : U256.t; balance1 : U256.t; flash_fee_pips : int }

module Epoch_map = Map.Make (Int)

type exit_claim = {
  claimant : Address.t;
  claim0 : U256.t;
  claim1 : U256.t;
  refund0 : U256.t;
  refund1 : U256.t;
  positions_closed : int;
}

type t = {
  bank_address : Address.t;
  erc0 : Erc20.t;
  erc1 : Erc20.t;
  mutable pools : pool_info array;
  mutable next_pool_id : int;
  mutable user_deposits : (U256.t * U256.t) Address.Map.t Epoch_map.t;
  positions_store : Pos_store.t;
  mutable synced_epoch : int;
  mutable halted : bool;
  mutable frozen_pools : pool_info list;
  mutable frozen_value0 : U256.t;
  mutable frozen_value1 : U256.t;
  exit_table : (Address.t, exit_claim) Hashtbl.t;
  mutable exit_journal : (Address.t * exit_claim option) list;
  mutable exit_journal_len : int;
}

let deploy ~token0 ~token1 =
  { bank_address = Address.of_label "TokenBank"; erc0 = token0; erc1 = token1;
    pools = [||]; next_pool_id = 0; user_deposits = Epoch_map.empty;
    positions_store = Pos_store.create (); synced_epoch = -1; halted = false;
    frozen_pools = []; frozen_value0 = U256.zero; frozen_value1 = U256.zero;
    exit_table = Hashtbl.create 16; exit_journal = []; exit_journal_len = 0 }

let create_pool t ~flash_fee_pips =
  let pool_id = t.next_pool_id in
  t.next_pool_id <- pool_id + 1;
  let info = { pool_id; balance0 = U256.zero; balance1 = U256.zero; flash_fee_pips } in
  t.pools <- Array.append t.pools [| info |];
  pool_id

let pool t id = if id >= 0 && id < t.next_pool_id then Some t.pools.(id) else None

let set_pool_balances t id balance0 balance1 =
  if id >= 0 && id < t.next_pool_id then
    t.pools.(id) <- { (t.pools.(id)) with balance0; balance1 }

let epoch_deposits t epoch =
  Option.value ~default:Address.Map.empty (Epoch_map.find_opt epoch t.user_deposits)

let deposit_of t ~epoch user =
  Option.value ~default:(U256.zero, U256.zero)
    (Address.Map.find_opt user (epoch_deposits t epoch))

let deposits_for_epoch t ~epoch = Address.Map.bindings (epoch_deposits t epoch)

let ( let* ) = Result.bind

let deposit t ~user ~for_epoch ~amount0 ~amount1 =
  if t.halted then Error "halted"
  else begin
    let* () =
      if U256.is_zero amount0 then Ok ()
      else Erc20.transfer_from t.erc0 ~spender:t.bank_address ~source:user
          ~dest:t.bank_address amount0
    in
    let* () =
      if U256.is_zero amount1 then Ok ()
      else Erc20.transfer_from t.erc1 ~spender:t.bank_address ~source:user
          ~dest:t.bank_address amount1
    in
    let d0, d1 = deposit_of t ~epoch:for_epoch user in
    t.user_deposits <-
      Epoch_map.add for_epoch
        (Address.Map.add user (U256.add d0 amount0, U256.add d1 amount1)
           (epoch_deposits t for_epoch))
        t.user_deposits;
    Ok ()
  end

let conservation_ok ~balance0 ~balance1 (payload : Sync_payload.t) =
  let sum f = List.fold_left (fun acc u -> U256.add acc (f u)) U256.zero payload.users in
  let check old payin payout updated =
    let credited = U256.add old payin in
    U256.ge credited payout && U256.equal (U256.sub credited payout) updated
  in
  check balance0 (sum (fun u -> u.Sync_payload.payin0)) (sum (fun u -> u.Sync_payload.payout0))
    payload.pool_balance0
  && check balance1 (sum (fun u -> u.Sync_payload.payin1))
       (sum (fun u -> u.Sync_payload.payout1)) payload.pool_balance1

let apply_payload t (payload : Sync_payload.t) =
  let open Sync_payload in
  List.iter
    (fun p ->
      if p.deleted then Pos_store.remove t.positions_store p.pos_id
      else Pos_store.set t.positions_store p)
    payload.positions;
  set_pool_balances t payload.pool payload.pool_balance0 payload.pool_balance1;
  let send ~dest erc amount =
    if not (U256.is_zero amount) then
      match Erc20.transfer erc ~source:t.bank_address ~dest amount with
      | Ok () -> ()
      | Error e -> failwith ("TokenBank.sync: custody underflow: " ^ e)
  in
  List.iter
    (fun u ->
      let d0, d1 = deposit_of t ~epoch:payload.epoch u.user in
      let short0 = if U256.ge d0 u.payin0 then U256.zero else U256.sub u.payin0 d0 in
      let short1 = if U256.ge d1 u.payin1 then U256.zero else U256.sub u.payin1 d1 in
      let residual0 = if U256.ge d0 u.payin0 then U256.sub d0 u.payin0 else U256.zero in
      let residual1 = if U256.ge d1 u.payin1 then U256.sub d1 u.payin1 else U256.zero in
      let pay0 = U256.sub (U256.max u.payout0 short0) short0 in
      let pay1 = U256.sub (U256.max u.payout1 short1) short1 in
      send ~dest:u.user t.erc0 (U256.add pay0 residual0);
      send ~dest:u.user t.erc1 (U256.add pay1 residual1);
      t.user_deposits <-
        Epoch_map.add payload.epoch
          (Address.Map.remove u.user (epoch_deposits t payload.epoch))
          t.user_deposits)
    payload.users;
  Address.Map.iter
    (fun user (d0, d1) ->
      send ~dest:user t.erc0 d0;
      send ~dest:user t.erc1 d1)
    (epoch_deposits t payload.epoch);
  t.user_deposits <- Epoch_map.remove payload.epoch t.user_deposits;
  t.synced_epoch <- payload.epoch

let sync t ~payloads =
  match payloads with
  | [] -> Error "empty"
  | _ when t.halted -> Error "halted"
  | p :: _ ->
    let balance0, balance1 =
      match pool t p.Sync_payload.pool with
      | Some info -> (info.balance0, info.balance1)
      | None -> (U256.zero, U256.zero)
    in
    let rec verify ~expected ~balance0 ~balance1 = function
      | [] -> Ok ()
      | (p : Sync_payload.t) :: rest ->
        if p.epoch <> expected then Error "epoch"
        else if not (conservation_ok ~balance0 ~balance1 p) then Error "conservation"
        else
          verify ~expected:(expected + 1) ~balance0:p.pool_balance0
            ~balance1:p.pool_balance1 rest
    in
    let* () = verify ~expected:(t.synced_epoch + 1) ~balance0 ~balance1 payloads in
    List.iter (apply_payload t) payloads;
    Ok ()

let storage_words t =
  let deposit_entries =
    Epoch_map.fold (fun _ m acc -> acc + Address.Map.cardinal m) t.user_deposits 0
  in
  (6 * Pos_store.length t.positions_store)
  + (2 * t.next_pool_id) + 4 + (3 * deposit_entries)
  + (6 * Hashtbl.length t.exit_table)

let flash t ~pool:pool_id ~borrower ~amount0 ~amount1 ~callback =
  if t.halted then Error "halted"
  else
    match pool t pool_id with
    | None -> Error "unknown pool"
    | Some p ->
      if U256.gt amount0 p.balance0 || U256.gt amount1 p.balance1 then
        Error "exceeds reserves"
      else begin
        let fee_of a =
          U256.mul_div_rounding_up a (U256.of_int p.flash_fee_pips)
            (U256.of_int Amm_math.Swap_math.fee_denominator)
        in
        let fee0 = fee_of amount0 and fee1 = fee_of amount1 in
        let ck0 = Erc20.checkpoint t.erc0 and ck1 = Erc20.checkpoint t.erc1 in
        let move erc ~source ~dest amount =
          if U256.is_zero amount then Ok () else Erc20.transfer erc ~source ~dest amount
        in
        let outcome =
          let* () = move t.erc0 ~source:t.bank_address ~dest:borrower amount0 in
          let* () = move t.erc1 ~source:t.bank_address ~dest:borrower amount1 in
          let* () = callback ~fee0 ~fee1 in
          let* () = move t.erc0 ~source:borrower ~dest:t.bank_address (U256.add amount0 fee0) in
          move t.erc1 ~source:borrower ~dest:t.bank_address (U256.add amount1 fee1)
        in
        match outcome with
        | Error e ->
          Erc20.restore t.erc0 ck0;
          Erc20.restore t.erc1 ck1;
          Error e
        | Ok () ->
          set_pool_balances t pool_id (U256.add p.balance0 fee0) (U256.add p.balance1 fee1);
          Ok (fee0, fee1)
      end

let total_custody t =
  (Erc20.balance_of t.erc0 t.bank_address, Erc20.balance_of t.erc1 t.bank_address)

let halt t =
  if t.halted then Error "halted"
  else begin
    let v0, v1 =
      Pos_store.fold t.positions_store ~init:(U256.zero, U256.zero)
        ~f:(fun (v0, v1) (p : Sync_payload.position_entry) ->
          (U256.add v0 (U256.add p.amount0 p.fees0), U256.add v1 (U256.add p.amount1 p.fees1)))
    in
    t.halted <- true;
    t.frozen_pools <- List.rev (Array.to_list t.pools);
    t.frozen_value0 <- v0;
    t.frozen_value1 <- v1;
    Ok ()
  end

let emergency_exit t ~claimant =
  if not t.halted then Error "not halted"
  else if Hashtbl.mem t.exit_table claimant then Error "already exited"
  else begin
    let mine =
      Pos_store.fold t.positions_store ~init:[]
        ~f:(fun acc (p : Sync_payload.position_entry) ->
          if Address.equal p.owner claimant then (p.pos_id, p) :: acc else acc)
      |> List.sort (fun (a, _) (b, _) -> Chain.Ids.Position_id.compare a b)
    in
    let mine0, mine1 =
      List.fold_left
        (fun (v0, v1) (_, (p : Sync_payload.position_entry)) ->
          (U256.add v0 (U256.add p.amount0 p.fees0), U256.add v1 (U256.add p.amount1 p.fees1)))
        (U256.zero, U256.zero) mine
    in
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
    let refund0 = ref U256.zero and refund1 = ref U256.zero in
    t.user_deposits <-
      Epoch_map.map
        (fun map ->
          match Address.Map.find_opt claimant map with
          | None -> map
          | Some (d0, d1) ->
            refund0 := U256.add !refund0 d0;
            refund1 := U256.add !refund1 d1;
            Address.Map.remove claimant map)
        t.user_deposits;
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
    let pay erc amount =
      if not (U256.is_zero amount) then
        match Erc20.transfer erc ~source:t.bank_address ~dest:claimant amount with
        | Ok () -> ()
        | Error e -> failwith ("TokenBank: custody underflow: " ^ e)
    in
    pay t.erc0 (U256.add claim0 !refund0);
    pay t.erc1 (U256.add claim1 !refund1);
    let claim =
      { claimant; claim0; claim1; refund0 = !refund0; refund1 = !refund1;
        positions_closed = List.length mine }
    in
    t.exit_journal <- (claimant, Hashtbl.find_opt t.exit_table claimant) :: t.exit_journal;
    t.exit_journal_len <- t.exit_journal_len + 1;
    Hashtbl.replace t.exit_table claimant claim;
    Ok claim
  end

let exit_of t user = Hashtbl.find_opt t.exit_table user

type checkpoint = {
  ck_pools : pool_info array;
  ck_next_pool_id : int;
  ck_deposits : (U256.t * U256.t) Address.Map.t Epoch_map.t;
  ck_pos_mark : int;
  ck_exit_mark : int;
  ck_synced_epoch : int;
  ck_erc0 : Erc20.checkpoint;
  ck_erc1 : Erc20.checkpoint;
  ck_halted : bool;
  ck_frozen_pools : pool_info list;
  ck_frozen_value : U256.t * U256.t;
}

let checkpoint t =
  { ck_pools = Array.copy t.pools; ck_next_pool_id = t.next_pool_id;
    ck_deposits = t.user_deposits;
    ck_pos_mark = Pos_store.mark t.positions_store;
    ck_exit_mark = t.exit_journal_len; ck_synced_epoch = t.synced_epoch;
    ck_erc0 = Erc20.checkpoint t.erc0; ck_erc1 = Erc20.checkpoint t.erc1;
    ck_halted = t.halted; ck_frozen_pools = t.frozen_pools;
    ck_frozen_value = (t.frozen_value0, t.frozen_value1) }

let restore t ck =
  t.pools <- Array.copy ck.ck_pools;
  t.next_pool_id <- ck.ck_next_pool_id;
  t.user_deposits <- ck.ck_deposits;
  Pos_store.undo_to t.positions_store ck.ck_pos_mark;
  t.synced_epoch <- ck.ck_synced_epoch;
  Erc20.restore t.erc0 ck.ck_erc0;
  Erc20.restore t.erc1 ck.ck_erc1;
  t.halted <- ck.ck_halted;
  t.frozen_pools <- ck.ck_frozen_pools;
  (let v0, v1 = ck.ck_frozen_value in
   t.frozen_value0 <- v0;
   t.frozen_value1 <- v1);
  while t.exit_journal_len > ck.ck_exit_mark do
    (match t.exit_journal with
    | (claimant, prev) :: rest ->
      (match prev with
      | None -> Hashtbl.remove t.exit_table claimant
      | Some c -> Hashtbl.replace t.exit_table claimant c);
      t.exit_journal <- rest
    | [] -> invalid_arg "Ref_token_bank.restore: exit journal underflow");
    t.exit_journal_len <- t.exit_journal_len - 1
  done

let release_checkpoint t ck = Pos_store.release_below t.positions_store ck.ck_pos_mark
let positions_bytes t = Pos_store.to_bytes t.positions_store
