(* Test-only cross-check for the bank-op stream: folds a write-ahead log
   (a [Durable.Record.t] list, oldest first) into a fresh TokenBank with
   full signature checks and compares the result with a live bank. A
   [Truncate { keep }] drops the surviving log back to its first [keep]
   ops, exactly as a mainchain reorg abandons everything after the
   restored checkpoint. *)

module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Erc20 = Mainchain.Erc20
module Token_bank = Tokenbank.Token_bank
module Pos_store = Tokenbank.Pos_store
module Sync_payload = Tokenbank.Sync_payload
module Record = Durable.Record

(* The ops a log leaves standing once its rollbacks are applied. *)
let surviving records =
  let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l) in
  let ops, _ =
    List.fold_left
      (fun (ops, n) r ->
        match r with
        | Record.Op op -> (op :: ops, n + 1)
        | Record.Truncate { keep } ->
          if keep < n then (drop (n - keep) ops, keep) else (ops, n))
      ([], 0) records
  in
  List.rev ops

(* Enough to fund any simulated deposit schedule (the system faucet
   mints 1e30 per side). *)
let faucet = U256.of_string "1000000000000000000000000000000"

let replay ~genesis_committee_vk ~flash_fee_pips records =
  let erc0 = Erc20.deploy (Chain.Token.make ~id:0 ~symbol:"TKA") in
  let erc1 = Erc20.deploy (Chain.Token.make ~id:1 ~symbol:"TKB") in
  let bank = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk in
  ignore (Token_bank.create_pool bank ~flash_fee_pips);
  let funded = Hashtbl.create 64 in
  let fund user =
    if not (Hashtbl.mem funded user) then begin
      Hashtbl.replace funded user ();
      List.iter
        (fun erc ->
          Erc20.mint erc user faucet;
          Erc20.approve erc ~owner:user ~spender:(Token_bank.address bank) U256.max_value)
        [ erc0; erc1 ]
    end
  in
  let rejected what = function
    | Ok _ -> Ok ()
    | Error rej -> Error (what ^ ": " ^ Token_bank.rejection_to_string rej)
  in
  let step = function
    | Record.Deposit { user; for_epoch; amount0; amount1 } ->
      fund user;
      Result.map_error (fun e -> "deposit: " ^ e)
        (Token_bank.deposit bank ~user ~for_epoch ~amount0 ~amount1)
    | Record.Sync signed -> rejected "sync" (Token_bank.sync bank ~signed)
    | Record.Halt { epoch } -> rejected "halt" (Token_bank.halt bank ~epoch)
    | Record.Exit { claimant } -> rejected "exit" (Token_bank.emergency_exit bank ~claimant)
    | Record.Reconcile signed -> rejected "reconcile" (Token_bank.reconcile bank ~signed)
  in
  let rec go = function
    | [] -> Ok bank
    | op :: rest -> ( match step op with Ok () -> go rest | Error e -> Error e)
  in
  go (surviving records)

(* Every position row image, in id order. *)
let position_rows bank =
  let store = Token_bank.positions_store bank in
  Pos_store.fold store ~init:[] ~f:(fun acc e -> e.Sync_payload.pos_id :: acc)
  |> List.sort Position_id.compare
  |> List.map (fun pid -> (pid, Pos_store.row_image store pid))

(* The replayed bank agrees with [live] on the meta section (sync
   frontier, halt state, committee key, custody, pool balances, exit
   claims) and on every position row. *)
let agrees ~live replayed =
  if not (Bytes.equal (Durable.State_codec.bank_meta_bytes live)
            (Durable.State_codec.bank_meta_bytes replayed))
  then Error "bank.meta differs"
  else if position_rows live <> position_rows replayed then
    Error "bank.positions differ"
  else Ok ()
