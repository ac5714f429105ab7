module U256 = Amm_math.U256
module Address = Chain.Address
module Journal = Flatstore.Journal

(* An address's balance and the allowances it granted, found with one
   table lookup: a pit-stop deposit reads both. *)
type account = {
  balance : U256.t Journal.cell;
  mutable approvals : (Address.t * U256.t Journal.cell) list;
}

type t = {
  token : Chain.Token.t;
  accounts : account Address.Tbl.t;
  supply : U256.t Journal.cell;
  journal : Journal.t;
}

let deploy token =
  { token; accounts = Address.Tbl.create 64; supply = Journal.cell U256.zero;
    journal = Journal.create () }

let token t = t.token
let write t c v = Journal.set t.journal ~bytes:32 c v

let account t addr =
  match Address.Tbl.find_opt t.accounts addr with
  | Some a -> a
  | None ->
    let a = { balance = Journal.cell U256.zero; approvals = [] } in
    Address.Tbl.add t.accounts addr a;
    a

let balance_of t addr =
  match Address.Tbl.find_opt t.accounts addr with
  | Some a -> a.balance.value
  | None -> U256.zero

let total_supply t = t.supply.value

let credit t addr amount =
  let c = (account t addr).balance in
  write t c (U256.add c.value amount)

let mint t addr amount =
  credit t addr amount;
  write t t.supply (U256.add t.supply.value amount)

let approval a spender =
  List.find_map
    (fun (s, c) -> if Address.equal s spender then Some c else None)
    a.approvals

let allowance t ~owner ~spender =
  match Address.Tbl.find_opt t.accounts owner with
  | None -> U256.zero
  | Some a -> (match approval a spender with Some c -> c.value | None -> U256.zero)

let charge meter label amount =
  match meter with Some m -> Gas.charge m label amount | None -> ()

let approve ?meter t ~owner ~spender amount =
  let a = account t owner in
  let c =
    match approval a spender with
    | Some c -> c
    | None ->
      let c = Journal.cell U256.zero in
      a.approvals <- (spender, c) :: a.approvals;
      c
  in
  write t c amount;
  charge meter "erc20.approve" (Gas.sload + Gas.sstore_update)

let move t src ~dest amount =
  if U256.lt src.balance.value amount then
    Error
      (Printf.sprintf "erc20 %s: insufficient balance" (Chain.Token.symbol t.token))
  else begin
    write t src.balance (U256.sub src.balance.value amount);
    credit t dest amount;
    Ok ()
  end

let transfer ?meter t ~source ~dest amount =
  charge meter "erc20.transfer" ((2 * Gas.sload) + (2 * Gas.sstore_update));
  move t (account t source) ~dest amount

type checkpoint = int

let checkpoint t = Journal.mark t.journal
let restore t c = Journal.undo_to t.journal c
let release t c = Journal.release_below t.journal c
let journal_length t = Journal.length t.journal

let transfer_from ?meter t ~spender ~source ~dest amount =
  let src = account t source in
  let granted = approval src spender in
  let allowed = match granted with Some c -> c.value | None -> U256.zero in
  if U256.lt allowed amount then Error "erc20: insufficient allowance"
  else begin
    charge meter "erc20.allowance" (Gas.sload + Gas.sstore_update);
    charge meter "erc20.transfer" ((2 * Gas.sload) + (2 * Gas.sstore_update));
    match move t src ~dest amount with
    | Ok () ->
      (* Infinite approvals are never decremented (canonical ERC20
         behavior). Metering above is unchanged so gas baselines stay
         comparable. *)
      (match granted with
      | Some c when not (U256.equal allowed U256.max_value) ->
        write t c (U256.sub allowed amount)
      | _ -> ());
      Ok ()
    | Error e -> Error e
  end
