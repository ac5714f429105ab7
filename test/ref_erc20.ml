(* Reference model for the journaled [Mainchain.Erc20]: the earlier
   implementation on persistent maps, where a checkpoint is a pointer to
   the maps and restore swaps them back. Differential tests run random
   operation sequences against both and compare every observable. *)

module U256 = Amm_math.U256
module Address = Chain.Address

type t = {
  token : Chain.Token.t;
  mutable balances : U256.t Address.Map.t;
  mutable allowances : U256.t Address.Map.t Address.Map.t; (* owner -> spender -> amount *)
  mutable total_supply : U256.t;
}

let deploy token =
  { token; balances = Address.Map.empty; allowances = Address.Map.empty;
    total_supply = U256.zero }

let token t = t.token

let balance_of t addr =
  Option.value ~default:U256.zero (Address.Map.find_opt addr t.balances)

let total_supply t = t.total_supply

let set_balance t addr v = t.balances <- Address.Map.add addr v t.balances

let mint t addr amount =
  set_balance t addr (U256.add (balance_of t addr) amount);
  t.total_supply <- U256.add t.total_supply amount

let allowance t ~owner ~spender =
  match Address.Map.find_opt owner t.allowances with
  | None -> U256.zero
  | Some m -> Option.value ~default:U256.zero (Address.Map.find_opt spender m)

let approve t ~owner ~spender amount =
  let m = Option.value ~default:Address.Map.empty (Address.Map.find_opt owner t.allowances) in
  t.allowances <- Address.Map.add owner (Address.Map.add spender amount m) t.allowances

let transfer t ~source ~dest amount =
  let src_balance = balance_of t source in
  if U256.lt src_balance amount then
    Error
      (Printf.sprintf "erc20 %s: insufficient balance" (Chain.Token.symbol t.token))
  else begin
    set_balance t source (U256.sub src_balance amount);
    set_balance t dest (U256.add (balance_of t dest) amount);
    Ok ()
  end

type checkpoint = {
  c_balances : U256.t Address.Map.t;
  c_allowances : U256.t Address.Map.t Address.Map.t;
  c_supply : U256.t;
}

let checkpoint t =
  { c_balances = t.balances; c_allowances = t.allowances; c_supply = t.total_supply }

let restore t c =
  t.balances <- c.c_balances;
  t.allowances <- c.c_allowances;
  t.total_supply <- c.c_supply

let transfer_from t ~spender ~source ~dest amount =
  let allowed = allowance t ~owner:source ~spender in
  if U256.lt allowed amount then Error "erc20: insufficient allowance"
  else
    match transfer t ~source ~dest amount with
    | Ok () ->
      if not (U256.equal allowed U256.max_value) then approve t ~owner:source ~spender
          (U256.sub allowed amount);
      Ok ()
    | Error e -> Error e
