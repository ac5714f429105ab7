(* Synthetic Uniswap-like traffic following the paper's measured 2023
   distribution (Table 8): 93.19% swaps, 2.14% mints, 2.38% burns,
   2.27% collects, arriving at the constant rate ρ = ⌈V_D·b_t/86400⌉ per
   sidechain round. LPs mostly supplement existing positions (so the
   position count stays bounded by the user population, as the paper's
   sidechain-growth results require), occasionally open new ones, and
   sometimes withdraw fully. *)

module U256 = Amm_math.U256
module Rng = Amm_crypto.Rng
module Tx = Chain.Tx
module Position_id = Chain.Ids.Position_id

type t = {
  rng : Rng.t;
  cfg : Config.t;
  users : Party.user array;
  lps : Party.user array;
  (* user_index -> open position ids this LP minted *)
  registry : (int, Position_id.t list ref) Hashtbl.t;
  mutable generated : int;
  mutable n_swaps : int;
  mutable n_mints : int;
  mutable n_burns : int;
  mutable n_collects : int;
}

let create ~rng ~cfg ~users =
  let lps = Array.of_list (List.filter (fun u -> u.Party.is_lp) (Array.to_list users)) in
  if Array.length lps = 0 then invalid_arg "Traffic.create: no LPs";
  { rng; cfg; users; lps; registry = Hashtbl.create 32;
    generated = 0; n_swaps = 0; n_mints = 0; n_burns = 0; n_collects = 0 }

let positions_of t (lp : Party.user) =
  match Hashtbl.find_opt t.registry lp.Party.user_index with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.registry lp.Party.user_index l;
    l

let register_position t (lp : Party.user) pid =
  let l = positions_of t lp in
  l := pid :: !l

let unregister_position t (lp : Party.user) pid =
  let l = positions_of t lp in
  l := List.filter (fun p -> not (Position_id.equal p pid)) !l

let unit_amount = U256.of_string "10000000000000000" (* 1e16 *)

let amount t ~max_units = U256.mul unit_amount (U256.of_int (1 + Rng.int t.rng max_units))

let make_tx t (user : Party.user) ~round ~time payload =
  let sign = if t.cfg.Config.sign_transactions then Some user.Party.sk else None in
  Tx.create ?sign ~issuer:user.Party.address ~issuer_pk:user.Party.pk ~pool:0
    ~issued_round:round ~issued_at:time payload

let gen_swap t user ~round ~time =
  t.n_swaps <- t.n_swaps + 1;
  let exact_in = Rng.float t.rng < 0.7 in
  let amount_specified = amount t ~max_units:100 in
  let payload =
    Tx.Swap
      { zero_for_one = Rng.bool t.rng;
        kind = (if exact_in then Tx.Exact_input else Tx.Exact_output);
        amount_specified;
        amount_limit =
          (if exact_in then U256.zero (* min out: accept any fill *)
           else U256.mul amount_specified (U256.of_int 3) (* generous max in *));
        sqrt_price_limit = U256.zero;
        deadline = round + t.cfg.Config.swap_deadline_rounds }
  in
  make_tx t user ~round ~time payload

let pick_range t =
  let spacing = Config.tick_spacing in
  let halfwidth = spacing * (5 + Rng.int t.rng 46) in
  let center = spacing * (Rng.int t.rng 11 - 5) in
  let lower = ((center - halfwidth) / spacing) * spacing in
  let upper = ((center + halfwidth) / spacing) * spacing in
  if lower >= upper then (lower - spacing, upper + spacing) else (lower, upper)

let gen_mint t lp ~round ~time =
  t.n_mints <- t.n_mints + 1;
  let open_positions = !(positions_of t lp) in
  (* Mostly supplement an open position; open fresh ones only below the
     per-LP cap. This keeps the live position count bounded by the LP
     population, which is what bounds the paper's sync cost and sidechain
     growth ("it remains invariant even with a variation of transaction
     distributions", Table 5). *)
  let at_cap = List.length open_positions >= Config.max_positions_per_lp in
  let target =
    match open_positions with
    | _ :: _ when at_cap || Rng.float t.rng < 0.8 ->
      Tx.Existing_position (Rng.pick t.rng (Array.of_list open_positions))
    | _ :: _ | [] -> Tx.New_position
  in
  let lower_tick, upper_tick = pick_range t in
  let tx =
    make_tx t lp ~round ~time
      (Tx.Mint
         { lower_tick; upper_tick;
           amount0_desired = amount t ~max_units:1000;
           amount1_desired = amount t ~max_units:1000;
           target })
  in
  (match target with
  | Tx.New_position ->
    (* The committee derives the id from the mint tx; compute it the same
       way so later burns/collects can reference it. *)
    register_position t lp (Uniswap.Position.derive_id ~minter:lp.Party.address ~tx_id:tx.Tx.id)
  | Tx.Existing_position _ -> ());
  tx

(* A mint re-targeting an existing position keeps its original range on
   the pool side; the generated ticks are simply ignored there, matching
   the paper's "an existing position will receive an increase in its
   balance". *)

let gen_burn t lp ~round ~time =
  t.n_burns <- t.n_burns + 1;
  match !(positions_of t lp) with
  | [] -> gen_mint t lp ~round ~time (* nothing to burn yet: provide instead *)
  | positions ->
    let pid = Rng.pick t.rng (Array.of_list positions) in
    let full = Rng.float t.rng < 0.3 in
    if full then unregister_position t lp pid;
    make_tx t lp ~round ~time
      (Tx.Burn
         { burn_position = pid;
           amount0_requested = (if full then U256.max_value else amount t ~max_units:50);
           amount1_requested = (if full then U256.max_value else amount t ~max_units:50) })

let gen_collect t lp ~round ~time =
  t.n_collects <- t.n_collects + 1;
  match !(positions_of t lp) with
  | [] -> gen_mint t lp ~round ~time
  | positions ->
    let pid = Rng.pick t.rng (Array.of_list positions) in
    make_tx t lp ~round ~time
      (Tx.Collect
         { collect_position = pid;
           fees0_requested = U256.max_value;
           fees1_requested = U256.max_value })

let generate_one t ~round ~time =
  t.generated <- t.generated + 1;
  let d = t.cfg.Config.distribution in
  let roll = Rng.float t.rng *. 100.0 in
  let lp () = Rng.pick t.rng t.lps in
  if roll < d.Config.swap_pct then gen_swap t (Rng.pick t.rng t.users) ~round ~time
  else if roll < d.Config.swap_pct +. d.Config.mint_pct then gen_mint t (lp ()) ~round ~time
  else if roll < d.Config.swap_pct +. d.Config.mint_pct +. d.Config.burn_pct then
    gen_burn t (lp ()) ~round ~time
  else gen_collect t (lp ()) ~round ~time

let iter_round t ~round ~time f =
  let n = Config.arrivals_per_round t.cfg in
  for _ = 1 to n do
    f (generate_one t ~round ~time)
  done;
  n

let generate_round t ~round ~time =
  let acc = ref [] in
  ignore (iter_round t ~round ~time (fun tx -> acc := tx :: !acc));
  List.rev !acc

type type_stats = {
  ts_name : string;
  ts_share_pct : float;
  ts_daily_volume : float;
  ts_avg_size : float;
}

let table8_stats t =
  let total = float_of_int (Stdlib.max 1 t.generated) in
  let days =
    float_of_int t.generated /. float_of_int (Stdlib.max 1 t.cfg.Config.daily_volume)
  in
  let row name count op =
    let c = float_of_int count in
    { ts_name = name; ts_share_pct = 100.0 *. c /. total;
      ts_daily_volume = (if days > 0.0 then c /. days else 0.0);
      ts_avg_size = float_of_int (Chain.Encoding.ethereum_op_size op) }
  in
  [ row "Swap" t.n_swaps Chain.Encoding.Op_swap;
    row "Mint" t.n_mints Chain.Encoding.Op_mint;
    row "Burn" t.n_burns Chain.Encoding.Op_burn;
    row "Collect" t.n_collects Chain.Encoding.Op_collect ]

let generated t = t.generated
