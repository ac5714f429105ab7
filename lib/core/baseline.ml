(* The baseline: Uniswap V3 deployed directly on the mainchain (the
   paper's Sepolia deployment). The same traffic is executed through the
   same Router logic, but every operation is an on-chain transaction
   paying the measured per-operation gas (Gas_model) and adding its
   Sepolia-encoded bytes to the chain. *)

module U256 = Amm_math.U256
module Rng = Amm_crypto.Rng
module Tx = Chain.Tx
module Encoding = Chain.Encoding
module Eth = Mainchain.Eth

type result = {
  cfg : Config.t;
  generated : int;
  executed : int;
  rejected : int;
  gas_total : int;
  gas_by_op : (string * int) list;
  mc_tx_bytes : int;          (* Sepolia encoding, what lands on chain *)
  mc_tx_bytes_ethereum : int; (* same ops under the production-Ethereum encoding *)
  latency_by_op : (string * float) list;
  throughput : float;
  swaps : int;
  mints : int;
  burns : int;
  collects : int;
  growth_epochs : (int * float) list;
      (* (epoch, cumulative mainchain tx bytes) at each epoch start plus a
         closing entry after the drain — the real counterfactual series the
         run-report plots against the ammBoost growth ledger *)
}

let op_of_tx tx = Tx.op_of_payload tx.Tx.payload

let unlimited = U256.of_string "1000000000000000000000000000000000000" (* 1e36 *)

let run cfg =
  let rng_root = Rng.create (cfg.Config.seed ^ "/baseline") in
  let users = Party.make_users (Rng.split rng_root "users") ~count:cfg.Config.users
      ~lp_fraction:Config.lp_fraction in
  let traffic = Traffic.create ~rng:(Rng.split rng_root "traffic") ~cfg ~users in
  let eth = Eth.create ~interval:Config.mc_block_interval
      ~gas_limit:cfg.Config.mc_gas_limit ~rng:(Rng.split rng_root "net") () in
  let token0 = Chain.Token.make ~id:0 ~symbol:"TKA" in
  let token1 = Chain.Token.make ~id:1 ~symbol:"TKB" in
  let pool =
    Uniswap.Pool.create ~pool_id:0 ~token0 ~token1 ~fee_pips:Config.fee_pips
      ~tick_spacing:Config.tick_spacing ~sqrt_price:Amm_math.Q96.q96
  in
  (* Seed liquidity (the V3Factory deployment plus initial LP position). *)
  let genesis = U256.of_string "1000000000000000000000000" in
  (match
     Uniswap.Router.mint pool
       ~position_id:(Chain.Ids.Position_id.of_hash (Amm_crypto.Sha256.digest_string "genesis"))
       ~owner:users.(0).Party.address ~lower_tick:(-887220) ~upper_tick:887220
       ~amount0_desired:genesis ~amount1_desired:genesis
   with
  | Ok _ -> ()
  | Error e -> failwith ("Baseline: genesis mint failed: " ^ e));
  (* Reuse the sidechain processor as the execution engine with unlimited
     deposits: identical AMM semantics, no deposit constraint (baseline
     users pay from their wallets). *)
  let snapshot =
    { Tokenbank.Token_bank.snap_epoch = 0;
      snap_deposits =
        Array.to_list
          (Array.map (fun u -> (u.Party.address, (unlimited, unlimited))) users);
      snap_pool_balances = [ (0, (Uniswap.Pool.balance0 pool, Uniswap.Pool.balance1 pool)) ];
      snap_positions = [] }
  in
  let processor =
    Sidechain.Processor.begin_epoch ~pool ~snapshot
      ~verify_signatures:cfg.Config.verify_signatures ()
  in
  let executed = ref 0 and rejected = ref 0 in
  let ethereum_bytes = ref 0 in
  let growth_epochs = ref [] in
  let chain_bytes () =
    float_of_int
      (List.fold_left (fun acc (_, b) -> acc + b) 0 (Eth.bytes_by_label eth))
  in
  let b_t = cfg.Config.sc_round_duration in
  let spr = cfg.Config.sc_rounds_per_epoch in
  let rounds = cfg.Config.epochs * spr in
  for round = 0 to rounds - 1 do
    let t_round = float_of_int round *. b_t in
    Eth.advance_to eth t_round;
    if round mod spr = 0 then
      growth_epochs := (round / spr, chain_bytes ()) :: !growth_epochs;
    ignore
      (Traffic.iter_round traffic ~round ~time:t_round (fun tx ->
        let op = op_of_tx tx in
        ethereum_bytes := !ethereum_bytes + Encoding.ethereum_op_size op;
        Eth.submit eth ~at:t_round
          { Eth.label = Tx.type_name tx.Tx.payload;
            size_bytes = Encoding.sepolia_op_size op;
            gas = Gas_model.op_gas op;
            flow_txs = Gas_model.flow_txs_of_op op;
            tag = None;
            execute =
              Some
                (fun _h ->
                  match
                    Sidechain.Processor.process processor ~current_round:round tx
                  with
                  | Ok () -> incr executed
                  | Error _ -> incr rejected) }))
  done;
  (* Drain the pending pool (gas-limit congestion can leave a backlog). *)
  let horizon = ref (float_of_int rounds *. b_t) in
  while Eth.pending_count eth > 0 && !horizon < 1e7 do
    horizon := !horizon +. (10.0 *. Config.mc_block_interval);
    Eth.advance_to eth !horizon
  done;
  growth_epochs := (cfg.Config.epochs, chain_bytes ()) :: !growth_epochs;
  let stats = Sidechain.Processor.stats processor in
  let gas_by_op = Eth.gas_used_by_label eth in
  let latency_by_op =
    List.filter_map
      (fun (label, _) ->
        Option.map (fun v -> (label, v)) (Eth.mean_latency eth label))
      gas_by_op
  in
  { cfg;
    generated = Traffic.generated traffic;
    executed = !executed;
    rejected = !rejected;
    gas_total = Eth.gas_used_total eth;
    gas_by_op;
    mc_tx_bytes =
      List.fold_left (fun acc (_, b) -> acc + b) 0 (Eth.bytes_by_label eth);
    mc_tx_bytes_ethereum = !ethereum_bytes;
    latency_by_op;
    throughput = float_of_int !executed /. Config.generation_duration cfg;
    swaps = stats.Sidechain.Processor.swaps;
    mints = stats.Sidechain.Processor.mints;
    burns = stats.Sidechain.Processor.burns;
    collects = stats.Sidechain.Processor.collects;
    growth_epochs = List.rev !growth_epochs }
