type meta = {
  m_epoch : int;
  m_round : int;
  m_tx_root : bytes;
  m_size : int;
  m_view_changes : int;
}

type summary = {
  s_epoch : int;
  s_size : int;
  s_rounds_covered : int * int;
}

type block =
  | Genesis of { mainchain_ref : bytes }
  | Meta of meta
  | Summary of summary

(* Parent hash, round/epoch numbers, transaction merkle root, the
   committee's aggregate commit signature. *)
let meta_header_size = 32 + 16 + 32 + 64 + 64

type t = { ledger : block Chain.Ledger.t }

let block_size = function
  | Genesis _ -> 128
  | Meta m -> m.m_size
  | Summary s -> s.s_size

let create ~mainchain_ref =
  { ledger =
      Chain.Ledger.create ~genesis:(Genesis { mainchain_ref }) ~size:block_size
        ~k_depth:0 }

let append_meta t m = Chain.Ledger.append t.ledger (Meta m)
let append_summary t s = Chain.Ledger.append t.ledger (Summary s)

let tx_leaves txs = List.map (fun tx -> Chain.Ids.Tx_id.to_bytes tx.Chain.Tx.id) txs

let tx_root txs = Amm_crypto.Merkle.root (Amm_crypto.Merkle.of_leaves (tx_leaves txs))

let make_meta ~epoch ~round ~view_changes txs =
  let tx_bytes = List.fold_left (fun acc tx -> acc + tx.Chain.Tx.wire_size) 0 txs in
  { m_epoch = epoch; m_round = round; m_tx_root = tx_root txs;
    m_size = meta_header_size + tx_bytes; m_view_changes = view_changes }

let prove_inclusion meta ~txs tx_id =
  let rec index i = function
    | [] -> None
    | tx :: rest ->
      if Chain.Ids.Tx_id.equal tx.Chain.Tx.id tx_id then Some i else index (i + 1) rest
  in
  match index 0 txs with
  | None -> None
  | Some i ->
    let tree = Amm_crypto.Merkle.of_leaves (tx_leaves txs) in
    if Bytes.equal (Amm_crypto.Merkle.root tree) meta.m_tx_root then
      Amm_crypto.Merkle.prove tree i
    else None

let verify_inclusion meta tx_id proof =
  Amm_crypto.Merkle.verify ~root:meta.m_tx_root ~leaf:(Chain.Ids.Tx_id.to_bytes tx_id) proof

let prune_epoch t ~epoch =
  Chain.Ledger.prune t.ledger ~keep:(function
    | Meta m -> m.m_epoch <> epoch
    | Genesis _ | Summary _ -> true)

let cumulative_bytes t = Chain.Ledger.cumulative_bytes t.ledger
let stored_bytes t = Chain.Ledger.stored_bytes t.ledger
let height t = Chain.Ledger.height t.ledger

let blocks_stored t =
  let acc = ref [] in
  Chain.Ledger.iter_stored t.ledger (fun _ b -> acc := b :: !acc);
  List.rev !acc

let summaries t =
  List.filter_map (function Summary s -> Some s | Genesis _ | Meta _ -> None)
    (blocks_stored t)

let meta_count_stored t =
  List.length
    (List.filter (function Meta _ -> true | Genesis _ | Summary _ -> false)
       (blocks_stored t))
