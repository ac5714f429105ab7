(* Re-processes the meta-blocks' transactions (in block and intra-block
   order) on a clone of the epoch-start pool and returns the summary
   payload they induce. The input pool is not modified. Raises [Failure]
   when a block's transactions do not rebuild its [m_tx_root] or one of
   them does not execute. *)
let replay_epoch ~pool_at_start ~snapshot ~metas ~epoch ~next_committee_vk =
  let pool = Uniswap.Pool.clone pool_at_start in
  let processor =
    (* Auditors re-check signatures the committee already validated only
       when transactions carry them. *)
    Processor.begin_epoch ~pool ~snapshot ~verify_signatures:false ()
  in
  List.iter
    (fun ((meta : Blocks.meta), txs) ->
      (* Blocks store headers only: the body comes from the caller and
         must be the one the block committed to. *)
      if not (Bytes.equal (Blocks.tx_root txs) meta.Blocks.m_tx_root) then
        failwith
          (Printf.sprintf "Auditor: transactions do not match meta-block round %d"
             meta.Blocks.m_round);
      List.iter
        (fun tx ->
          match Processor.process processor ~current_round:meta.Blocks.m_round tx with
          | Ok () -> ()
          | Error e ->
            (* A transaction the committee included but that does not
               execute means the meta-block itself is invalid. *)
            failwith
              (Printf.sprintf "Auditor: invalid tx in meta-block round %d: %s"
                 meta.Blocks.m_round e))
        txs)
    metas;
  (* The audit derives the summary by the full O(positions) scan, not the
     committee's incremental builder: an independent path that also
     cross-checks the incremental change tracking in production. *)
  Processor.build_payload_reference processor ~epoch ~next_committee_vk

let verify_summary ~pool_at_start ~snapshot ~metas ~payload =
  match
    replay_epoch ~pool_at_start ~snapshot ~metas ~epoch:payload.Tokenbank.Sync_payload.epoch
      ~next_committee_vk:payload.Tokenbank.Sync_payload.next_committee_vk
  with
  | exception Failure e -> Error e
  | derived ->
    if
      Bytes.equal
        (Tokenbank.Sync_payload.signing_bytes derived)
        (Tokenbank.Sync_payload.signing_bytes payload)
    then Ok ()
    else Error "Auditor: summary does not match the meta-block replay"
