type params = {
  mean_delay : float;
  bandwidth_bytes : float;
}

let consensus_latency p ~committee_size ~block_bytes =
  (* Leader serializes the block to the committee (tree/gossip dissemination
     costs ~2 link transmissions), then two vote rounds of small messages.
     Vote aggregation is BLS CoSi, so votes are constant-size. *)
  let push = 2.0 *. float_of_int block_bytes /. p.bandwidth_bytes in
  let vote_rounds = 3.0 *. p.mean_delay in
  (* Quorum waits for the slower fraction of the committee: scale delay by
     log of the committee size (gossip depth). *)
  let fanout_penalty = log (float_of_int (Stdlib.max 2 committee_size)) /. log 16.0 in
  push +. (vote_rounds *. fanout_penalty)

let view_change_latency p ~committee_size ~timeout =
  timeout +. consensus_latency p ~committee_size ~block_bytes:1024

let fits_in_round p ~committee_size ~block_bytes ~round_duration =
  consensus_latency p ~committee_size ~block_bytes < round_duration
