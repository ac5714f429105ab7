module Rng = Amm_crypto.Rng
module Log = Telemetry.Log

let scope = "eth"

type tx_spec = {
  label : string;
  size_bytes : int;
  gas : int;
  flow_txs : int;
  tag : string option;
  execute : (int -> unit) option;
}

type pending = {
  spec : tx_spec;
  submitted_at : float;
  ready_at : float;
  seq : int;  (* submission order; breaks ready_at ties *)
}

(* A mined block keeps its transactions' tags (what a rollback reports),
   not one record per transaction: sizes, gas and latencies are folded
   into the per-label tallies as the block is mined. *)
type block = {
  b_tags : string list;  (* inclusion order *)
  b_gas_used : int;
  b_size : int;
}

let block_tx_tags b = b.b_tags

(* Per-label inclusion tally: only ever read as a mean and a count. *)
type tally = { mutable n : int; mutable latency_sum : float }

type t = {
  intervl : float;
  mutable gas_limit : int;
  header_size : int;
  rng : Rng.t;
  mutable heap : pending array; (* binary min-heap by (ready_at, seq) *)
  mutable heap_len : int;
  mutable seq_counter : int;
  ledger : block Chain.Ledger.t;
  mutable next_block_time : float;
  mutable current_time : float;
  gas_by_label : (string, int) Hashtbl.t;
  bytes_by_label : (string, int) Hashtbl.t;
  latencies : (string, tally) Hashtbl.t;
  mutable included_tags : string list;
}

(* Propagation/queueing offset before a broadcast transaction can appear
   in a block, in block-interval units; one leg ≈ 1.1 blocks on average. *)
let propagation_fraction = 0.6

let create ?(interval = 12.0) ?(gas_limit = 30_000_000) ?(header_size = 508)
    ?(k_depth = 1) ~rng () =
  let genesis =
    { b_tags = []; b_gas_used = 0; b_size = header_size }
  in
  { intervl = interval; gas_limit; header_size; rng;
    heap = [||]; heap_len = 0; seq_counter = 0;
    ledger = Chain.Ledger.create ~genesis ~size:(fun b -> b.b_size) ~k_depth;
    next_block_time = interval; current_time = 0.0;
    gas_by_label = Hashtbl.create 16; bytes_by_label = Hashtbl.create 16;
    latencies = Hashtbl.create 16; included_tags = [] }

let interval t = t.intervl
let gas_limit t = t.gas_limit

(* Congestion windows (fault injection) shrink the limit temporarily;
   a limit below the largest single transaction would wedge the queue. *)
let set_gas_limit t limit =
  if limit <= 0 then invalid_arg "Eth.set_gas_limit: limit must be positive";
  t.gas_limit <- limit

let now t = t.current_time
let height t = Chain.Ledger.height t.ledger
let confirmed_height t = Chain.Ledger.confirmed_height t.ledger

let leg_time t = (propagation_fraction +. Rng.float t.rng) *. t.intervl

(* The pending pool is a binary min-heap in (ready_at, submission seq)
   order — exactly the order the old sorted list maintained, but O(log n)
   per submission instead of O(n), which matters when a single epoch
   floods the queue with tens of thousands of deposits. *)
let heap_less a b =
  a.ready_at < b.ready_at || (a.ready_at = b.ready_at && a.seq < b.seq)

(* Fills every slot outside [0, heap_len): a mined transaction's slot
   must not keep its [execute] closure, and what that captures, alive. *)
let vacant =
  { spec = { label = ""; size_bytes = 0; gas = 0; flow_txs = 0; tag = None;
             execute = None };
    submitted_at = 0.0; ready_at = 0.0; seq = -1 }

let heap_push t p =
  if t.heap_len = Array.length t.heap then begin
    let h = Array.make (Stdlib.max 16 (2 * Array.length t.heap)) vacant in
    Array.blit t.heap 0 h 0 t.heap_len;
    t.heap <- h
  end;
  t.heap.(t.heap_len) <- p;
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    heap_less t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let heap_peek t = if t.heap_len = 0 then None else Some t.heap.(0)

let heap_pop t =
  let root = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap.(0) <- t.heap.(t.heap_len);
  t.heap.(t.heap_len) <- vacant;
  let i = ref 0 and sifting = ref (t.heap_len > 1) in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_len && heap_less t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.heap_len && heap_less t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest = !i then sifting := false
    else begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
  done;
  root

let submit t ~at spec =
  (* Prerequisite flow legs run sequentially; the final leg's propagation
     offset is added here, its block wait comes from mining below. *)
  let prereq = Stdlib.max 0 (spec.flow_txs - 1) in
  let ready = ref (at +. (propagation_fraction *. t.intervl)) in
  for _ = 1 to prereq do
    ready := !ready +. leg_time t
  done;
  let p = { spec; submitted_at = at; ready_at = !ready; seq = t.seq_counter } in
  t.seq_counter <- t.seq_counter + 1;
  heap_push t p

let bump tbl key v =
  Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let record_latency t label v =
  match Hashtbl.find_opt t.latencies label with
  | Some l ->
    l.n <- l.n + 1;
    l.latency_sum <- l.latency_sum +. v
  | None -> Hashtbl.add t.latencies label { n = 1; latency_sum = v }

let mine_block t =
  let time = t.next_block_time in
  (* Executed callbacks observe the block's timestamp through [now]. *)
  if time > t.current_time then t.current_time <- time;
  let gas_used = ref 0 and size = ref t.header_size and n_txs = ref 0 in
  let tags = ref [] and labels = ref [] in
  let debug = Log.enabled Log.Debug in
  (* Drain in readiness order, stopping at the first transaction that is
     not ready or does not fit — head-of-line semantics, as before. *)
  let taking = ref true in
  while !taking do
    match heap_peek t with
    | Some p when p.ready_at <= time && !gas_used + p.spec.gas <= t.gas_limit ->
      ignore (heap_pop t);
      gas_used := !gas_used + p.spec.gas;
      let height = Chain.Ledger.height t.ledger + 1 in
      (match p.spec.execute with Some f -> f height | None -> ());
      let latency = time -. p.submitted_at in
      bump t.gas_by_label p.spec.label p.spec.gas;
      bump t.bytes_by_label p.spec.label p.spec.size_bytes;
      record_latency t p.spec.label latency;
      (match p.spec.tag with
       | Some tag ->
         t.included_tags <- tag :: t.included_tags;
         tags := tag :: !tags
       | None -> ());
      size := !size + p.spec.size_bytes;
      incr n_txs;
      if debug then labels := p.spec.label :: !labels
    | Some _ | None -> taking := false
  done;
  let height = Chain.Ledger.height t.ledger + 1 in
  Chain.Ledger.append t.ledger
    { b_tags = List.rev !tags; b_gas_used = !gas_used; b_size = !size };
  (* Joining every label is O(txs) per block: only pay for it when the
     debug level is on. *)
  if !n_txs > 0 && debug then
    Log.debug ~scope ~t:time
      ~fields:
        [ ("height", Telemetry.Json.Int height);
          ("txs", Telemetry.Json.Int !n_txs);
          ("gas", Telemetry.Json.Int !gas_used);
          ("bytes", Telemetry.Json.Int !size);
          ("labels", Telemetry.Json.String (String.concat "," (List.rev !labels))) ]
      "block mined";
  t.next_block_time <- time +. t.intervl

let advance_to t time =
  while t.next_block_time <= time do
    mine_block t
  done;
  t.current_time <- time

let block_at t height = Chain.Ledger.nth t.ledger height

let is_tag_included t tag = List.mem tag t.included_tags

let rollback t n =
  let dropped = Chain.Ledger.rollback t.ledger n in
  let tags = List.concat_map block_tx_tags dropped in
  Log.warn ~scope ~t:t.current_time
    ~fields:
      [ ("blocks", Telemetry.Json.Int (List.length dropped));
        ("new_height", Telemetry.Json.Int (Chain.Ledger.height t.ledger));
        ("dropped_tags", Telemetry.Json.String (String.concat "," tags)) ]
    "fork: mainchain rollback abandoned blocks";
  t.included_tags <- List.filter (fun tag -> not (List.mem tag tags)) t.included_tags;
  tags

let cumulative_bytes t = Chain.Ledger.cumulative_bytes t.ledger
let gas_used_total t = Hashtbl.fold (fun _ v acc -> acc + v) t.gas_by_label 0

let assoc_of_tbl tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let gas_used_by_label t = assoc_of_tbl t.gas_by_label
let bytes_by_label t = assoc_of_tbl t.bytes_by_label

let mean_latency t label =
  Option.map
    (fun l -> l.latency_sum /. float_of_int l.n)
    (Hashtbl.find_opt t.latencies label)

let included_count ?label t =
  match label with
  | Some l -> Option.fold ~none:0 ~some:(fun l -> l.n) (Hashtbl.find_opt t.latencies l)
  | None -> Hashtbl.fold (fun _ l acc -> acc + l.n) t.latencies 0
let pending_count t = t.heap_len
