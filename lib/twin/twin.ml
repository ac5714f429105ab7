module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Erc20 = Mainchain.Erc20
module Token_bank = Tokenbank.Token_bank
module Pos_store = Tokenbank.Pos_store
module Sync_payload = Tokenbank.Sync_payload
module Bls = Amm_crypto.Bls
module State_codec = Durable.State_codec

(* ------------------------------------------------------------------ *)
(* Keys and layers                                                     *)
(* ------------------------------------------------------------------ *)

type key =
  | Dep_row of Address.t
  | Pool_pos of Position_id.t
  | Pool_tick of int
  | Pool_scalars
  | Bank_meta
  | Bank_pos of Position_id.t

type layer = Deposits_layer | Pool_layer | Bank_layer

let layer_of_key = function
  | Dep_row _ -> Deposits_layer
  | Pool_pos _ | Pool_tick _ | Pool_scalars -> Pool_layer
  | Bank_meta | Bank_pos _ -> Bank_layer

let layer_to_string = function
  | Deposits_layer -> "deposits"
  | Pool_layer -> "pool"
  | Bank_layer -> "bank"

let key_to_string = function
  | Dep_row a -> "dep:" ^ Address.to_hex a
  | Pool_pos p -> "pos:" ^ Position_id.to_hex p
  | Pool_tick t -> "tick:" ^ string_of_int t
  | Pool_scalars -> "pool.scalars"
  | Bank_meta -> "bank.meta"
  | Bank_pos p -> "bank.pos:" ^ Position_id.to_hex p

(* Total order: layer tag first, then the inner key — gives the audit a
   deterministic report order without depending on map internals. *)
let key_rank = function
  | Dep_row _ -> 0
  | Pool_pos _ -> 1
  | Pool_tick _ -> 2
  | Pool_scalars -> 3
  | Bank_meta -> 4
  | Bank_pos _ -> 5

let compare_key a b =
  match (a, b) with
  | Dep_row x, Dep_row y -> Address.compare x y
  | Pool_pos x, Pool_pos y -> Position_id.compare x y
  | Pool_tick x, Pool_tick y -> compare x y
  | Bank_pos x, Bank_pos y -> Position_id.compare x y
  | Pool_scalars, Pool_scalars | Bank_meta, Bank_meta -> 0
  | _ -> compare (key_rank a) (key_rank b)

module Kmap = Map.Make (struct
  type t = key

  let compare = compare_key
end)

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type op = { op_index : int; op_label : string; op_writes : (key * bytes option) list }

type snapshot = {
  snap_epoch : int;
  snap_deps : bytes Kmap.t;  (* the epoch's Dep_row images *)
  snap_pool : bytes Kmap.t;  (* Pool_* images *)
  snap_bank : bytes Kmap.t;  (* Bank_* images *)
  snap_custody : U256.t * U256.t;
}

type t = {
  seed : string;
  replica : Token_bank.t;
  erc0 : Erc20.t;
  erc1 : Erc20.t;
  funded : (Address.t, unit) Hashtbl.t;
  (* Shadow state: one persistent map per layer. A reorg rewinds the bank
     map in O(1) without touching sidechain after-images (a mainchain
     fork never unwinds sidechain state); a seal drops the epoch-local
     deposit rows in O(1), so sealed snapshots share the pool map. Only
     present keys are stored; a deleted/absent key is simply missing. *)
  mutable deps : bytes Kmap.t;
  mutable pool : bytes Kmap.t;
  mutable bank : bytes Kmap.t;
  (* The op log: growable vector, indices are global and never reused.
     [ops.(0)] holds op [ops_base]; ops below it were released (see
     {!release}). [window_base] marks the first op of the open window. *)
  mutable ops : op array;
  mutable ops_base : int;
  mutable op_len : int;
  mutable window_base : int;
  (* Replica rejections that the live bank did not report — each is a
     divergence surfaced at the next audit. *)
  mutable rejected : (int * string * string) list;  (* op index, label, error *)
  mutable history : snapshot list;  (* newest first, at most [retained_epochs] *)
}

(* Sealed snapshots kept for time travel. A twin-audit cell seals at most
   seven epochs and its view probe reads every one of them. *)
let retained_epochs = 8

let faucet = U256.of_string "1000000000000000000000000000000"

let create ~seed ~genesis_committee_vk ~flash_fee_pips =
  let token0 = Chain.Token.make ~id:0 ~symbol:"TKA" in
  let token1 = Chain.Token.make ~id:1 ~symbol:"TKB" in
  let erc0 = Erc20.deploy token0 and erc1 = Erc20.deploy token1 in
  let replica = Token_bank.deploy ~token0:erc0 ~token1:erc1 ~genesis_committee_vk in
  ignore (Token_bank.create_pool replica ~flash_fee_pips);
  let t =
    { seed; replica; erc0; erc1; funded = Hashtbl.create 64;
      deps = Kmap.empty; pool = Kmap.empty; bank = Kmap.empty;
      ops = [||]; ops_base = 0; op_len = 0; window_base = 0;
      rejected = []; history = [] }
  in
  t.bank <- Kmap.add Bank_meta (State_codec.bank_meta_bytes replica) t.bank;
  t

let op_count t = t.op_len
let ops_retained t = t.op_len - t.ops_base
let op t i = t.ops.(i - t.ops_base)

(* Fills vacated op slots, so a released op is garbage at once. *)
let no_op = { op_index = -1; op_label = ""; op_writes = [] }

let push_op t op =
  let n = ops_retained t in
  if n = Array.length t.ops then begin
    let grown = Array.make (Stdlib.max 64 (2 * n)) no_op in
    Array.blit t.ops 0 grown 0 n;
    t.ops <- grown
  end;
  t.ops.(n) <- op;
  t.op_len <- t.op_len + 1

let apply_writes t writes =
  List.iter
    (fun (k, image) ->
      match (layer_of_key k, image) with
      (* A [None] Bank_meta image is a lazy marker, not a deletion: bank
         ops on the hot path only assert "this op wrote the meta section"
         for bisection; the actual bytes are materialized from the
         replica once per audit instead of once per deposit. *)
      | Bank_layer, None when compare_key k Bank_meta = 0 -> ()
      | Bank_layer, Some b -> t.bank <- Kmap.add k b t.bank
      | Bank_layer, None -> t.bank <- Kmap.remove k t.bank
      | Pool_layer, Some b -> t.pool <- Kmap.add k b t.pool
      | Pool_layer, None -> t.pool <- Kmap.remove k t.pool
      | Deposits_layer, Some b -> t.deps <- Kmap.add k b t.deps
      | Deposits_layer, None -> t.deps <- Kmap.remove k t.deps)
    writes

let record t ~label writes =
  let op = { op_index = t.op_len; op_label = label; op_writes = writes } in
  push_op t op;
  apply_writes t writes

(* ------------------------------------------------------------------ *)
(* Bank ops: apply to the replica, capture after-images from it        *)
(* ------------------------------------------------------------------ *)

let ensure_funded t user =
  if not (Hashtbl.mem t.funded user) then begin
    Hashtbl.replace t.funded user ();
    Erc20.mint t.erc0 user faucet;
    Erc20.mint t.erc1 user faucet;
    Erc20.approve t.erc0 ~owner:user ~spender:(Token_bank.address t.replica)
      U256.max_value;
    Erc20.approve t.erc1 ~owner:user ~spender:(Token_bank.address t.replica)
      U256.max_value
  end

let bank_pos_image t pid = Pos_store.row_image (Token_bank.positions_store t.replica) pid

let record_bank t ~label ~pos_ids outcome =
  (* Lazy meta: the op lists Bank_meta as written (bisection needs the
     key), but serializing the section per op would make every deposit
     pay an O(meta) encode — {!audit} materializes it once per epoch. *)
  let writes =
    (Bank_meta, None)
    :: List.map (fun pid -> (Bank_pos pid, bank_pos_image t pid)) pos_ids
  in
  let op = { op_index = t.op_len; op_label = label; op_writes = writes } in
  push_op t op;
  apply_writes t writes;
  match outcome with
  | Ok () -> ()
  | Error e -> t.rejected <- (op.op_index, label, e) :: t.rejected

let payload_pos_ids signed =
  List.concat_map
    (fun (p, _) ->
      List.map
        (fun (e : Sync_payload.position_entry) -> e.Sync_payload.pos_id)
        p.Sync_payload.positions)
    signed
  |> List.sort_uniq Position_id.compare

let apply t (op : Durable.Record.op) =
  let rejected = function
    | Ok _ -> Ok ()
    | Error rej -> Error (Token_bank.rejection_to_string rej)
  in
  match op with
  | Durable.Record.Deposit { user; for_epoch; amount0; amount1 } ->
    ensure_funded t user;
    record_bank t ~label:"bank.deposit" ~pos_ids:[]
      (Token_bank.deposit t.replica ~user ~for_epoch ~amount0 ~amount1)
  | Sync signed ->
    (* The live bank already verified these signatures before the payloads
       reached us; the replica re-derives state, not crypto acceptance. *)
    record_bank t ~label:"bank.sync" ~pos_ids:(payload_pos_ids signed)
      (rejected (Token_bank.sync ~check_signatures:false t.replica ~signed))
  | Halt { epoch } ->
    record_bank t ~label:"bank.halt" ~pos_ids:[]
      (rejected (Token_bank.halt t.replica ~epoch))
  | Exit { claimant } ->
    (* The exit closes the claimant's synced positions: capture those ids
       before the op so their (now absent-or-rewritten) rows land in the
       write set. *)
    let owned =
      List.filter_map
        (fun (e : Sync_payload.position_entry) ->
          if Address.equal e.Sync_payload.owner claimant then Some e.Sync_payload.pos_id
          else None)
        (Token_bank.positions t.replica)
    in
    record_bank t ~label:"bank.exit" ~pos_ids:(List.sort_uniq Position_id.compare owned)
      (rejected (Token_bank.emergency_exit t.replica ~claimant))
  | Reconcile signed ->
    record_bank t ~label:"bank.reconcile" ~pos_ids:(payload_pos_ids signed)
      (rejected (Token_bank.reconcile t.replica ~signed))

(* ------------------------------------------------------------------ *)
(* Reorg symmetry                                                      *)
(* ------------------------------------------------------------------ *)

type checkpoint = {
  ck_bank : Token_bank.checkpoint;
  ck_map : bytes Kmap.t;
  ck_ops : int;
}

let checkpoint t = { ck_bank = Token_bank.checkpoint t.replica; ck_map = t.bank; ck_ops = t.op_len }

let restore t ck =
  Token_bank.restore t.replica ck.ck_bank;
  (* Re-state the post-restore image of every bank key written since the
     checkpoint as a synthetic op, so last-writer bisection over the
     window points at the rollback, not at an undone sync. *)
  let touched = ref [] in
  for i = ck.ck_ops to t.op_len - 1 do
    List.iter
      (fun (k, _) ->
        match layer_of_key k with
        | Bank_layer -> if not (List.mem k !touched) then touched := k :: !touched
        | _ -> ())
      (op t i).op_writes
  done;
  t.bank <- ck.ck_map;
  t.rejected <- List.filter (fun (i, _, _) -> i < ck.ck_ops) t.rejected;
  let writes =
    List.map
      (fun k ->
        match k with
        | Bank_meta -> (k, Some (State_codec.bank_meta_bytes t.replica))
        | Bank_pos pid -> (k, bank_pos_image t pid)
        | _ -> assert false)
      (List.sort compare_key !touched)
  in
  if writes <> [] then record t ~label:"bank.rollback" writes

(* A released checkpoint is never restored, and the live ones are all
   younger, so no {!restore} reads below [ck_ops]; bisection never reads
   below the open window. Ops below both are dropped. *)
let release t ck =
  Token_bank.release_checkpoint t.replica ck.ck_bank;
  let cut = Stdlib.min ck.ck_ops t.window_base in
  if cut > t.ops_base then begin
    let keep = t.op_len - cut in
    Array.blit t.ops (cut - t.ops_base) t.ops 0 keep;
    Array.fill t.ops keep (ops_retained t - keep) no_op;
    t.ops_base <- cut;
    t.rejected <- List.filter (fun (i, _, _) -> i >= cut) t.rejected
  end

(* ------------------------------------------------------------------ *)
(* The audit                                                           *)
(* ------------------------------------------------------------------ *)

type live = {
  live_dep : Address.t -> bytes option;
  live_dep_dirty : unit -> Address.t list;
  live_pool_pos : Position_id.t -> bytes option;
  live_pool_tick : int -> bytes option;
  live_pool_writes : unit -> Position_id.t list * int list;
  live_pool_scalars : unit -> bytes;
  live_bank_meta : unit -> bytes;
  live_bank_pos : Position_id.t -> bytes option;
  live_bank_dirty : unit -> Position_id.t list;
}

type report = {
  r_epoch : int;
  r_seed : string;
  r_key : key;
  r_layer : layer;
  r_expected : bytes option;
  r_actual : bytes option;
  r_culprit : (int * string) option;
  r_window_ops : int;
}

let hex_prefix = function
  | None -> "absent"
  | Some b ->
    let n = Stdlib.min 8 (Bytes.length b) in
    let out = Buffer.create (2 * n) in
    for i = 0 to n - 1 do
      Buffer.add_string out (Printf.sprintf "%02x" (Char.code (Bytes.get b i)))
    done;
    Printf.sprintf "%d:%s" (Bytes.length b) (Buffer.contents out)

let report_to_string r =
  Printf.sprintf "epoch=%d layer=%s key=%s culprit=%s expected=%s actual=%s window=%d"
    r.r_epoch
    (layer_to_string r.r_layer)
    (key_to_string r.r_key)
    (match r.r_culprit with
    | Some (i, l) -> Printf.sprintf "op[%d]:%s" i l
    | None -> "out-of-band")
    (hex_prefix r.r_expected) (hex_prefix r.r_actual) r.r_window_ops

(* A deposit row that exists on only one side compares as all-zeroes:
   the live table auto-allocates zeroed rows on pure reads (no op ever
   wrote them), and the twin drops the epoch-local rows at each seal. *)
let dep_zero = Bytes.make 192 '\000'

let bytes_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Bytes.equal x y
  | _ -> false

(* Last window op that wrote [k], scanning the window newest-first. *)
let bisect t k =
  let rec go i =
    if i < t.window_base then None
    else
      let op = op t i in
      if List.exists (fun (k', _) -> compare_key k k' = 0) op.op_writes then
        Some (op.op_index, op.op_label)
      else go (i - 1)
  in
  go (t.op_len - 1)

let audit t ~epoch live =
  (* Materialize the lazily-tracked meta section (see {!record_bank})
     before anything reads [t.bank]: the audit's expected value, the
     sealed snapshot and any checkpoint taken after this point all see
     the replica's current bytes. *)
  t.bank <- Kmap.add Bank_meta (State_codec.bank_meta_bytes t.replica) t.bank;
  let window_ops = t.op_len - t.window_base in
  (* Compare set: every key written in the window by an op, plus every
     key the live side marked written (silent corruption only appears
     there), plus the two always-on scalar sections. *)
  let keys = ref Kmap.empty in
  let add k = keys := Kmap.add k () !keys in
  for i = t.window_base to t.op_len - 1 do
    List.iter (fun (k, _) -> add k) (op t i).op_writes
  done;
  List.iter (fun u -> add (Dep_row u)) (live.live_dep_dirty ());
  let wpos, wticks = live.live_pool_writes () in
  List.iter (fun p -> add (Pool_pos p)) wpos;
  List.iter (fun tk -> add (Pool_tick tk)) wticks;
  List.iter (fun pid -> add (Bank_pos pid)) (live.live_bank_dirty ());
  add Pool_scalars;
  add Bank_meta;
  let expected k =
    match k with
    | Dep_row _ -> Some (Option.value ~default:dep_zero (Kmap.find_opt k t.deps))
    | Pool_pos _ | Pool_tick _ | Pool_scalars -> Kmap.find_opt k t.pool
    | Bank_meta | Bank_pos _ -> Kmap.find_opt k t.bank
  in
  let actual k =
    match k with
    | Dep_row u -> Some (Option.value ~default:dep_zero (live.live_dep u))
    | Pool_pos p -> live.live_pool_pos p
    | Pool_tick tk -> live.live_pool_tick tk
    | Pool_scalars -> Some (live.live_pool_scalars ())
    | Bank_meta -> Some (live.live_bank_meta ())
    | Bank_pos p -> live.live_bank_pos p
  in
  let reports = ref [] in
  Kmap.iter
    (fun k () ->
      let e = expected k and a = actual k in
      if not (bytes_opt_equal e a) then
        reports :=
          { r_epoch = epoch; r_seed = t.seed; r_key = k; r_layer = layer_of_key k;
            r_expected = e; r_actual = a; r_culprit = bisect t k;
            r_window_ops = window_ops }
          :: !reports)
    !keys;
  (* Replica rejections the live bank accepted: bank-layer divergence
     even when the meta bytes happen to agree. *)
  List.iter
    (fun (idx, label, err) ->
      if idx >= t.window_base then
        reports :=
          { r_epoch = epoch; r_seed = t.seed; r_key = Bank_meta; r_layer = Bank_layer;
            r_expected = None;
            r_actual = Some (Bytes.of_string ("replica rejected: " ^ err));
            r_culprit = Some (idx, label); r_window_ops = window_ops }
          :: !reports)
    t.rejected;
  let reports =
    List.sort
      (fun a b ->
        match compare (layer_of_key b.r_key) (layer_of_key a.r_key) with
        | 0 -> compare_key a.r_key b.r_key
        | c -> c)
      !reports
  in
  (* Seal the epoch: snapshot (O(1) on persistent maps), open a fresh
     window, drop the epoch-local deposit rows — the live table is
     rebuilt from the bank snapshot at the next epoch start. *)
  t.history <-
    List.filteri
      (fun i _ -> i < retained_epochs)
      ({ snap_epoch = epoch; snap_deps = t.deps; snap_pool = t.pool; snap_bank = t.bank;
         snap_custody = Token_bank.total_custody t.replica }
      :: t.history);
  (* Compact the sealed window: bisection never looks behind
     [window_base] again, and {!restore} only needs Bank_layer keys, so
     sealed ops shed their pool/deposit payloads until {!release} drops
     them. *)
  for i = t.window_base to t.op_len - 1 do
    let o = op t i in
    let bank_writes =
      List.filter (fun (k, _) -> layer_of_key k = Bank_layer) o.op_writes
    in
    if List.length bank_writes < List.length o.op_writes then
      t.ops.(i - t.ops_base) <- { o with op_writes = bank_writes }
  done;
  t.window_base <- t.op_len;
  t.deps <- Kmap.empty;
  reports

(* ------------------------------------------------------------------ *)
(* Time travel                                                         *)
(* ------------------------------------------------------------------ *)

type view = snapshot list

let view t = t.history

let find_snap v epoch = List.find_opt (fun s -> s.snap_epoch = epoch) v

let custody_at v ~epoch =
  Option.map (fun s -> s.snap_custody) (find_snap v epoch)

let read_at v ~epoch k =
  match find_snap v epoch with
  | None -> None
  | Some s -> (
    match layer_of_key k with
    | Bank_layer -> Kmap.find_opt k s.snap_bank
    | Pool_layer -> Kmap.find_opt k s.snap_pool
    | Deposits_layer -> Kmap.find_opt k s.snap_deps)

let epochs_sealed v = List.sort compare (List.map (fun s -> s.snap_epoch) v)
