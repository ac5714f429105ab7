module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Encoding = Chain.Encoding

type user_entry = {
  user : Address.t;
  payin0 : U256.t;
  payin1 : U256.t;
  payout0 : U256.t;
  payout1 : U256.t;
}

type position_entry = {
  pos_id : Position_id.t;
  owner : Address.t;
  lower_tick : int;
  upper_tick : int;
  liquidity : U256.t;
  amount0 : U256.t;
  amount1 : U256.t;
  fees0 : U256.t;
  fees1 : U256.t;
  deleted : bool;
}

type t = {
  epoch : int;
  pool : int;
  pool_balance0 : U256.t;
  pool_balance1 : U256.t;
  users : user_entry list;
  positions : position_entry list;
  next_committee_vk : Amm_crypto.Bls.public_key;
}

(* The calldata is written one piece at a time, each at offset 0 of a
   scratch buffer: the head, then each user entry, then each position
   entry. [abi_encode] copies the pieces out and [signing_bytes] hashes
   them, so both read the bytes these writers put down. *)

(* Selector, then 8 head words: epoch, pool, two balances, four array
   offsets and lengths; then the next committee's vk. *)
let abi_head_size = Encoding.selector_size + (8 * 32) + Amm_crypto.Bls.public_key_size

let write_head t dst =
  Bytes.fill dst 0 Encoding.selector_size '\xab';
  Encoding.write_int_word t.epoch dst 4;
  Encoding.write_int_word t.pool dst 36;
  Encoding.write_word t.pool_balance0 dst 68;
  Encoding.write_word t.pool_balance1 dst 100;
  Bytes.fill dst 132 (4 * 32) '\000' (* array offsets and lengths *);
  let vk = Amm_crypto.Bls.public_key_to_bytes t.next_committee_vk in
  Bytes.blit vk 0 dst 260 Amm_crypto.Bls.public_key_size

(* A user entry is 11 ABI words = 352 B: the user key padded to two words
   (as the paper submits full public keys), four amounts, a residual-refund
   marker, and per-entry dynamic-array bookkeeping. *)
let abi_user_entry_size = 352

let write_user_entry e dst =
  Encoding.write_address_word e.user dst 0;
  Bytes.fill dst 32 32 '\000' (* key high words *);
  Encoding.write_word e.payin0 dst 64;
  Encoding.write_word e.payin1 dst 96;
  Encoding.write_word e.payout0 dst 128;
  Encoding.write_word e.payout1 dst 160;
  Bytes.fill dst 192 (5 * 32) '\000' (* refund marker, offsets, reserved *)

(* A position entry is 13 ABI words = 416 B; ticks are two's-complement
   words. *)
let abi_position_entry_size = 416

let write_position_entry p dst =
  Position_id.write p.pos_id dst 0;
  Encoding.write_address_word p.owner dst 32;
  Bytes.fill dst 64 32 '\000';
  Encoding.write_int_word p.lower_tick dst 96;
  Encoding.write_int_word p.upper_tick dst 128;
  Encoding.write_word p.liquidity dst 160;
  Encoding.write_word p.amount0 dst 192;
  Encoding.write_word p.amount1 dst 224;
  Encoding.write_word p.fees0 dst 256;
  Encoding.write_word p.fees1 dst 288;
  Encoding.write_int_word (if p.deleted then 1 else 0) dst 320;
  Bytes.fill dst 352 (2 * 32) '\000' (* dynamic-array bookkeeping *)

(* Writes each piece into [scratch] and passes its length to [emit], which
   must consume it before the next piece overwrites it. *)
let iter_abi t scratch emit =
  write_head t scratch;
  emit abi_head_size;
  List.iter (fun e -> write_user_entry e scratch; emit abi_user_entry_size) t.users;
  List.iter
    (fun p -> write_position_entry p scratch; emit abi_position_entry_size)
    t.positions

let scratch_size =
  Stdlib.max abi_head_size (Stdlib.max abi_user_entry_size abi_position_entry_size)

(* Closed form of [Bytes.length (abi_encode t)] plus the signature: the
   calldata is ~5 MB at 10k users, and every sync prices it several
   times. *)
let abi_size t =
  abi_head_size
  + (abi_user_entry_size * List.length t.users)
  + (abi_position_entry_size * List.length t.positions)
  + Amm_crypto.Bls.signature_size

let abi_encode t =
  let buf = Buffer.create (abi_size t - Amm_crypto.Bls.signature_size) in
  let scratch = Bytes.create scratch_size in
  iter_abi t scratch (fun len -> Buffer.add_subbytes buf scratch 0 len);
  Buffer.to_bytes buf

(* [Sha256.digest (abi_encode t)], with the pieces fed to the context as
   they are written: three call sites hash each summary, and none of them
   builds its calldata. *)
let signing_bytes t =
  let ctx = Amm_crypto.Sha256.init () in
  let scratch = Bytes.create scratch_size in
  iter_abi t scratch (fun len -> Amm_crypto.Sha256.feed_sub ctx scratch 0 len);
  Amm_crypto.Sha256.finalize ctx

let storage_words t =
  (* Positions persist as 6 words each (192 B, Table 6); deleted entries
     free their slots instead. Pool balances: 2 words. Next vk: 4 words. *)
  let live = List.length (List.filter (fun p -> not p.deleted) t.positions) in
  (6 * live) + 2 + 4

(* ------------------------------------------------------------------ *)
(* Binary codec (durable WAL / snapshot window records)                *)
(* ------------------------------------------------------------------ *)

(* Unlike [abi_encode] (which models calldata and pads like the EVM),
   this is a compact, exact encoding: decode . encode = id, byte for
   byte, which is what the durability layer's checksummed records and
   the resume-time byte comparison rely on. *)

let add_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let add_u256 buf v = Buffer.add_bytes buf (U256.to_bytes_be v)

let add_user buf e =
  Buffer.add_bytes buf (Address.to_bytes e.user);
  add_u256 buf e.payin0;
  add_u256 buf e.payin1;
  add_u256 buf e.payout0;
  add_u256 buf e.payout1

let add_position buf p =
  Buffer.add_bytes buf (Position_id.to_bytes p.pos_id);
  Buffer.add_bytes buf (Address.to_bytes p.owner);
  add_i64 buf p.lower_tick;
  add_i64 buf p.upper_tick;
  add_u256 buf p.liquidity;
  add_u256 buf p.amount0;
  add_u256 buf p.amount1;
  add_u256 buf p.fees0;
  add_u256 buf p.fees1;
  Buffer.add_char buf (if p.deleted then '\001' else '\000')

let to_bytes t =
  let buf = Buffer.create 512 in
  add_i64 buf t.epoch;
  add_i64 buf t.pool;
  add_u256 buf t.pool_balance0;
  add_u256 buf t.pool_balance1;
  Buffer.add_bytes buf (Amm_crypto.Bls.public_key_to_bytes t.next_committee_vk);
  add_i64 buf (List.length t.users);
  List.iter (add_user buf) t.users;
  add_i64 buf (List.length t.positions);
  List.iter (add_position buf) t.positions;
  Buffer.to_bytes buf

exception Malformed of string

let of_bytes b =
  let len = Bytes.length b in
  let pos = ref 0 in
  let need n what =
    if !pos + n > len then
      raise (Malformed (Printf.sprintf "truncated at %s: need %d bytes at offset %d of %d"
                          what n !pos len))
  in
  let i64 what =
    need 8 what;
    let v = Int64.to_int (Bytes.get_int64_be b !pos) in
    pos := !pos + 8;
    v
  in
  let raw n what =
    need n what;
    let v = Bytes.sub b !pos n in
    pos := !pos + n;
    v
  in
  let u256 what = U256.of_bytes_be (raw 32 what) in
  let count what =
    let n = i64 what in
    if n < 0 || n > (len / 8) + 1 then
      raise (Malformed (Printf.sprintf "implausible %s count %d" what n));
    n
  in
  let user () =
    let user = Address.of_bytes (raw 20 "user") in
    let payin0 = u256 "payin0" in
    let payin1 = u256 "payin1" in
    let payout0 = u256 "payout0" in
    let payout1 = u256 "payout1" in
    { user; payin0; payin1; payout0; payout1 }
  in
  let position () =
    let pos_id = Position_id.of_hash (raw 32 "pos_id") in
    let owner = Address.of_bytes (raw 20 "owner") in
    let lower_tick = i64 "lower_tick" in
    let upper_tick = i64 "upper_tick" in
    let liquidity = u256 "liquidity" in
    let amount0 = u256 "amount0" in
    let amount1 = u256 "amount1" in
    let fees0 = u256 "fees0" in
    let fees1 = u256 "fees1" in
    let deleted =
      match Bytes.get (raw 1 "deleted") 0 with
      | '\000' -> false
      | '\001' -> true
      | c -> raise (Malformed (Printf.sprintf "bad deleted flag %d" (Char.code c)))
    in
    { pos_id; owner; lower_tick; upper_tick; liquidity; amount0; amount1;
      fees0; fees1; deleted }
  in
  match
    let epoch = i64 "epoch" in
    let pool = i64 "pool" in
    let pool_balance0 = u256 "pool_balance0" in
    let pool_balance1 = u256 "pool_balance1" in
    let next_committee_vk =
      Amm_crypto.Bls.public_key_of_bytes
        (raw Amm_crypto.Bls.public_key_size "next_committee_vk")
    in
    (* Explicit recursion: the cursor demands left-to-right evaluation,
       which [List.init] does not guarantee. *)
    let read_list n f =
      let rec go acc i = if i = n then List.rev acc else go (f () :: acc) (i + 1) in
      go [] 0
    in
    let users = read_list (count "users") user in
    let positions = read_list (count "positions") position in
    if !pos <> len then
      raise (Malformed (Printf.sprintf "trailing garbage: %d bytes" (len - !pos)));
    { epoch; pool; pool_balance0; pool_balance1; users; positions;
      next_committee_vk }
  with
  | t -> Ok t
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg
