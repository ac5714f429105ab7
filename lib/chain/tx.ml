module U256 = Amm_math.U256

type swap_kind = Exact_input | Exact_output

type swap = {
  zero_for_one : bool;
  kind : swap_kind;
  amount_specified : U256.t;
  amount_limit : U256.t;
  sqrt_price_limit : U256.t;
  deadline : int;
}

type position_target =
  | New_position
  | Existing_position of Ids.Position_id.t

type mint = {
  lower_tick : int;
  upper_tick : int;
  amount0_desired : U256.t;
  amount1_desired : U256.t;
  target : position_target;
}

type burn = {
  burn_position : Ids.Position_id.t;
  amount0_requested : U256.t;
  amount1_requested : U256.t;
}

type collect = {
  collect_position : Ids.Position_id.t;
  fees0_requested : U256.t;
  fees1_requested : U256.t;
}

type payload =
  | Swap of swap
  | Mint of mint
  | Burn of burn
  | Collect of collect

type t = {
  id : Ids.Tx_id.t;
  issuer : Address.t;
  issuer_pk : Amm_crypto.Bls.public_key;
  pool : int;
  payload : payload;
  issued_round : int;
  issued_at : float;
  signature : Amm_crypto.Bls.signature option;
  wire_size : int;
}

let op_of_payload = function
  | Swap _ -> Encoding.Op_swap
  | Mint _ -> Encoding.Op_mint
  | Burn _ -> Encoding.Op_burn
  | Collect _ -> Encoding.Op_collect

(* Swap and mint carry 7 field words, burn and collect 5. *)
let max_fields_bytes = 7 * 32

(* Writes the payload's genuine ABI field words into [dst] from offset 0
   and returns their length. Ticks are two's-complement words. *)
let write_fields dst ~issuer ~pool payload =
  let open Encoding in
  write_address_word issuer dst 0;
  write_int_word pool dst 32;
  match payload with
  | Swap s ->
    let flags = (if s.zero_for_one then 1 else 0) lor (match s.kind with Exact_input -> 0 | Exact_output -> 2) in
    write_int_word flags dst 64;
    write_word s.amount_specified dst 96;
    write_word s.amount_limit dst 128;
    write_word s.sqrt_price_limit dst 160;
    write_int_word s.deadline dst 192;
    224
  | Mint m ->
    write_int_word m.lower_tick dst 64;
    write_int_word m.upper_tick dst 96;
    write_word m.amount0_desired dst 128;
    write_word m.amount1_desired dst 160;
    (match m.target with
    | New_position -> write_int_word 0 dst 192
    | Existing_position pid -> Ids.Position_id.write pid dst 192);
    224
  | Burn b ->
    Ids.Position_id.write b.burn_position dst 64;
    write_word b.amount0_requested dst 96;
    write_word b.amount1_requested dst 128;
    160
  | Collect c ->
    Ids.Position_id.write c.collect_position dst 64;
    write_word c.fees0_requested dst 96;
    write_word c.fees1_requested dst 128;
    160

(* The id hashes the field words and then the issuing round, written into
   one domain-local scratch and fed to a domain-local context; neither
   takes a callback, so they never run re-entrantly on a domain. *)
let id_state =
  Domain.DLS.new_key (fun () ->
      (Amm_crypto.Sha256.init (), Bytes.create (max_fields_bytes + 32)))

let create ?sign ~issuer ~issuer_pk ~pool ~issued_round ~issued_at payload =
  let ctx, words = Domain.DLS.get id_state in
  let len = write_fields words ~issuer ~pool payload in
  (* The id commits to the round so identical re-submissions differ. *)
  Encoding.write_int_word issued_round words len;
  Amm_crypto.Sha256.reset ctx;
  Amm_crypto.Sha256.feed_sub ctx words 0 (len + 32);
  let id = Ids.Tx_id.of_hash (Amm_crypto.Sha256.finalize ctx) in
  let signature =
    Option.map (fun sk -> Amm_crypto.Bls.sign sk (Ids.Tx_id.to_bytes id)) sign
  in
  (* The Universal Router wire is ~1 KB per transaction; only its length
     matters, and that is fixed per op. *)
  { id; issuer; issuer_pk; pool; payload; issued_round; issued_at; signature;
    wire_size = Encoding.ethereum_op_size (op_of_payload payload) }

let wire t =
  let op = op_of_payload t.payload in
  let words = Bytes.create max_fields_bytes in
  let len = write_fields words ~issuer:t.issuer ~pool:t.pool t.payload in
  Encoding.transaction_wire ~op ~fields:[ Bytes.sub words 0 len ]
    ~padding:(Encoding.universal_router_padding op)

let verify_signature t =
  match t.signature with
  | None -> false
  | Some s -> Amm_crypto.Bls.verify t.issuer_pk (Ids.Tx_id.to_bytes t.id) s

let type_name = function
  | Swap _ -> "swap"
  | Mint _ -> "mint"
  | Burn _ -> "burn"
  | Collect _ -> "collect"

let pp fmt t =
  Format.fprintf fmt "%s[%a by %a @%d]" (type_name t.payload) Ids.Tx_id.pp t.id
    Address.pp t.issuer t.issued_round
