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

(* Ticks can be negative; ABI words are unsigned two's complement. *)
let tick_word tick =
  if tick >= 0 then Encoding.int_word tick
  else Encoding.word (U256.sub U256.zero (U256.of_int (-tick)))

let fields_of ~issuer ~pool payload =
  let addr = Encoding.address_word issuer in
  let pool_w = Encoding.int_word pool in
  match payload with
  | Swap s ->
    let flags = (if s.zero_for_one then 1 else 0) lor (match s.kind with Exact_input -> 0 | Exact_output -> 2) in
    [ addr; pool_w; Encoding.int_word flags; Encoding.word s.amount_specified;
      Encoding.word s.amount_limit; Encoding.word s.sqrt_price_limit;
      Encoding.int_word s.deadline ]
  | Mint m ->
    let target_w =
      match m.target with
      | New_position -> Encoding.int_word 0
      | Existing_position pid -> Encoding.bytes32_word (Ids.Position_id.to_bytes pid)
    in
    [ addr; pool_w; tick_word m.lower_tick; tick_word m.upper_tick;
      Encoding.word m.amount0_desired; Encoding.word m.amount1_desired; target_w ]
  | Burn b ->
    [ addr; pool_w; Encoding.bytes32_word (Ids.Position_id.to_bytes b.burn_position);
      Encoding.word b.amount0_requested; Encoding.word b.amount1_requested ]
  | Collect c ->
    [ addr; pool_w; Encoding.bytes32_word (Ids.Position_id.to_bytes c.collect_position);
      Encoding.word c.fees0_requested; Encoding.word c.fees1_requested ]

(* Ids stream their words into a domain-local context; [feed] takes no
   callback, so it never runs re-entrantly on a domain. *)
let id_ctx = Domain.DLS.new_key Amm_crypto.Sha256.init

let create ?sign ~issuer ~issuer_pk ~pool ~issued_round ~issued_at payload =
  let ctx = Domain.DLS.get id_ctx in
  Amm_crypto.Sha256.reset ctx;
  List.iter (Amm_crypto.Sha256.feed ctx) (fields_of ~issuer ~pool payload);
  (* The id commits to the round so identical re-submissions differ. *)
  Amm_crypto.Sha256.feed ctx (Encoding.int_word issued_round);
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
  Encoding.transaction_wire ~op
    ~fields:(fields_of ~issuer:t.issuer ~pool:t.pool t.payload)
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
