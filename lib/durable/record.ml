module U256 = Amm_math.U256
module Address = Chain.Address
module Bls = Amm_crypto.Bls
module Sync_payload = Tokenbank.Sync_payload

(* One write-ahead-log record: a mainchain state transition in the exact
   order the live TokenBank applied it. The system emits each bank op
   once, to this log and to the state twin, so a WAL is a durable,
   checksummed copy of the op stream — plus [Truncate], the compensation
   record for reorg rollbacks (a log file cannot un-append, so the
   rollback is itself logged and re-applied on recovery). *)

type op =
  | Deposit of {
      user : Address.t;
      for_epoch : int;
      amount0 : U256.t;
      amount1 : U256.t;
    }
  | Sync of (Sync_payload.t * Bls.signature) list
  | Halt of { epoch : int }
  | Exit of { claimant : Address.t }
  | Reconcile of (Sync_payload.t * Bls.signature) list

type t = Op of op | Truncate of { keep : int }

let tag = function
  | Op (Deposit _) -> 0
  | Op (Sync _) -> 1
  | Op (Halt _) -> 2
  | Op (Exit _) -> 3
  | Op (Reconcile _) -> 4
  | Truncate _ -> 5

let describe = function
  | Op (Deposit { for_epoch; _ }) -> Printf.sprintf "deposit(for_epoch=%d)" for_epoch
  | Op (Sync signed) -> Printf.sprintf "sync(%d epochs)" (List.length signed)
  | Op (Halt { epoch }) -> Printf.sprintf "halt(epoch=%d)" epoch
  | Op (Exit _) -> "exit"
  | Op (Reconcile signed) ->
    Printf.sprintf "reconcile(%d epochs)" (List.length signed)
  | Truncate { keep } -> Printf.sprintf "truncate(keep=%d)" keep

let w_signed buf signed =
  Wire.w_u32 buf (List.length signed);
  List.iter
    (fun (p, s) ->
      Wire.w_var buf (Sync_payload.to_bytes p);
      Wire.w_fixed buf (Bls.signature_to_bytes s))
    signed

let to_bytes r =
  let buf = Buffer.create 64 in
  Wire.w_u8 buf (tag r);
  (match r with
  | Op (Deposit { user; for_epoch; amount0; amount1 }) ->
    Wire.w_fixed buf (Address.to_bytes user);
    Wire.w_i64 buf for_epoch;
    Wire.w_fixed buf (U256.to_bytes_be amount0);
    Wire.w_fixed buf (U256.to_bytes_be amount1)
  | Op (Sync signed) | Op (Reconcile signed) -> w_signed buf signed
  | Op (Halt { epoch }) -> Wire.w_i64 buf epoch
  | Op (Exit { claimant }) -> Wire.w_fixed buf (Address.to_bytes claimant)
  | Truncate { keep } -> Wire.w_i64 buf keep);
  Buffer.to_bytes buf

let r_signed r =
  let n = Wire.r_u32 r "signed count" in
  if n > Wire.remaining r / (4 + Bls.signature_size) + 1 then
    Wire.fail "implausible signed count %d" n;
  let rec go acc i =
    if i = n then List.rev acc
    else begin
      let pb = Wire.r_var r "payload" in
      let sigma = Bls.signature_of_bytes (Wire.r_fixed r Bls.signature_size "signature") in
      match Sync_payload.of_bytes pb with
      | Ok p -> go ((p, sigma) :: acc) (i + 1)
      | Error e -> Wire.fail "payload: %s" e
    end
  in
  go [] 0

let of_bytes b =
  Wire.read b (fun r ->
      let v =
        match Wire.r_u8 r "tag" with
        | 0 ->
          let user = Address.of_bytes (Wire.r_fixed r 20 "user") in
          let for_epoch = Wire.r_i64 r "for_epoch" in
          let amount0 = U256.of_bytes_be (Wire.r_fixed r 32 "amount0") in
          let amount1 = U256.of_bytes_be (Wire.r_fixed r 32 "amount1") in
          Op (Deposit { user; for_epoch; amount0; amount1 })
        | 1 -> Op (Sync (r_signed r))
        | 2 -> Op (Halt { epoch = Wire.r_i64 r "epoch" })
        | 3 -> Op (Exit { claimant = Address.of_bytes (Wire.r_fixed r 20 "claimant") })
        | 4 -> Op (Reconcile (r_signed r))
        | 5 -> Truncate { keep = Wire.r_i64 r "keep" }
        | t -> Wire.fail "unknown record tag %d" t
      in
      Wire.expect_end r "record";
      v)

let equal a b = Bytes.equal (to_bytes a) (to_bytes b)
