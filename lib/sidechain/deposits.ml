module U256 = Amm_math.U256
module Address = Chain.Address

(* Accounts live in a flat slab, one row per user, six 32-byte slots:
   initial and remaining mainchain deposit plus the sidechain-accrued
   balance, per token. The user registry assigns rows in first-seen
   order; a separate sorted index of addresses is maintained
   incrementally on every account creation, so [users_sorted] never
   sorts. The snapshot (already sorted — it comes from
   [Address.Map.bindings]) loads as pure appends; only the few accounts
   auto-created mid-epoch pay an insertion shift. *)

module Reg = Flatstore.Registry.Make (struct
  type t = Address.t

  let equal = Address.equal
  let hash = Address.hash
end)

module Slab = Flatstore.Slab

let s_initial0 = 0
let s_initial1 = 1
let s_main0 = 2
let s_main1 = 3
let s_side0 = 4
let s_side1 = 5

type t = {
  reg : Reg.t;
  slab : Slab.t;
  mutable sorted : Address.t array; (* ascending; only [0, sorted_len) valid *)
  mutable sorted_len : int;
  (* Summary candidates: rows whose payin/payout could be nonzero, i.e.
     rows some balance mutation touched since epoch start. Marked at
     inclusion time by [consume]/[credit_side] (and by
     [corrupt_bit], so injected corruption flows into the summary the
     same way a legitimate write does). Distinct from the slab's dirty
     rows, which the twin audit owns and clears mid-epoch. *)
  mutable cand_bits : Bytes.t; (* bit per row *)
  mutable cand_rows : int list; (* marked rows, most recent first *)
  (* Registers for the in-place balance updates: a slot is read into one,
     updated there and written back. None holds a value between calls. *)
  ra : U256.t;
  rb : U256.t;
}

(* Binary-search insertion into the sorted index. A sorted snapshot
   loads as O(1) appends (the common case: each address exceeds the
   current maximum); a mid-epoch account pays one O(n) shift, which only
   the handful of accounts created after epoch start ever do. *)
let sorted_insert t user =
  if t.sorted_len = Array.length t.sorted then begin
    let grown = Array.make (Stdlib.max 16 (2 * t.sorted_len)) user in
    Array.blit t.sorted 0 grown 0 t.sorted_len;
    t.sorted <- grown
  end;
  if t.sorted_len > 0 && Address.compare t.sorted.(t.sorted_len - 1) user < 0 then begin
    t.sorted.(t.sorted_len) <- user;
    t.sorted_len <- t.sorted_len + 1
  end
  else begin
    let lo = ref 0 and hi = ref t.sorted_len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Address.compare t.sorted.(mid) user < 0 then lo := mid + 1 else hi := mid
    done;
    Array.blit t.sorted !lo t.sorted (!lo + 1) (t.sorted_len - !lo);
    t.sorted.(!lo) <- user;
    t.sorted_len <- t.sorted_len + 1
  end

let mark_row t row =
  let byte = row lsr 3 and bit = row land 7 in
  if byte >= Bytes.length t.cand_bits then begin
    let grown =
      Bytes.make (Stdlib.max 16 (2 * (byte + 1))) '\000'
    in
    Bytes.blit t.cand_bits 0 grown 0 (Bytes.length t.cand_bits);
    t.cand_bits <- grown
  end;
  let v = Char.code (Bytes.get t.cand_bits byte) in
  if v land (1 lsl bit) = 0 then begin
    Bytes.set t.cand_bits byte (Char.chr (v lor (1 lsl bit)));
    t.cand_rows <- row :: t.cand_rows
  end

let create ~snapshot =
  let n = List.length snapshot in
  let reg = Reg.create ~capacity:(Stdlib.max 64 (2 * n)) () in
  let slab = Slab.create ~slots:6 ~capacity:(Stdlib.max 16 n) () in
  let t =
    { reg; slab; sorted = [||]; sorted_len = 0;
      cand_bits = Bytes.make (Stdlib.max 2 ((n / 8) + 1)) '\000';
      cand_rows = []; ra = U256.scratch (); rb = U256.scratch () }
  in
  List.iter
    (fun (user, (d0, d1)) ->
      let row = Reg.intern reg user in
      let row' = Slab.alloc slab in
      assert (row = row');
      Slab.set_u256 slab ~row ~slot:s_initial0 d0;
      Slab.set_u256 slab ~row ~slot:s_initial1 d1;
      Slab.set_u256 slab ~row ~slot:s_main0 d0;
      Slab.set_u256 slab ~row ~slot:s_main1 d1;
      sorted_insert t user)
    snapshot;
  t

let row_of t user =
  let row = Reg.intern t.reg user in
  if row >= Slab.rows t.slab then begin
    ignore (Slab.alloc t.slab);
    sorted_insert t user
  end;
  row

let get t row slot = Slab.get_u256 t.slab ~row ~slot
let set t row slot v = Slab.set_u256 t.slab ~row ~slot v

(* Ascending by address, straight off the incrementally-maintained
   index — no sorting, no merging, O(n) to materialize the list. *)
let users_sorted t =
  let out = ref [] in
  for i = t.sorted_len - 1 downto 0 do
    out := t.sorted.(i) :: !out
  done;
  !out

let side_balance t user =
  let row = row_of t user in
  (get t row s_side0, get t row s_side1)

let insufficient user reason =
  Telemetry.Log.debug ~scope:"deposits"
    ~fields:[ ("user", Telemetry.Json.String (Address.to_hex user)) ]
    reason;
  Error reason

(* Whether main + side covers [amount] on one token's slots. *)
let covers_slots t row ~main ~side amount =
  Slab.get_u256_into t.slab ~row ~slot:main ~dst:t.ra;
  Slab.get_u256_into t.slab ~row ~slot:side ~dst:t.rb;
  U256.add_into ~dst:t.ra t.ra t.rb;
  U256.ge t.ra amount

let covers t user ~amount0 ~amount1 =
  let row = row_of t user in
  covers_slots t row ~main:s_main0 ~side:s_side0 amount0
  && covers_slots t row ~main:s_main1 ~side:s_side1 amount1

(* Takes a covered [amount] out of one token's slots, mainchain first. *)
let drain t row ~main ~side amount =
  Slab.get_u256_into t.slab ~row ~slot:main ~dst:t.ra;
  if U256.ge t.ra amount then begin
    U256.sub_into ~dst:t.ra t.ra amount;
    set t row main t.ra
  end
  else begin
    (* The side deposit pays what the mainchain one cannot. *)
    U256.sub_into ~dst:t.ra amount t.ra;
    Slab.get_u256_into t.slab ~row ~slot:side ~dst:t.rb;
    U256.sub_into ~dst:t.rb t.rb t.ra;
    set t row main U256.zero;
    set t row side t.rb
  end

let consume t user ~amount0 ~amount1 =
  let row = row_of t user in
  if not (covers_slots t row ~main:s_main0 ~side:s_side0 amount0) then
    insufficient user "deposit: token0 not covered"
  else if not (covers_slots t row ~main:s_main1 ~side:s_side1 amount1) then
    insufficient user "deposit: token1 not covered"
  else begin
    drain t row ~main:s_main0 ~side:s_side0 amount0;
    drain t row ~main:s_main1 ~side:s_side1 amount1;
    mark_row t row;
    Ok ()
  end

let credit t row slot amount =
  Slab.get_u256_into t.slab ~row ~slot ~dst:t.ra;
  U256.add_into ~dst:t.ra t.ra amount;
  set t row slot t.ra

let credit_side t user ~amount0 ~amount1 =
  let row = row_of t user in
  credit t row s_side0 amount0;
  credit t row s_side1 amount1;
  mark_row t row

let payin t user =
  let row = row_of t user in
  ( U256.sub (get t row s_initial0) (get t row s_main0),
    U256.sub (get t row s_initial1) (get t row s_main1) )

let payout t user = side_balance t user

(* Aggregate balances across every account. Summed exactly in U256 —
   addition is associative, so row order cannot leak into the totals
   (the growth ledger folds them into deterministic output). *)
let totals t =
  let m0 = ref U256.zero and m1 = ref U256.zero in
  let s0 = ref U256.zero and s1 = ref U256.zero in
  for row = 0 to Slab.rows t.slab - 1 do
    m0 := U256.add !m0 (get t row s_main0);
    m1 := U256.add !m1 (get t row s_main1);
    s0 := U256.add !s0 (get t row s_side0);
    s1 := U256.add !s1 (get t row s_side1)
  done;
  ((!m0, !m1), (!s0, !s1))

let accounts t = Reg.count t.reg

(* First-marked order — deterministic (mark order follows the meta-block
   transaction order). The summary builder re-sorts by address anyway. *)
let candidate_users t = List.rev_map (Reg.key t.reg) t.cand_rows

let mem t user =
  match Reg.find t.reg user with
  | Some row -> row < Slab.rows t.slab
  | None -> false


(* ------------------------------------------------------------------ *)
(* Audit surface                                                       *)
(* ------------------------------------------------------------------ *)

(* Read-only row image: unlike the accessors above this never interns
   the user, so the audit can probe arbitrary addresses without growing
   the table (or dirtying a fresh zero row). *)
let row_image t user =
  match Reg.find t.reg user with
  | Some row when row < Slab.rows t.slab -> Some (Slab.copy_row t.slab row)
  | _ -> None

let dirty_users t = List.map (Reg.key t.reg) (Slab.dirty_rows t.slab)
let dirty_rows t = Slab.dirty_count t.slab
let clear_dirty t = Slab.clear_dirty t.slab

let corrupt_bit t ~index ~bit =
  let rows = Slab.rows t.slab in
  if rows = 0 then None
  else begin
    let row = ((index mod rows) + rows) mod rows in
    Slab.corrupt_bit t.slab ~row ~bit;
    (* The corrupted row joins the summary candidates: the delta builder
       must see the same (bad) value the full-scan oracle would, so the
       divergence is caught by the twin, not masked by the filter. *)
    mark_row t row;
    Some (Reg.key t.reg row)
  end

(* ------------------------------------------------------------------ *)
(* Binary codec (durable snapshot section)                             *)
(* ------------------------------------------------------------------ *)

let to_bytes t =
  let n = Reg.count t.reg in
  let slab_bytes = Slab.to_bytes t.slab in
  let buf = Buffer.create (4 + (n * 20) + Bytes.length slab_bytes) in
  Buffer.add_int32_be buf (Int32.of_int n);
  Reg.iteri t.reg (fun _ u -> Buffer.add_bytes buf (Address.to_bytes u));
  Buffer.add_bytes buf slab_bytes;
  Buffer.to_bytes buf

let of_bytes b =
  let len = Bytes.length b in
  if len < 4 then Error "Deposits.of_bytes: truncated header"
  else begin
    let n = Int32.to_int (Bytes.get_int32_be b 0) in
    if n < 0 || 4 + (n * 20) > len then
      Error (Printf.sprintf "Deposits.of_bytes: implausible account count %d" n)
    else begin
      let slab_off = 4 + (n * 20) in
      match Slab.of_bytes (Bytes.sub b slab_off (len - slab_off)) with
      | Error e -> Error ("Deposits.of_bytes: slab: " ^ Slab.error_to_string e)
      | Ok slab ->
        if Slab.slots slab <> 6 then
          Error
            (Printf.sprintf "Deposits.of_bytes: expected 6 slots, got %d"
               (Slab.slots slab))
        else if Slab.rows slab <> n then
          Error
            (Printf.sprintf "Deposits.of_bytes: %d addresses but %d rows" n
               (Slab.rows slab))
        else begin
          let t =
            { reg = Reg.create ~capacity:(Stdlib.max 64 (2 * n)) (); slab;
              sorted = [||]; sorted_len = 0;
              cand_bits = Bytes.make (Stdlib.max 2 ((n / 8) + 1)) '\000';
              cand_rows = []; ra = U256.scratch (); rb = U256.scratch () }
          in
          let ok = ref true in
          (try
             for i = 0 to n - 1 do
               let u = Address.of_bytes (Bytes.sub b (4 + (i * 20)) 20) in
               if Reg.intern t.reg u <> i then raise Exit;
               sorted_insert t u
             done
           with Exit | Invalid_argument _ -> ok := false);
          (* Candidate marks are not serialized; rebuild them from the
             rows themselves. A row restored with nonzero payin or payout
             was mutated after epoch start, which is exactly the
             candidate predicate — so a summary built after recovery
             matches one built on the uninterrupted path. *)
          if !ok then begin
            for row = n - 1 downto 0 do
              let nonzero slot_a slot_b =
                not (U256.equal (get t row slot_a) (get t row slot_b))
              in
              if
                nonzero s_initial0 s_main0 || nonzero s_initial1 s_main1
                || (not (U256.is_zero (get t row s_side0)))
                || not (U256.is_zero (get t row s_side1))
              then mark_row t row
            done;
            Ok t
          end
          else Error "Deposits.of_bytes: duplicate address"
        end
    end
  end
