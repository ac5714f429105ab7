module U256 = Amm_math.U256
module Address = Chain.Address
module Position_id = Chain.Ids.Position_id
module Slab = Flatstore.Slab

module Reg = Flatstore.Registry.Make (struct
  type t = Position_id.t

  let equal = Position_id.equal
  let hash = Position_id.hash
end)

(* Row layout, 8 slots of 32 bytes. *)
let s_owner = 0 (* 20-byte address *)
let s_ticks = 1 (* int2: lower, upper *)
let s_live = 2 (* int: 1 = live, 0 = deleted/never written *)
let s_liquidity = 3
let s_amount0 = 4
let s_amount1 = 5
let s_fees0 = 6
let s_fees1 = 7
let n_slots = 8

type t = {
  reg : Reg.t;
  slab : Slab.t;
  mutable live_count : int;
  journal : Flatstore.Journal.t;
}

let create () =
  { reg = Reg.create ();
    slab = Slab.create ~slots:n_slots ();
    live_count = 0;
    journal = Flatstore.Journal.create () }

let length t = t.live_count
let row_bytes t = Slab.row_bytes t.slab
let journal_bytes t = Flatstore.Journal.bytes t.journal

let is_live t row = Slab.get_int t.slab ~row ~slot:s_live = 1

(* Put a row image back, keeping the live count in step. *)
let put_row t row image =
  let was_live = is_live t row in
  Slab.blit_row t.slab row image;
  match (was_live, is_live t row) with
  | true, false -> t.live_count <- t.live_count - 1
  | false, true -> t.live_count <- t.live_count + 1
  | _ -> ()

(* Rows are not journal cells: a summary writes each position at most
   once per sync, so every write after the first mark records the row's
   pre-image — or, for a row allocated since, that it was blank. *)
let record t row ~fresh =
  if Flatstore.Journal.recording t.journal then
    if fresh then
      Flatstore.Journal.push t.journal ~bytes:8 (fun () ->
          put_row t row (Bytes.make (row_bytes t) '\000'))
    else
      let prev = Slab.copy_row t.slab row in
      Flatstore.Journal.push t.journal ~bytes:(row_bytes t) (fun () -> put_row t row prev)

let entry_of_row t row : Sync_payload.position_entry =
  let lower_tick, upper_tick = Slab.get_int2 t.slab ~row ~slot:s_ticks in
  { pos_id = Reg.key t.reg row;
    owner = Address.of_bytes (Slab.get_bytes t.slab ~row ~slot:s_owner ~len:20);
    lower_tick; upper_tick;
    liquidity = Slab.get_u256 t.slab ~row ~slot:s_liquidity;
    amount0 = Slab.get_u256 t.slab ~row ~slot:s_amount0;
    amount1 = Slab.get_u256 t.slab ~row ~slot:s_amount1;
    fees0 = Slab.get_u256 t.slab ~row ~slot:s_fees0;
    fees1 = Slab.get_u256 t.slab ~row ~slot:s_fees1;
    deleted = false }

let find t id =
  match Reg.find t.reg id with
  | Some row when is_live t row -> Some (entry_of_row t row)
  | _ -> None

let write_row t row (p : Sync_payload.position_entry) =
  Slab.set_bytes t.slab ~row ~slot:s_owner (Address.to_bytes p.owner);
  Slab.set_int2 t.slab ~row ~slot:s_ticks p.lower_tick p.upper_tick;
  Slab.set_int t.slab ~row ~slot:s_live 1;
  Slab.set_u256 t.slab ~row ~slot:s_liquidity p.liquidity;
  Slab.set_u256 t.slab ~row ~slot:s_amount0 p.amount0;
  Slab.set_u256 t.slab ~row ~slot:s_amount1 p.amount1;
  Slab.set_u256 t.slab ~row ~slot:s_fees0 p.fees0;
  Slab.set_u256 t.slab ~row ~slot:s_fees1 p.fees1

let set t (p : Sync_payload.position_entry) =
  match Reg.find t.reg p.pos_id with
  | Some row ->
    record t row ~fresh:false;
    if not (is_live t row) then t.live_count <- t.live_count + 1;
    write_row t row p
  | None ->
    let row = Reg.intern t.reg p.pos_id in
    let row' = Slab.alloc t.slab in
    assert (row = row');
    record t row ~fresh:true;
    t.live_count <- t.live_count + 1;
    write_row t row p

let remove t id =
  match Reg.find t.reg id with
  | Some row when is_live t row ->
    record t row ~fresh:false;
    Slab.set_int t.slab ~row ~slot:s_live 0;
    t.live_count <- t.live_count - 1
  | _ -> ()

let iter t f =
  for row = 0 to Slab.rows t.slab - 1 do
    if is_live t row then f (entry_of_row t row)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun p -> acc := f !acc p);
  !acc

let mark t = Flatstore.Journal.mark t.journal

let undo_to t mark = Flatstore.Journal.undo_to t.journal mark
let release_below t mark = Flatstore.Journal.release_below t.journal mark

(* ------------------------------------------------------------------ *)
(* Audit surface                                                       *)
(* ------------------------------------------------------------------ *)

let row_image t id =
  match Reg.find t.reg id with
  | Some row when row < Slab.rows t.slab -> Some (Slab.copy_row t.slab row)
  | _ -> None

let dirty_ids t = List.map (Reg.key t.reg) (Slab.dirty_rows t.slab)
let clear_dirty t = Slab.clear_dirty t.slab

let corrupt_bit t ~index ~bit =
  let rows = Slab.rows t.slab in
  if rows = 0 then None
  else begin
    let row = ((index mod rows) + rows) mod rows in
    Slab.corrupt_bit t.slab ~row ~bit;
    Some (Reg.key t.reg row)
  end

let to_bytes t =
  let rb = Slab.row_bytes t.slab in
  let out = Buffer.create (4 + (t.live_count * (32 + rb))) in
  Buffer.add_int32_be out (Int32.of_int t.live_count);
  for row = 0 to Slab.rows t.slab - 1 do
    if is_live t row then begin
      Buffer.add_bytes out (Position_id.to_bytes (Reg.key t.reg row));
      Buffer.add_bytes out (Slab.copy_row t.slab row)
    end
  done;
  Buffer.to_bytes out

type error = Flatstore.Slab.error =
  | Truncated of { need : int; got : int }
  | Bad_header of string
  | Length_mismatch of { expected : int; got : int }

let error_to_string = Flatstore.Slab.error_to_string

let decode_entries t b n rb =
  for i = 0 to n - 1 do
    let off = 4 + (i * (32 + rb)) in
    let id = Position_id.of_hash (Bytes.sub b off 32) in
    let row = Reg.intern t.reg id in
    let row' = Slab.alloc t.slab in
    assert (row = row');
    Slab.blit_row t.slab row (Bytes.sub b (off + 32) rb);
    if is_live t row then t.live_count <- t.live_count + 1
  done;
  t

(* Like [Slab.of_bytes], the decoder is total: snapshot bytes read back
   from disk are untrusted, so every malformed shape maps to a typed
   error instead of letting [Bytes] primitives raise. *)
let of_bytes b =
  let len = Bytes.length b in
  if len < 4 then Error (Truncated { need = 4; got = len })
  else begin
    let n = Int32.to_int (Bytes.get_int32_be b 0) in
    let t = create () in
    let rb = Slab.row_bytes t.slab in
    if n < 0 then
      Error (Bad_header (Printf.sprintf "entry count = %d, must be non-negative" n))
    else begin
      let expected = 4 + (n * (32 + rb)) in
      if len <> expected then Error (Length_mismatch { expected; got = len })
      else Ok (decode_entries t b n rb)
    end
  end

let of_bytes_exn b =
  match of_bytes b with
  | Ok t -> t
  | Error e -> invalid_arg ("Pos_store.of_bytes: " ^ error_to_string e)
