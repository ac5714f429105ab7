module U256 = Amm_math.U256

let slot_size = 32

type t = {
  slots : int;
  row_bytes : int;
  mutable data : Bytes.t;       (* capacity * row_bytes *)
  mutable rows : int;
  mutable dirty_flag : Bytes.t; (* one byte per row of capacity *)
  mutable dirty : int list;     (* rows flagged since last clear, unordered *)
  mutable dirty_count : int;
}

let create ~slots ?(capacity = 16) () =
  if slots <= 0 then invalid_arg "Slab.create: slots must be positive";
  let capacity = Stdlib.max 1 capacity in
  let row_bytes = slots * slot_size in
  { slots; row_bytes;
    data = Bytes.make (capacity * row_bytes) '\000';
    rows = 0;
    dirty_flag = Bytes.make capacity '\000';
    dirty = []; dirty_count = 0 }

let slots t = t.slots
let rows t = t.rows
let row_bytes t = t.row_bytes

let capacity t = Bytes.length t.dirty_flag

let ensure_capacity t wanted =
  let cap = capacity t in
  if wanted > cap then begin
    let cap' = ref (Stdlib.max 1 cap) in
    while !cap' < wanted do
      cap' := !cap' * 2
    done;
    let data = Bytes.make (!cap' * t.row_bytes) '\000' in
    Bytes.blit t.data 0 data 0 (t.rows * t.row_bytes);
    let flags = Bytes.make !cap' '\000' in
    Bytes.blit t.dirty_flag 0 flags 0 t.rows;
    t.data <- data;
    t.dirty_flag <- flags
  end

let mark_dirty t row =
  if Bytes.unsafe_get t.dirty_flag row = '\000' then begin
    Bytes.unsafe_set t.dirty_flag row '\001';
    t.dirty <- row :: t.dirty;
    t.dirty_count <- t.dirty_count + 1
  end

let alloc t =
  ensure_capacity t (t.rows + 1);
  let row = t.rows in
  t.rows <- row + 1;
  (* New capacity arrives zeroed, but a row may be re-allocated after a
     shrink-free store grew into recycled space; clear defensively. *)
  Bytes.fill t.data (row * t.row_bytes) t.row_bytes '\000';
  mark_dirty t row;
  row

let check t row slot =
  if row < 0 || row >= t.rows then invalid_arg "Slab: row out of bounds";
  if slot < 0 || slot >= t.slots then invalid_arg "Slab: slot out of bounds"

let off t row slot = (row * t.row_bytes) + (slot * slot_size)

let get_u256 t ~row ~slot =
  check t row slot;
  U256.read_be t.data (off t row slot)

let get_u256_into t ~row ~slot ~dst =
  check t row slot;
  U256.read_be_into ~dst t.data (off t row slot)

let set_u256 t ~row ~slot v =
  check t row slot;
  U256.write_be v t.data (off t row slot);
  mark_dirty t row

let get_int t ~row ~slot =
  check t row slot;
  Int64.to_int (Bytes.get_int64_be t.data (off t row slot))

let set_int t ~row ~slot v =
  check t row slot;
  Bytes.set_int64_be t.data (off t row slot) (Int64.of_int v);
  mark_dirty t row

let get_int2 t ~row ~slot =
  check t row slot;
  let o = off t row slot in
  (Int64.to_int (Bytes.get_int64_be t.data o),
   Int64.to_int (Bytes.get_int64_be t.data (o + 8)))

let set_int2 t ~row ~slot a b =
  check t row slot;
  let o = off t row slot in
  Bytes.set_int64_be t.data o (Int64.of_int a);
  Bytes.set_int64_be t.data (o + 8) (Int64.of_int b);
  mark_dirty t row

let get_bytes t ~row ~slot ~len =
  check t row slot;
  if len < 0 || len > slot_size then invalid_arg "Slab.get_bytes: bad length";
  Bytes.sub t.data (off t row slot) len

let set_bytes t ~row ~slot b =
  check t row slot;
  let len = Bytes.length b in
  if len > slot_size then invalid_arg "Slab.set_bytes: value exceeds slot";
  let o = off t row slot in
  Bytes.blit b 0 t.data o len;
  Bytes.fill t.data (o + len) (slot_size - len) '\000';
  mark_dirty t row

let copy_row t row =
  check t row 0;
  Bytes.sub t.data (row * t.row_bytes) t.row_bytes

let blit_row t row b =
  check t row 0;
  if Bytes.length b <> t.row_bytes then invalid_arg "Slab.blit_row: bad length";
  Bytes.blit b 0 t.data (row * t.row_bytes) t.row_bytes;
  mark_dirty t row

let corrupt_bit t ~row ~bit =
  check t row 0;
  let bit = ((bit mod (t.row_bytes * 8)) + (t.row_bytes * 8)) mod (t.row_bytes * 8) in
  let o = (row * t.row_bytes) + (bit / 8) in
  Bytes.set t.data o (Char.chr (Char.code (Bytes.get t.data o) lxor (1 lsl (bit mod 8))));
  mark_dirty t row

let dirty_rows t = List.sort compare t.dirty
let dirty_count t = t.dirty_count

let clear_dirty t =
  List.iter (fun row -> Bytes.unsafe_set t.dirty_flag row '\000') t.dirty;
  t.dirty <- [];
  t.dirty_count <- 0

let set_u32be b off v =
  Bytes.set_int32_be b off (Int32.of_int v)

let get_u32be b off = Int32.to_int (Bytes.get_int32_be b off)

let to_bytes t =
  let body = t.rows * t.row_bytes in
  let out = Bytes.create (8 + body) in
  set_u32be out 0 t.slots;
  set_u32be out 4 t.rows;
  Bytes.blit t.data 0 out 8 body;
  out

type error =
  | Truncated of { need : int; got : int }
  | Bad_header of string
  | Length_mismatch of { expected : int; got : int }

let error_to_string = function
  | Truncated { need; got } ->
    Printf.sprintf "truncated buffer: need at least %d bytes, got %d" need got
  | Bad_header msg -> "bad header: " ^ msg
  | Length_mismatch { expected; got } ->
    Printf.sprintf "length mismatch: header implies %d bytes, got %d" expected got

(* Decoders never reach into [Bytes] without checking first: a short or
   corrupted buffer (a torn snapshot file, say) must come back as a typed
   [Error], not as an [Invalid_argument] escaping from a Bytes primitive. *)
let of_bytes b =
  let len = Bytes.length b in
  if len < 8 then Error (Truncated { need = 8; got = len })
  else begin
    let slots = get_u32be b 0 in
    let rows = get_u32be b 4 in
    if slots <= 0 then
      Error (Bad_header (Printf.sprintf "slots = %d, must be positive" slots))
    else if slots > 1024 then
      Error (Bad_header (Printf.sprintf "slots = %d, implausibly wide" slots))
    else if rows < 0 then
      Error (Bad_header (Printf.sprintf "rows = %d, must be non-negative" rows))
    else begin
      let row_bytes = slots * slot_size in
      let expected = 8 + (rows * row_bytes) in
      if len <> expected then Error (Length_mismatch { expected; got = len })
      else begin
        let t = create ~slots ~capacity:(Stdlib.max 1 rows) () in
        ensure_capacity t rows;
        Bytes.blit b 8 t.data 0 (rows * row_bytes);
        t.rows <- rows;
        Ok t
      end
    end
  end

let of_bytes_exn b =
  match of_bytes b with
  | Ok t -> t
  | Error e -> invalid_arg ("Slab.of_bytes: " ^ error_to_string e)
