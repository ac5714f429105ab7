(** A flat, [Bytes]-backed row store.

    Each row is a fixed number of 32-byte slots living in one contiguous
    byte arena — no per-entry records, no boxed limbs, so a store with a
    million rows is a single allocation the GC scans in O(1). Slots hold
    big-endian {!Amm_math.U256} words, native integers, or raw byte
    strings (addresses, hashes).

    The slab tracks which rows were written since the last
    {!clear_dirty}: checkpointing only has to copy the dirty rows, and
    the binary codec ({!to_bytes}/{!of_bytes}) round-trips the whole
    arena without walking a heap structure. *)

type t

val create : slots:int -> ?capacity:int -> unit -> t
(** [create ~slots ()] is an empty slab whose rows have [slots] 32-byte
    slots. Raises [Invalid_argument] if [slots <= 0]. *)

val slots : t -> int
val rows : t -> int
(** Number of allocated rows; row indices are [0 .. rows-1]. *)

val row_bytes : t -> int
(** Bytes per row ([32 * slots]). *)

val alloc : t -> int
(** Append a zeroed row and return its index. Marks it dirty. *)

(** {1 Slot accessors}

    [row] must be in [0 .. rows-1] and [slot] in [0 .. slots-1];
    violations raise [Invalid_argument]. Every setter marks the row
    dirty. *)

val get_u256 : t -> row:int -> slot:int -> Amm_math.U256.t

val get_u256_into : t -> row:int -> slot:int -> dst:Amm_math.U256.t -> unit
(** {!get_u256} into a register the caller owns, allocating nothing. *)

val set_u256 : t -> row:int -> slot:int -> Amm_math.U256.t -> unit

val get_int : t -> row:int -> slot:int -> int
(** Reads the signed 64-bit value stored in the first 8 bytes of the
    slot. *)

val set_int : t -> row:int -> slot:int -> int -> unit

val get_int2 : t -> row:int -> slot:int -> int * int
(** Reads the pair packed by {!set_int2} (bytes 0-7 and 8-15). *)

val set_int2 : t -> row:int -> slot:int -> int -> int -> unit

val get_bytes : t -> row:int -> slot:int -> len:int -> bytes
(** First [len] bytes of the slot ([len <= 32]). *)

val set_bytes : t -> row:int -> slot:int -> bytes -> unit
(** Writes [b] at the start of the slot, zero-padding the remainder.
    Raises [Invalid_argument] if [b] is longer than 32 bytes. *)

(** {1 Row-granular access} *)

val copy_row : t -> int -> bytes
(** A fresh copy of the row's raw bytes. *)

val blit_row : t -> int -> bytes -> unit
(** Overwrites the row from raw bytes (length must be [row_bytes]).
    Marks it dirty. *)

(** {1 Dirty tracking} *)

val dirty_rows : t -> int list
(** Rows written since the last {!clear_dirty}, ascending, each at most
    once. *)

val dirty_count : t -> int
val clear_dirty : t -> unit

val corrupt_bit : t -> row:int -> bit:int -> unit
(** Flips one bit of the row's raw bytes ([bit] is taken modulo the
    row's bit width) and marks the row dirty — the fault injector's
    model of a silent in-memory corruption. Raises [Invalid_argument]
    if [row] is out of bounds. *)

(** {1 Binary codec}

    The encoding is [slots : u32be][rows : u32be][arena bytes] — a
    compact snapshot of the entire store. [of_bytes] rebuilds a slab
    whose re-encoding is byte-identical. The decoded slab starts with an
    empty dirty set. *)

type error =
  | Truncated of { need : int; got : int }
      (** Shorter than the fixed header. *)
  | Bad_header of string
      (** Header fields out of range (non-positive slots, negative or
          implausible row count). *)
  | Length_mismatch of { expected : int; got : int }
      (** Header is well-formed but the arena length disagrees — a torn
          or truncated snapshot. *)

val error_to_string : error -> string

val to_bytes : t -> bytes

val of_bytes : bytes -> (t, error) result
(** Total: never raises, whatever the buffer contains. Untrusted input
    (snapshot files read back from disk) must go through this. *)

val of_bytes_exn : bytes -> t
(** Raises [Invalid_argument] with the rendered error — for callers that
    treat a malformed buffer as a programming error. *)
