(** Cursor-based binary reader/writer shared by the durable codecs.

    Writers append to a [Buffer]; readers walk an untrusted byte buffer
    behind an explicit cursor and signal every malformed shape through
    {!Malformed}, which {!read} catches into a [result] — nothing in a
    decode path raises past it. *)

exception Malformed of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message (for decoders layered on
    top of the primitive readers). *)

(** {1 Writer} *)

val w_u8 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit
val w_i64 : Buffer.t -> int -> unit
val w_fixed : Buffer.t -> bytes -> unit

val w_var : Buffer.t -> bytes -> unit
(** Length-prefixed ([u32] big-endian) byte string. *)

(** {1 Reader} *)

type reader

val reader : ?pos:int -> ?limit:int -> bytes -> reader
val pos : reader -> int
val remaining : reader -> int

(** Each primitive takes a short field name used in failure messages. *)

val r_u8 : reader -> string -> int
val r_u32 : reader -> string -> int
val r_i64 : reader -> string -> int
val r_fixed : reader -> int -> string -> bytes
val r_var : reader -> string -> bytes

val expect_end : reader -> string -> unit
(** Fails unless the cursor consumed the whole buffer. *)

val read : bytes -> (reader -> 'a) -> ('a, string) result
(** Run a decoder over a fresh reader; {!Malformed} (and stray
    [Invalid_argument] from byte primitives) become [Error]. *)
