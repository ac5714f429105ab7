(** Write-ahead-log segments: framed, per-record-checksummed append logs.

    Each frame is [len | crc32(payload) | payload | 0xA6]; appends flush
    per record, so a hard crash loses at most the frame in flight.
    Segments rotate at snapshot boundaries (segment 0 opens at genesis;
    a snapshot at epoch [e] opens segment [e]), which makes WAL
    truncation a matter of deleting whole older segments. The segment
    header records the absolute index of its first record, so each file
    is self-describing in the global record stream. *)

val magic : string
(** ["ammboost-wal/1\n"]. *)

val segment_path : dir:string -> epoch:int -> string

(** {1 Appending} *)

type writer

val open_append : dir:string -> epoch:int -> start_index:int -> writer
(** Open (creating, with header, if absent) the segment keyed by
    [epoch]. [start_index] is written to the header only on creation. *)

val append : writer -> Record.t -> unit
(** Frame, write, flush. *)

val close : writer -> unit
val path : writer -> string

(** {1 Reading and repair} *)

type read_result = {
  rr_epoch : int;
  rr_start_index : int;
  rr_records : Record.t list;  (** the valid prefix, in append order *)
  rr_valid_len : int;          (** bytes of valid prefix, header included *)
  rr_torn : string option;     (** why reading stopped early, if it did *)
}

val read_segment : string -> (read_result, string) result
(** [Error] when the header itself is unreadable (the segment carries no
    usable records); [Ok] with the longest valid record prefix
    otherwise, [rr_torn] explaining any early stop — a truncated tail, a
    checksum mismatch, a missing commit marker, or an undecodable
    record. *)

val repair : string -> read_result -> unit
(** Rewrite the file (atomically) down to the valid prefix when the read
    reported a torn tail; no-op on a clean read. *)

val list : dir:string -> (int * string) list
(** [(epoch, path)] of every segment present, ascending by epoch. *)
