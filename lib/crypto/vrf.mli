(** Verifiable random function built on the BLS signature (the classic
    BLS-VRF construction): the proof is the unique signature on the input,
    and the output is its hash. Used by the committee election
    (cryptographic-sortition style, as in Algorand and chainBoost). *)

type proof

val evaluate : Bls.secret_key -> bytes -> bytes * proof
(** [(output, proof)] for this key on the input; output is 32 bytes. *)

val verify : Bls.public_key -> bytes -> proof -> bytes option
(** [Some output] when the proof is valid for the key and input. *)
