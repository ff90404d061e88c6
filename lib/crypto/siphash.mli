(** SipHash-2-4: a keyed 64-bit pseudo-random function.

    The dissertation's prototype computes packet fingerprints with
    UHASH/UMAC (§5.3.1, §7.1); UMAC is not available offline, so we
    substitute SipHash-2-4, which provides the same abstract guarantee the
    protocols need — a fast keyed PRF whose outputs an adversary without
    the key can neither predict nor collide. *)

type key = { k0 : int64; k1 : int64 }
(** A 128-bit key as two 64-bit halves. *)

val key_of_ints : int64 -> int64 -> key
(** Build a key from its two halves. *)

val key_of_string : string -> key
(** Derive a key from arbitrary seed material (FNV expansion); convenient
    for tests and key rings. *)

val hash : key -> string -> int64
(** SipHash-2-4 of a byte string (matches the reference test vectors).
    The state lives in unboxed locals: a call allocates only its boxed
    [int64] result, whatever the length. *)

val hash_int64s : key -> int64 list -> int64
(** SipHash-2-4 of the little-endian concatenation of the given words;
    used to fingerprint packet identity tuples without building strings.
    Like {!hash}, allocates only its result. *)
