(** Arithmetic in the prime field GF(p) with p = 2^31 - 1.

    The substrate for the set reconciliation algorithm of Appendix A
    (Minsky–Trachtenberg characteristic-polynomial interpolation).
    Elements are represented as [int] in [0, p). *)

val p : int
(** The field modulus, the Mersenne prime 2^31 - 1. *)

val of_int : int -> int
(** Canonical representative of an arbitrary integer (handles negatives). *)

val of_int64 : int64 -> int
(** Reduce a 64-bit fingerprint into the field. *)

val add : int -> int -> int
val sub : int -> int -> int
val neg : int -> int
val mul : int -> int -> int
(** Product by Mersenne reduction, without a division.  Both operands
    must be canonical elements, as every function here returns. *)

val axpy : int -> int array -> int array -> from:int -> unit
(** [axpy k x y ~from] sets [y.(j) <- y.(j) + k * x.(j)] for every
    [j >= from] of [y] ([x] at least as long): a row operation of
    elimination, one reduction per element.  Operands canonical. *)

val prod_sub : int -> int array -> int
(** [prod_sub z es] is the product of [z - e] over [es]: the
    characteristic polynomial of [es] evaluated at [z].  Operands
    canonical. *)

val inv : int -> int
(** Multiplicative inverse; raises [Division_by_zero] on 0. *)

val div : int -> int -> int
(** [div a b = mul a (inv b)]. *)

val pow : int -> int -> int
(** [pow a e] with [e >= 0], by square-and-multiply. *)
