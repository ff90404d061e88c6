(** Dense linear algebra over {!Gfp} for rational-function interpolation. *)

val solve : int array array -> int array -> int array option
(** [solve m rhs] finds some [x] with [m x = rhs] by forward elimination
    (first nonzero pivot at or below the current row) and
    back-substitution; free variables are set to 0, which makes [x] the
    one solution full Gauss–Jordan reduction would give.
    Returns [None] if the system is inconsistent.  [m] is an array of
    rows; neither [m] nor [rhs] is mutated. *)
