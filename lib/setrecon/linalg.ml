(* Forward elimination to row echelon form, then back-substitution.
   Rows below the current pivot row see exactly the updates Gauss–Jordan
   would give them, so the pivot choices, the rank and the consistency
   verdict are the same as full reduction's; with free variables at 0
   the solution is unique, so it is the same too.  Elimination below the
   pivot only costs about n^3/3 multiply-adds against Gauss–Jordan's
   n^3/2. *)
let solve m rhs =
  let rows = Array.length m in
  if rows = 0 then Some [||]
  else begin
    let cols = Array.length m.(0) in
    let a = Array.map Array.copy m in
    let b = Array.copy rhs in
    let pivot_col_of_row = Array.make rows (-1) in
    let rank = ref 0 in
    let col = ref 0 in
    while !rank < rows && !col < cols do
      let r0 = !rank and c = !col in
      (* First nonzero pivot in this column at or below [r0]. *)
      let pr = ref r0 in
      while !pr < rows && a.(!pr).(c) = 0 do incr pr done;
      if !pr < rows then begin
        let pr = !pr in
        if pr <> r0 then begin
          let tmp = a.(pr) in
          a.(pr) <- a.(r0);
          a.(r0) <- tmp;
          let tb = b.(pr) in
          b.(pr) <- b.(r0);
          b.(r0) <- tb
        end;
        let prow = a.(r0) in
        let inv = Gfp.inv prow.(c) in
        for j = c to cols - 1 do
          prow.(j) <- Gfp.mul prow.(j) inv
        done;
        let pb = Gfp.mul b.(r0) inv in
        b.(r0) <- pb;
        for r = r0 + 1 to rows - 1 do
          let row = a.(r) in
          let f = row.(c) in
          if f <> 0 then begin
            row.(c) <- 0;
            Gfp.axpy (Gfp.neg f) prow row ~from:(c + 1);
            b.(r) <- Gfp.sub b.(r) (Gfp.mul f pb)
          end
        done;
        pivot_col_of_row.(r0) <- c;
        incr rank
      end;
      incr col
    done;
    (* Inconsistency: a zero row with nonzero rhs. *)
    let inconsistent = ref false in
    for r = !rank to rows - 1 do
      if b.(r) <> 0 then inconsistent := true
    done;
    if !inconsistent then None
    else begin
      (* Free variables are 0, so only pivot columns carry terms. *)
      let x = Array.make cols 0 in
      for r = !rank - 1 downto 0 do
        let row = a.(r) in
        let c = pivot_col_of_row.(r) in
        let acc = ref b.(r) in
        for j = c + 1 to cols - 1 do
          acc := Gfp.sub !acc (Gfp.mul row.(j) x.(j))
        done;
        x.(c) <- !acc
      done;
      Some x
    end
  end
