let reserved = 1 lsl 20
let universe_size = Gfp.p - reserved

let element_of_fingerprint fp = Gfp.of_int64 fp mod universe_size

let check_universe name elements =
  Array.iter
    (fun e ->
      if e < 0 || e >= universe_size then
        invalid_arg
          (Printf.sprintf "Reconcile.%s: element %d outside universe [0,%d)" name e
             universe_size))
    elements

let char_evals ~elements ~points = Array.map (fun z -> Gfp.prod_sub z elements) points

let sample_points n = Array.init n (fun i -> Gfp.p - 1 - i)

type result = {
  a_minus_b : int list;
  b_minus_a : int list;
  evals_used : int;
  attempts : int;
}

let check_points = 8

(* The distinct elements of [own] that are roots of the nonzero [f],
   sorted, when there are exactly [degree f] of them and none lies in
   [other].  A nonzero polynomial has at most [degree f] roots, so this
   accepts exactly when [f] splits into distinct linear factors whose
   roots all lie in [own] and not in [other] — the decision of
   [Poly.roots] followed by the membership test, without factoring. *)
let roots_in f ~own ~other =
  let found = ref [] in
  Array.iter (fun e -> if Poly.eval f e = 0 then found := e :: !found) own;
  let roots = List.sort_uniq compare !found in
  if List.length roots = Poly.degree f
     && not (List.exists (fun r -> Array.exists (fun e -> e = r) other) roots)
  then Some roots
  else None

let attempt_with_bound ~bound ~a ~b =
  let d = Array.length a - Array.length b in
  let bound = max bound (abs d) in
  (* The numerator/denominator degrees must differ by exactly d and sum to
     the bound, so fix parity. *)
  let total = if (bound - d) mod 2 <> 0 then bound + 1 else bound in
  let m1 = (total + d) / 2 in
  let m2 = (total - d) / 2 in
  let npoints = total + check_points in
  let points = sample_points npoints in
  let fa = char_evals ~elements:a ~points in
  let fb = char_evals ~elements:b ~points in
  let ratio = Array.init npoints (fun i -> Gfp.div fa.(i) fb.(i)) in
  (* Unknowns: p_0..p_{m1-1}, q_0..q_{m2-1}; equation per point:
     sum p_j z^j - f sum q_j z^j = f z^m2 - z^m1. *)
  let build_row i =
    let z = points.(i) in
    let f = ratio.(i) in
    let row = Array.make (m1 + m2) 0 in
    let zj = ref 1 in
    for j = 0 to m1 - 1 do
      row.(j) <- !zj;
      zj := Gfp.mul !zj z
    done;
    let zj = ref 1 in
    for j = 0 to m2 - 1 do
      row.(m1 + j) <- Gfp.neg (Gfp.mul f !zj);
      zj := Gfp.mul !zj z
    done;
    let rhs = Gfp.sub (Gfp.mul f (Gfp.pow z m2)) (Gfp.pow z m1) in
    (row, rhs)
  in
  let rows = Array.init total build_row in
  let matrix = Array.map fst rows in
  let rhs = Array.map snd rows in
  match Linalg.solve matrix rhs with
  | None -> None
  | Some x ->
      let pcoeffs = Array.append (Array.sub x 0 m1) [| 1 |] in
      let qcoeffs = Array.append (Array.sub x m1 m2) [| 1 |] in
      let p = Poly.of_coeffs (Array.to_list pcoeffs) in
      let q = Poly.of_coeffs (Array.to_list qcoeffs) in
      let g = Poly.gcd p q in
      let p = fst (Poly.divmod p g) in
      let q = fst (Poly.divmod q g) in
      (* Check-point verification: P(z) * chi_B(z) = Q(z) * chi_A(z). *)
      let ok = ref true in
      for i = total to npoints - 1 do
        let z = points.(i) in
        let lhs = Gfp.mul (Poly.eval p z) fb.(i) in
        let rhs = Gfp.mul (Poly.eval q z) fa.(i) in
        if lhs <> rhs then ok := false
      done;
      if not !ok then None
      else begin
        match roots_in p ~own:a ~other:b with
        | None -> None
        | Some a_minus_b -> (
            match roots_in q ~own:b ~other:a with
            | None -> None
            | Some b_minus_a ->
                Some { a_minus_b; b_minus_a; evals_used = npoints; attempts = 1 })
      end

let diff_with_bound ?rng:_ ~bound ~a ~b () =
  check_universe "diff_with_bound" a;
  check_universe "diff_with_bound" b;
  attempt_with_bound ~bound ~a ~b

let diff ?rng:_ ?(max_bound = 1024) ~a ~b () =
  check_universe "diff" a;
  check_universe "diff" b;
  let d = abs (Array.length a - Array.length b) in
  (* An attempt is a deterministic function of the clamped bound
     [max bound d], and the clamped bounds never decrease, so one that
     failed is remembered and skipped (still counted) while doubling
     has not yet passed it. *)
  let rec loop bound attempts failed =
    if bound > max_bound then None
    else begin
      let clamped = max bound d in
      let outcome =
        if clamped = failed then None
        else attempt_with_bound ~bound:clamped ~a ~b
      in
      match outcome with
      | Some r -> Some { r with attempts }
      | None -> loop (bound * 2) (attempts + 1) clamped
    end
  in
  loop 8 1 (-1)
