(* Tests for the setrecon substrate: GF(p) arithmetic, polynomials,
   Cantor-Zassenhaus root finding, the Appendix A reconciliation
   algorithm, and Bloom filters. *)

open Setrecon

let rng () = Random.State.make [| 1234 |]

(* --- Gfp --- *)

let test_gfp_basics () =
  Alcotest.(check int) "add wraps" 0 (Gfp.add (Gfp.p - 1) 1);
  Alcotest.(check int) "sub wraps" (Gfp.p - 1) (Gfp.sub 0 1);
  Alcotest.(check int) "neg" (Gfp.p - 5) (Gfp.neg 5);
  Alcotest.(check int) "neg zero" 0 (Gfp.neg 0);
  Alcotest.(check int) "of_int negative" (Gfp.p - 3) (Gfp.of_int (-3))

let test_gfp_inverse () =
  let st = rng () in
  for _ = 1 to 200 do
    let a = 1 + Random.State.full_int st (Gfp.p - 1) in
    Alcotest.(check int) "a * inv a = 1" 1 (Gfp.mul a (Gfp.inv a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Gfp.inv 0))

let test_gfp_pow () =
  Alcotest.(check int) "a^0" 1 (Gfp.pow 12345 0);
  Alcotest.(check int) "a^1" 12345 (Gfp.pow 12345 1);
  Alcotest.(check int) "a^2" (Gfp.mul 12345 12345) (Gfp.pow 12345 2);
  (* Fermat: a^(p-1) = 1. *)
  Alcotest.(check int) "fermat" 1 (Gfp.pow 987654321 (Gfp.p - 1))

let test_gfp_of_int64 () =
  let x = Gfp.of_int64 Int64.max_int in
  Alcotest.(check bool) "in range" true (x >= 0 && x < Gfp.p);
  Alcotest.(check bool) "negative mapped" true
    (let y = Gfp.of_int64 (-42L) in
     y >= 0 && y < Gfp.p)

(* --- Poly --- *)

let test_poly_normalize () =
  Alcotest.(check int) "trailing zeros dropped" 1 (Poly.degree (Poly.of_coeffs [ 1; 2; 0; 0 ]));
  Alcotest.(check bool) "zero poly" true (Poly.is_zero (Poly.of_coeffs [ 0; 0 ]));
  Alcotest.(check int) "zero degree" (-1) (Poly.degree Poly.zero)

let test_poly_arith () =
  let a = Poly.of_coeffs [ 1; 2; 3 ] in
  let b = Poly.of_coeffs [ 5; 1 ] in
  Alcotest.(check bool) "add" true (Poly.equal (Poly.add a b) (Poly.of_coeffs [ 6; 3; 3 ]));
  Alcotest.(check bool) "sub roundtrip" true (Poly.equal (Poly.sub (Poly.add a b) b) a);
  (* (x+2)(x+3) = x^2 + 5x + 6 *)
  let prod = Poly.mul (Poly.of_coeffs [ 2; 1 ]) (Poly.of_coeffs [ 3; 1 ]) in
  Alcotest.(check bool) "mul" true (Poly.equal prod (Poly.of_coeffs [ 6; 5; 1 ]))

let test_poly_divmod () =
  let a = Poly.of_coeffs [ 7; 0; 2; 1 ] in
  let b = Poly.of_coeffs [ 1; 1 ] in
  let q, r = Poly.divmod a b in
  Alcotest.(check bool) "a = q*b + r" true (Poly.equal a (Poly.add (Poly.mul q b) r));
  Alcotest.(check bool) "deg r < deg b" true (Poly.degree r < Poly.degree b);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Poly.divmod a Poly.zero))

let test_poly_eval_roots () =
  let f = Poly.from_roots [ 3; 17; 100000 ] in
  Alcotest.(check int) "degree" 3 (Poly.degree f);
  Alcotest.(check int) "root 3" 0 (Poly.eval f 3);
  Alcotest.(check int) "root 17" 0 (Poly.eval f 17);
  Alcotest.(check int) "root 100000" 0 (Poly.eval f 100000);
  Alcotest.(check bool) "non-root" true (Poly.eval f 4 <> 0);
  Alcotest.(check int) "monic" 1 (Poly.leading f)

let test_poly_gcd () =
  let a = Poly.from_roots [ 1; 2; 3 ] in
  let b = Poly.from_roots [ 2; 3; 4 ] in
  let g = Poly.gcd a b in
  Alcotest.(check bool) "gcd = (x-2)(x-3)" true (Poly.equal g (Poly.from_roots [ 2; 3 ]))

let test_poly_pow_mod () =
  let modulus = Poly.from_roots [ 5; 9 ] in
  (* x^(p) mod f should evaluate at root r to r^p = r (Fermat). *)
  let xp = Poly.pow_mod (Poly.of_coeffs [ 0; 1 ]) Gfp.p ~modulus in
  Alcotest.(check int) "at 5" 5 (Poly.eval xp 5);
  Alcotest.(check int) "at 9" 9 (Poly.eval xp 9)

let test_poly_roots_small () =
  let roots = [ 2; 7; 11; 500; 123456 ] in
  let f = Poly.from_roots roots in
  match Poly.roots ~rng:(rng ()) f with
  | None -> Alcotest.fail "expected roots"
  | Some rs -> Alcotest.(check (list int)) "all roots found" roots rs

let test_poly_roots_constant () =
  match Poly.roots ~rng:(rng ()) Poly.one with
  | Some [] -> ()
  | _ -> Alcotest.fail "constant poly has no roots"

let test_poly_roots_rejects_irreducible () =
  (* x^2 + 1 is irreducible over GF(p) when p = 3 mod 4 (2^31-1 is). *)
  let f = Poly.of_coeffs [ 1; 0; 1 ] in
  match Poly.roots ~rng:(rng ()) f with
  | None -> ()
  | Some _ -> Alcotest.fail "irreducible quadratic must be rejected"

let test_poly_roots_rejects_repeated () =
  (* (x-4)^2 has a repeated factor; reconciliation polynomials never do,
     so the signal is None. *)
  let f = Poly.mul (Poly.from_roots [ 4 ]) (Poly.from_roots [ 4 ]) in
  match Poly.roots ~rng:(rng ()) f with
  | None -> ()
  | Some _ -> Alcotest.fail "repeated root must be rejected"

let test_poly_roots_large_set () =
  let st = rng () in
  let roots =
    List.sort_uniq compare (List.init 60 (fun _ -> Random.State.int st 1000000))
  in
  let f = Poly.from_roots roots in
  match Poly.roots ~rng:st f with
  | None -> Alcotest.fail "expected roots"
  | Some rs -> Alcotest.(check (list int)) "all recovered" roots rs

(* --- Linalg --- *)

let test_linalg_identity () =
  let m = [| [| 1; 0 |]; [| 0; 1 |] |] in
  match Linalg.solve m [| 5; 7 |] with
  | Some x -> Alcotest.(check (array int)) "solution" [| 5; 7 |] x
  | None -> Alcotest.fail "solvable"

let test_linalg_solves () =
  (* 2x + y = 12, x + y = 7  =>  x = 5, y = 2 *)
  let m = [| [| 2; 1 |]; [| 1; 1 |] |] in
  match Linalg.solve m [| 12; 7 |] with
  | Some x ->
      Alcotest.(check int) "x" 5 x.(0);
      Alcotest.(check int) "y" 2 x.(1)
  | None -> Alcotest.fail "solvable"

let test_linalg_inconsistent () =
  let m = [| [| 1; 1 |]; [| 1; 1 |] |] in
  match Linalg.solve m [| 1; 2 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "inconsistent system must be rejected"

let test_linalg_underdetermined () =
  (* One equation, two unknowns: free var set to 0. *)
  let m = [| [| 1; 1 |] |] in
  match Linalg.solve m [| 9 |] with
  | Some x -> Alcotest.(check int) "x + y" 9 (Gfp.add x.(0) x.(1))
  | None -> Alcotest.fail "solvable"

let test_linalg_does_not_mutate () =
  let m = [| [| 2; 1 |]; [| 1; 1 |] |] in
  let rhs = [| 12; 7 |] in
  ignore (Linalg.solve m rhs);
  Alcotest.(check (array int)) "matrix untouched" [| 2; 1 |] m.(0);
  Alcotest.(check (array int)) "rhs untouched" [| 12; 7 |] rhs

(* --- Reconcile --- *)

let check_diff ~a ~b ~expect_ab ~expect_ba =
  match Reconcile.diff ~rng:(rng ()) ~a ~b () with
  | None -> Alcotest.fail "reconciliation failed"
  | Some r ->
      Alcotest.(check (list int)) "a - b" (List.sort compare expect_ab) r.Reconcile.a_minus_b;
      Alcotest.(check (list int)) "b - a" (List.sort compare expect_ba) r.Reconcile.b_minus_a

let test_reconcile_disjoint_small () =
  check_diff ~a:[| 1; 2; 3 |] ~b:[| 4; 5 |] ~expect_ab:[ 1; 2; 3 ] ~expect_ba:[ 4; 5 ]

let test_reconcile_identical () =
  check_diff ~a:[| 10; 20; 30 |] ~b:[| 30; 10; 20 |] ~expect_ab:[] ~expect_ba:[]

let test_reconcile_subset () =
  check_diff ~a:[| 1; 2; 3; 4; 5 |] ~b:[| 2; 4 |] ~expect_ab:[ 1; 3; 5 ] ~expect_ba:[];
  check_diff ~a:[| 2; 4 |] ~b:[| 1; 2; 3; 4; 5 |] ~expect_ab:[] ~expect_ba:[ 1; 3; 5 ]

let test_reconcile_empty_sides () =
  check_diff ~a:[||] ~b:[| 7; 8 |] ~expect_ab:[] ~expect_ba:[ 7; 8 ];
  check_diff ~a:[| 7 |] ~b:[||] ~expect_ab:[ 7 ] ~expect_ba:[];
  check_diff ~a:[||] ~b:[||] ~expect_ab:[] ~expect_ba:[]

let test_reconcile_large_overlap () =
  (* 500 shared elements, small difference: cost must stay proportional to
     the difference, not the sets. *)
  let st = rng () in
  let shared = Array.init 500 (fun i -> (i * 4099) + 17) in
  let only_a = [| 999983; 999979 |] in
  let only_b = [| 888887; 888873; 888811 |] in
  ignore st;
  let a = Array.append shared only_a in
  let b = Array.append shared only_b in
  (match Reconcile.diff ~rng:(rng ()) ~a ~b () with
  | None -> Alcotest.fail "reconciliation failed"
  | Some r ->
      Alcotest.(check (list int)) "a-b" (List.sort compare (Array.to_list only_a))
        r.Reconcile.a_minus_b;
      Alcotest.(check (list int)) "b-a" (List.sort compare (Array.to_list only_b))
        r.Reconcile.b_minus_a;
      Alcotest.(check bool) "communication sublinear" true (r.Reconcile.evals_used < 100))

let test_reconcile_with_bound_exact () =
  let a = [| 1; 2; 3; 50; 60 |] and b = [| 1; 2; 3; 70 |] in
  match Reconcile.diff_with_bound ~rng:(rng ()) ~bound:3 ~a ~b () with
  | None -> Alcotest.fail "bound 3 suffices"
  | Some r ->
      Alcotest.(check (list int)) "a-b" [ 50; 60 ] r.Reconcile.a_minus_b;
      Alcotest.(check (list int)) "b-a" [ 70 ] r.Reconcile.b_minus_a

let test_reconcile_bound_too_small () =
  (* 10 differing elements, bound 4: must be detected and refused. *)
  let a = Array.init 10 (fun i -> (i * 7919) + 1) in
  let b = [| 2 |] in
  match Reconcile.diff_with_bound ~rng:(rng ()) ~bound:4 ~a ~b () with
  | None -> ()
  | Some _ -> Alcotest.fail "undersized bound must fail verification"

let test_reconcile_doubling_recovers () =
  (* A balanced difference (|d| small) so the initial bound of 8 genuinely
     undershoots and the doubling loop must engage. *)
  let shared = Array.init 10 (fun i -> 500000 + i) in
  let a = Array.append shared (Array.init 20 (fun i -> (i * 104729) + 1)) in
  let b = Array.append shared (Array.init 18 (fun i -> (i * 999983) + 2)) in
  match Reconcile.diff ~rng:(rng ()) ~a ~b () with
  | None -> Alcotest.fail "doubling should reach the needed bound"
  | Some r ->
      Alcotest.(check int) "a-b size" 20 (List.length r.Reconcile.a_minus_b);
      Alcotest.(check int) "b-a size" 18 (List.length r.Reconcile.b_minus_a);
      Alcotest.(check bool) "took multiple attempts" true (r.Reconcile.attempts > 1)

let test_reconcile_universe_guard () =
  Alcotest.(check bool) "rejects out-of-universe" true
    (try
       ignore (Reconcile.diff ~a:[| Gfp.p - 1 |] ~b:[||] ());
       false
     with Invalid_argument _ -> true)

let test_element_of_fingerprint_range () =
  List.iter
    (fun fp ->
      let e = Reconcile.element_of_fingerprint fp in
      Alcotest.(check bool) "in universe" true (e >= 0 && e < Reconcile.universe_size))
    [ 0L; 1L; Int64.max_int; Int64.min_int; -1L; 0xdeadbeef12345678L ]

let test_char_evals () =
  let elements = [| 2; 5 |] in
  let points = [| 10; 11 |] in
  let evals = Reconcile.char_evals ~elements ~points in
  (* (10-2)(10-5) = 40; (11-2)(11-5) = 54 *)
  Alcotest.(check (array int)) "evals" [| 40; 54 |] evals

let prop_reconcile_random =
  QCheck.Test.make ~name:"reconcile random sets" ~count:30
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 25) (int_bound 1000000))
        (list_of_size Gen.(int_range 0 25) (int_bound 1000000)))
    (fun (la, lb) ->
      let a = Array.of_list (List.sort_uniq compare la) in
      let b = Array.of_list (List.sort_uniq compare lb) in
      let module S = Set.Make (Int) in
      let sa = S.of_list (Array.to_list a) and sb = S.of_list (Array.to_list b) in
      match Reconcile.diff ~rng:(rng ()) ~a ~b () with
      | None -> false
      | Some r ->
          r.Reconcile.a_minus_b = S.elements (S.diff sa sb)
          && r.Reconcile.b_minus_a = S.elements (S.diff sb sa))

(* --- Differential checks against the reference decoder ---

   The library decodes by forward elimination and by evaluating the
   recovered polynomials over each party's own set, and it skips a
   clamped bound that has already failed.  The reference below is the
   straightforward version those replace: Gauss–Jordan reduction,
   Cantor–Zassenhaus root finding ([Poly.roots]) and a membership check
   of the roots against both sets, one attempt per doubling step.  The
   two must agree on every field of every result, [None] included.
   Field arithmetic in the reference is [a * b mod p]. *)

let ref_mul a b = a * b mod Gfp.p
let ref_sub a b = Gfp.of_int (a - b)

(* Gauss–Jordan: full reduction, pivots normalized, free variables 0. *)
let ref_solve m rhs =
  let rows = Array.length m in
  if rows = 0 then Some [||]
  else begin
    let cols = Array.length m.(0) in
    let a = Array.map Array.copy m and b = Array.copy rhs in
    let pivot_col = Array.make rows (-1) in
    let row = ref 0 and col = ref 0 in
    while !row < rows && !col < cols do
      let r0 = !row and c = !col in
      match List.find_opt (fun r -> a.(r).(c) <> 0) (List.init (rows - r0) (( + ) r0)) with
      | None -> incr col
      | Some pr ->
          let t = a.(pr) in
          a.(pr) <- a.(r0);
          a.(r0) <- t;
          let t = b.(pr) in
          b.(pr) <- b.(r0);
          b.(r0) <- t;
          let inv = Gfp.inv a.(r0).(c) in
          a.(r0) <- Array.map (fun v -> ref_mul v inv) a.(r0);
          b.(r0) <- ref_mul b.(r0) inv;
          for r = 0 to rows - 1 do
            let f = a.(r).(c) in
            if r <> r0 && f <> 0 then begin
              a.(r) <- Array.mapi (fun j v -> ref_sub v (ref_mul f a.(r0).(j))) a.(r);
              b.(r) <- ref_sub b.(r) (ref_mul f b.(r0))
            end
          done;
          pivot_col.(r0) <- c;
          incr row;
          incr col
    done;
    let rank = !row in
    if List.exists (fun r -> b.(r) <> 0) (List.init (rows - rank) (( + ) rank)) then None
    else begin
      let x = Array.make cols 0 in
      for r = 0 to rank - 1 do
        x.(pivot_col.(r)) <- b.(r)
      done;
      Some x
    end
  end

let ref_attempt ~bound ~a ~b =
  let d = Array.length a - Array.length b in
  let bound = max bound (abs d) in
  let total = if (bound - d) mod 2 <> 0 then bound + 1 else bound in
  let m1 = (total + d) / 2 and m2 = (total - d) / 2 in
  let npoints = total + 8 in
  let points = Array.init npoints (fun i -> Gfp.p - 1 - i) in
  let chi set z = Array.fold_left (fun acc e -> ref_mul acc (ref_sub z e)) 1 set in
  let fa = Array.map (chi a) points and fb = Array.map (chi b) points in
  let rows =
    Array.init total (fun i ->
        let z = points.(i) and f = ref_mul fa.(i) (Gfp.inv fb.(i)) in
        let pow = Array.make (max m1 m2 + 1) 1 in
        for k = 1 to max m1 m2 do
          pow.(k) <- ref_mul pow.(k - 1) z
        done;
        ( Array.init (m1 + m2) (fun j ->
              if j < m1 then pow.(j) else ref_sub 0 (ref_mul f pow.(j - m1))),
          ref_sub (ref_mul f pow.(m2)) pow.(m1) ))
  in
  match ref_solve (Array.map fst rows) (Array.map snd rows) with
  | None -> None
  | Some x ->
      let poly lo n = Poly.of_coeffs (Array.to_list (Array.append (Array.sub x lo n) [| 1 |])) in
      let p = poly 0 m1 and q = poly m1 m2 in
      let g = Poly.gcd p q in
      let p = fst (Poly.divmod p g) and q = fst (Poly.divmod q g) in
      let checks_ok =
        List.for_all
          (fun i ->
            let z = points.(i) in
            ref_mul (Poly.eval p z) fb.(i) = ref_mul (Poly.eval q z) fa.(i))
          (List.init 8 (( + ) total))
      in
      let rng = rng () in
      let mem set r = Array.exists (( = ) r) set in
      let distinct rs = List.length (List.sort_uniq compare rs) = List.length rs in
      if not checks_ok then None
      else begin
        match (Poly.roots ~rng p, Poly.roots ~rng q) with
        | Some rp, Some rq
          when distinct rp && distinct rq
               && List.for_all (fun r -> mem a r && not (mem b r)) rp
               && List.for_all (fun r -> mem b r && not (mem a r)) rq
               && List.length rp - List.length rq = d ->
            Some
              { Reconcile.a_minus_b = List.sort compare rp;
                b_minus_a = List.sort compare rq;
                evals_used = npoints;
                attempts = 1 }
        | _ -> None
      end

let ref_diff ~max_bound ~a ~b =
  let rec loop bound attempts =
    if bound > max_bound then None
    else
      match ref_attempt ~bound ~a ~b with
      | Some r -> Some { r with Reconcile.attempts }
      | None -> loop (bound * 2) (attempts + 1)
  in
  loop 8 1

let show_result = function
  | None -> "None"
  | Some r ->
      Printf.sprintf "a-b=[%s] b-a=[%s] evals=%d attempts=%d"
        (String.concat ";" (List.map string_of_int r.Reconcile.a_minus_b))
        (String.concat ";" (List.map string_of_int r.Reconcile.b_minus_a))
        r.Reconcile.evals_used r.Reconcile.attempts

(* Two sets sharing a common part, each with its own extras, drawn from
   a universe of [universe] elements.  In a tiny universe the extras
   collide with the other side; a quarter of the instances also keep
   repeated elements, which never decode, so those runs double all the
   way to [max_bound]. *)
let gen_instance ~universe ~max_bounds =
  QCheck.Gen.(
    let elts n = list_repeat n (int_bound (universe - 1)) in
    int_range 0 40 >>= fun ns ->
    int_range 0 30 >>= fun na ->
    int_range 0 30 >>= fun nb ->
    quad (elts ns) (pair (elts na) (elts nb)) (oneofl max_bounds) (int_bound 3)
    >|= fun (shared, (xa, xb), max_bound, keep_repeats) ->
    let side l = Array.of_list (if keep_repeats = 0 then l else List.sort_uniq compare l) in
    (side (shared @ xa), side (shared @ xb), max_bound))

let prop_diff_matches_reference ~name ~universe ~max_bounds =
  QCheck.Test.make ~name ~count:150
    (QCheck.make
       ~print:(fun (a, b, mb) ->
         Printf.sprintf "a=[%s] b=[%s] max_bound=%d"
           (String.concat ";" (Array.to_list (Array.map string_of_int a)))
           (String.concat ";" (Array.to_list (Array.map string_of_int b)))
           mb)
       (gen_instance ~universe ~max_bounds))
    (fun (a, b, max_bound) ->
      let got = Reconcile.diff ~max_bound ~a ~b () in
      let want = ref_diff ~max_bound ~a ~b in
      if got = want then true
      else
        QCheck.Test.fail_reportf "library %s, reference %s" (show_result got)
          (show_result want))

(* Small systems with entries from a handful of values, so that rank
   deficiency and inconsistent right-hand sides are common. *)
let gen_system =
  QCheck.Gen.(
    int_range 1 7 >>= fun rows ->
    int_range 1 7 >>= fun cols ->
    let entry =
      frequency
        [ (4, return 0); (2, return 1); (1, return (Gfp.p - 1));
          (1, int_bound (Gfp.p - 1)) ]
    in
    pair (array_repeat rows (array_repeat cols entry)) (array_repeat rows entry)
    >>= fun (m, rhs) ->
    (* Sometimes copy a row onto another, keeping or breaking consistency. *)
    bool >|= fun dup ->
    if dup && rows > 1 then begin
      m.(rows - 1) <- Array.copy m.(0);
      rhs.(rows - 1) <- rhs.(0)
    end;
    (m, rhs))

let prop_solve_matches_reference =
  QCheck.Test.make ~name:"solve matches Gauss-Jordan" ~count:500
    (QCheck.make
       ~print:(fun (m, rhs) ->
         let row r = String.concat " " (Array.to_list (Array.map string_of_int r)) in
         String.concat " | " (Array.to_list (Array.map row m)) ^ " = " ^ row rhs)
       gen_system)
    (fun (m, rhs) -> Linalg.solve m rhs = ref_solve m rhs)

let test_solve_rank_deficient_cases () =
  (* Rank 1 of 3 (consistent and not), and a zero column before a pivot. *)
  let m = [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 3; 6; 9 |] |] in
  Alcotest.(check (option (array int))) "consistent rank 1" (ref_solve m [| 1; 2; 3 |])
    (Linalg.solve m [| 1; 2; 3 |]);
  Alcotest.(check (option (array int))) "inconsistent rank 1" None (Linalg.solve m [| 1; 2; 4 |]);
  let m = [| [| 0; 5; 1 |]; [| 0; 0; 2 |] |] in
  Alcotest.(check (option (array int))) "zero column" (ref_solve m [| 7; 4 |])
    (Linalg.solve m [| 7; 4 |])

let field_edges = [ 0; 1; 2; Gfp.p - 2; Gfp.p - 1; (Gfp.p - 1) / 2; 1 lsl 30 ]

let test_gfp_mul_edges () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) (Printf.sprintf "%d * %d" a b) (a * b mod Gfp.p) (Gfp.mul a b))
        field_edges)
    field_edges

let prop_gfp_mul =
  QCheck.Test.make ~name:"mul matches a * b mod p" ~count:2000
    QCheck.(
      let elt = Gen.(frequency [ (1, oneofl field_edges); (4, int_bound (Gfp.p - 1)) ]) in
      make ~print:Print.(pair int int) Gen.(pair elt elt))
    (fun (a, b) -> Gfp.mul a b = a * b mod Gfp.p)

let prop_gfp_kernels =
  QCheck.Test.make ~name:"axpy and prod_sub match mul" ~count:300
    QCheck.(
      let elt = Gen.(frequency [ (1, oneofl field_edges); (4, int_bound (Gfp.p - 1)) ]) in
      make
        ~print:Print.(triple int (array int) (array int))
        Gen.(int_range 0 7 >>= fun n -> triple elt (array_repeat n elt) (array_repeat n elt)))
    (fun (k, x, y) ->
      let want_prod = Array.fold_left (fun acc e -> ref_mul acc (ref_sub k e)) 1 x in
      let from = Array.length y / 2 in
      let want_y =
        Array.mapi (fun j v -> if j < from then v else (v + ref_mul k x.(j)) mod Gfp.p) y
      in
      let got_y = Array.copy y in
      Gfp.axpy k x got_y ~from;
      Gfp.prod_sub k x = want_prod && got_y = want_y)

(* The [max_bound] test looks at the unclamped bound, so a size
   difference beyond [max_bound] still gets its one attempt. *)
let test_reconcile_clamp_beyond_max_bound () =
  let a = Array.init 40 (fun i -> (i * 7919) + 3) in
  (match Reconcile.diff ~max_bound:16 ~a ~b:[||] () with
  | None -> Alcotest.fail "|d| = 40 > max_bound 16 is still attempted at bound 40"
  | Some r ->
      Alcotest.(check (list int)) "a-b" (Array.to_list a) r.Reconcile.a_minus_b;
      Alcotest.(check int) "evals at bound 40" 48 r.Reconcile.evals_used;
      Alcotest.(check int) "one attempt" 1 r.Reconcile.attempts);
  (* A difference beyond both max_bound and |d| is refused. *)
  let b = Array.init 30 (fun i -> (i * 104729) + 5) in
  let a = Array.sub a 0 20 in
  Alcotest.(check bool) "50 > max(16, 10) refused" true
    (Reconcile.diff ~max_bound:16 ~a ~b () = None)

(* Skipped repeats of a failed clamped bound still count as attempts. *)
let test_reconcile_attempts_count_skipped () =
  let a = Array.init 41 (fun i -> (i * 7919) + 3) in
  let b = [| 999_999 |] in
  match Reconcile.diff ~a ~b () with
  | None -> Alcotest.fail "bound 64 suffices"
  | Some r ->
      (* Bounds 8, 16 and 32 all clamp to |d| = 40, which fails; 64 succeeds. *)
      Alcotest.(check int) "attempts" 4 r.Reconcile.attempts;
      Alcotest.(check int) "evals at bound 64" 72 r.Reconcile.evals_used;
      Alcotest.(check bool) "matches reference" true
        (Some r = ref_diff ~max_bound:1024 ~a ~b)

(* With a repeated element the one-sided difference is a multiset: here
   it is {5, 9}, whose polynomial decodes cleanly, but 5 is also in b,
   so the membership check must refuse it. *)
let test_reconcile_root_in_both_sides () =
  let a = [| 5; 5; 9 |] and b = [| 5 |] in
  Alcotest.(check bool) "refused" true (Reconcile.diff ~max_bound:16 ~a ~b () = None);
  Alcotest.(check bool) "reference agrees" true (ref_diff ~max_bound:16 ~a ~b = None)

let differential_rand () = Random.State.make [| 0x5e7 |]

(* --- Bloom --- *)

let test_bloom_membership () =
  let f = Bloom.create ~bits:4096 () in
  let members = List.init 100 (fun i -> Int64.of_int ((i * 37) + 5)) in
  List.iter (Bloom.add f) members;
  List.iter
    (fun fp -> Alcotest.(check bool) "no false negative" true (Bloom.mem f fp))
    members

let test_bloom_false_positive_rate () =
  let f = Bloom.create ~bits:8192 ~hashes:4 () in
  for i = 0 to 499 do
    Bloom.add f (Int64.of_int (i * 13))
  done;
  let fps = ref 0 in
  let probes = 5000 in
  for i = 0 to probes - 1 do
    if Bloom.mem f (Int64.of_int (1000000 + (i * 7))) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  Alcotest.(check bool) (Printf.sprintf "fp rate %.4f < 0.15" rate) true (rate < 0.15)

let test_bloom_cardinality () =
  let f = Bloom.create ~bits:16384 ~hashes:4 () in
  for i = 0 to 299 do
    Bloom.add f (Int64.of_int (i * 101))
  done;
  let est = Bloom.cardinality_estimate f in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f near 300" est)
    true
    (Float.abs (est -. 300.0) < 30.0)

let test_bloom_symmetric_difference () =
  let fa = Bloom.create ~bits:16384 ~hashes:4 () in
  let fb = Bloom.create ~bits:16384 ~hashes:4 () in
  (* 200 shared, 30 only in A, 20 only in B. *)
  for i = 0 to 199 do
    Bloom.add fa (Int64.of_int i);
    Bloom.add fb (Int64.of_int i)
  done;
  for i = 0 to 29 do
    Bloom.add fa (Int64.of_int (10000 + i))
  done;
  for i = 0 to 19 do
    Bloom.add fb (Int64.of_int (20000 + i))
  done;
  let est = Bloom.symmetric_difference_estimate ~na:230 ~nb:220 fa fb in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f near 50" est)
    true
    (Float.abs (est -. 50.0) < 15.0)

let test_bloom_shape_mismatch () =
  let fa = Bloom.create ~bits:64 () and fb = Bloom.create ~bits:128 () in
  Alcotest.check_raises "shape" (Invalid_argument "Bloom.union_estimate: filters have different shapes")
    (fun () -> ignore (Bloom.union_estimate fa fb))

let test_bloom_invalid () =
  Alcotest.check_raises "bits" (Invalid_argument "Bloom.create: bits must be positive")
    (fun () -> ignore (Bloom.create ~bits:0 ()))

let () =
  Alcotest.run "setrecon"
    [ ( "gfp",
        [ Alcotest.test_case "basics" `Quick test_gfp_basics;
          Alcotest.test_case "inverse" `Quick test_gfp_inverse;
          Alcotest.test_case "pow" `Quick test_gfp_pow;
          Alcotest.test_case "of_int64" `Quick test_gfp_of_int64;
          Alcotest.test_case "mul edges" `Quick test_gfp_mul_edges;
          QCheck_alcotest.to_alcotest ~rand:(differential_rand ()) prop_gfp_mul;
          QCheck_alcotest.to_alcotest ~rand:(differential_rand ()) prop_gfp_kernels ] );
      ( "poly",
        [ Alcotest.test_case "normalize" `Quick test_poly_normalize;
          Alcotest.test_case "arith" `Quick test_poly_arith;
          Alcotest.test_case "divmod" `Quick test_poly_divmod;
          Alcotest.test_case "eval/from_roots" `Quick test_poly_eval_roots;
          Alcotest.test_case "gcd" `Quick test_poly_gcd;
          Alcotest.test_case "pow_mod" `Quick test_poly_pow_mod;
          Alcotest.test_case "roots small" `Quick test_poly_roots_small;
          Alcotest.test_case "roots constant" `Quick test_poly_roots_constant;
          Alcotest.test_case "rejects irreducible" `Quick test_poly_roots_rejects_irreducible;
          Alcotest.test_case "rejects repeated" `Quick test_poly_roots_rejects_repeated;
          Alcotest.test_case "roots large" `Slow test_poly_roots_large_set ] );
      ( "linalg",
        [ Alcotest.test_case "identity" `Quick test_linalg_identity;
          Alcotest.test_case "solves" `Quick test_linalg_solves;
          Alcotest.test_case "inconsistent" `Quick test_linalg_inconsistent;
          Alcotest.test_case "underdetermined" `Quick test_linalg_underdetermined;
          Alcotest.test_case "no mutation" `Quick test_linalg_does_not_mutate;
          Alcotest.test_case "rank deficient" `Quick test_solve_rank_deficient_cases;
          QCheck_alcotest.to_alcotest ~rand:(differential_rand ())
            prop_solve_matches_reference ] );
      ( "reconcile",
        [ Alcotest.test_case "disjoint" `Quick test_reconcile_disjoint_small;
          Alcotest.test_case "identical" `Quick test_reconcile_identical;
          Alcotest.test_case "subset" `Quick test_reconcile_subset;
          Alcotest.test_case "empty sides" `Quick test_reconcile_empty_sides;
          Alcotest.test_case "large overlap" `Quick test_reconcile_large_overlap;
          Alcotest.test_case "explicit bound" `Quick test_reconcile_with_bound_exact;
          Alcotest.test_case "bound too small" `Quick test_reconcile_bound_too_small;
          Alcotest.test_case "doubling" `Quick test_reconcile_doubling_recovers;
          Alcotest.test_case "universe guard" `Quick test_reconcile_universe_guard;
          Alcotest.test_case "fingerprint mapping" `Quick test_element_of_fingerprint_range;
          Alcotest.test_case "char evals" `Quick test_char_evals;
          QCheck_alcotest.to_alcotest prop_reconcile_random;
          Alcotest.test_case "clamp beyond max_bound" `Quick
            test_reconcile_clamp_beyond_max_bound;
          Alcotest.test_case "skipped bounds counted" `Quick
            test_reconcile_attempts_count_skipped;
          Alcotest.test_case "root in both sides" `Quick test_reconcile_root_in_both_sides;
          QCheck_alcotest.to_alcotest ~rand:(differential_rand ())
            (prop_diff_matches_reference ~name:"diff matches reference, large universe"
               ~universe:Reconcile.universe_size ~max_bounds:[ 8; 16; 32; 1024 ]);
          QCheck_alcotest.to_alcotest ~rand:(differential_rand ())
            (prop_diff_matches_reference ~name:"diff matches reference, tiny universe"
               ~universe:48 ~max_bounds:[ 8; 16; 32; 64 ]) ] );
      ( "bloom",
        [ Alcotest.test_case "membership" `Quick test_bloom_membership;
          Alcotest.test_case "false positives" `Quick test_bloom_false_positive_rate;
          Alcotest.test_case "cardinality" `Quick test_bloom_cardinality;
          Alcotest.test_case "symmetric difference" `Quick test_bloom_symmetric_difference;
          Alcotest.test_case "shape mismatch" `Quick test_bloom_shape_mismatch;
          Alcotest.test_case "invalid" `Quick test_bloom_invalid ] ) ]
