let p = 0x7fffffff (* 2^31 - 1 *)

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let of_int64 x =
  Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int p))

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = let d = a - b in if d < 0 then d + p else d
let neg a = if a = 0 then 0 else p - a

(* [x mod p] for 0 <= x <= p^2.  Mersenne reduction: 2^31 = 1 (mod p),
   so x = hi * 2^31 + lo = hi + lo, and hi + lo < 2p because hi < p. *)
let[@inline] reduce x =
  let y = (x land p) + (x lsr 31) in
  if y >= p then y - p else y

(* Operands are < 2^31, so the product fits in a 62-bit OCaml int on
   64-bit platforms. *)
let mul a b = reduce (a * b)

(* The two kernels below keep their inner loops inside this module, so
   the reduction is inlined instead of paying a call per element. *)
let axpy k x y ~from =
  for j = from to Array.length y - 1 do
    y.(j) <- reduce (y.(j) + (k * x.(j)))
  done

(* Two interleaved products, so one multiply-reduce chain does not wait
   on the other; the field product is the same in any order. *)
let prod_sub z es =
  let n = Array.length es in
  let acc0 = ref 1 and acc1 = ref 1 in
  let i = ref 0 in
  while !i + 1 < n do
    let d0 = z - es.(!i) and d1 = z - es.(!i + 1) in
    acc0 := reduce (!acc0 * if d0 < 0 then d0 + p else d0);
    acc1 := reduce (!acc1 * if d1 < 0 then d1 + p else d1);
    i := !i + 2
  done;
  if !i < n then begin
    let d = z - es.(!i) in
    acc0 := reduce (!acc0 * if d < 0 then d + p else d)
  end;
  reduce (!acc0 * !acc1)

let rec ext_gcd a b =
  if b = 0 then (a, 1, 0)
  else begin
    let g, x, y = ext_gcd b (a mod b) in
    (g, y, x - (a / b * y))
  end

let inv a =
  if a = 0 then raise Division_by_zero;
  let _, x, _ = ext_gcd a p in
  of_int x

let div a b = mul a (inv b)

let pow a e =
  if e < 0 then invalid_arg "Gfp.pow: negative exponent";
  let rec loop base e acc =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc base else acc in
      loop (mul base base) (e lsr 1) acc
    end
  in
  loop (of_int a) e 1
