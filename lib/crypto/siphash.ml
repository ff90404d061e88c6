type key = { k0 : int64; k1 : int64 }

let key_of_ints k0 k1 = { k0; k1 }

let key_of_string s =
  let h0 = Fnv.hash_string s in
  let h1 = Fnv.hash_string (s ^ "\x01siphash-key-expansion") in
  { k0 = h0; k1 = h1 }

(* The compression loop for both entry points.  The message is [n] full
   words followed by the padded last block: the [len - 8n] tail bytes of
   [s] little-endian, with [len] (mod 256) in the top byte.  Full word
   [i] is the head of [words] while that list lasts, else the
   little-endian load at byte [8i] of [s].  The four state words are
   local [int64] refs that escape into no closure or call, so ocamlopt
   keeps them unboxed; for the same reason the SipRound is written out
   in place rather than called.  Block [n + 1] is the finalization:
   [v2 ^= 0xff] and four rounds instead of two. *)
let sip key s words n len =
  let v0 = ref (Int64.logxor key.k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor key.k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor key.k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor key.k1 0x7465646279746573L) in
  let rest = ref words in
  let m = ref 0L in
  for i = 0 to n + 1 do
    let final = i > n in
    if final then v2 := Int64.logxor !v2 0xffL
    else begin
      if i < n then
        m :=
          (match !rest with
          | w :: tl ->
              rest := tl;
              w
          | [] -> String.get_int64_le s (8 * i))
      else begin
        m := Int64.shift_left (Int64.of_int (len land 0xff)) 56;
        for j = 8 * n to len - 1 do
          m := Int64.logor !m (Int64.shift_left (Int64.of_int (Char.code s.[j])) (8 * (j - (8 * n))))
        done
      end;
      v3 := Int64.logxor !v3 !m
    end;
    for _ = 1 to if final then 4 else 2 do
      v0 := Int64.add !v0 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 13) (Int64.shift_right_logical !v1 51);
      v1 := Int64.logxor !v1 !v0;
      v0 := Int64.logor (Int64.shift_left !v0 32) (Int64.shift_right_logical !v0 32);
      v2 := Int64.add !v2 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 16) (Int64.shift_right_logical !v3 48);
      v3 := Int64.logxor !v3 !v2;
      v0 := Int64.add !v0 !v3;
      v3 := Int64.logor (Int64.shift_left !v3 21) (Int64.shift_right_logical !v3 43);
      v3 := Int64.logxor !v3 !v0;
      v2 := Int64.add !v2 !v1;
      v1 := Int64.logor (Int64.shift_left !v1 17) (Int64.shift_right_logical !v1 47);
      v1 := Int64.logxor !v1 !v2;
      v2 := Int64.logor (Int64.shift_left !v2 32) (Int64.shift_right_logical !v2 32)
    done;
    if not final then v0 := Int64.logxor !v0 !m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)

let hash key s =
  let len = String.length s in
  sip key s [] (len / 8) len

(* [hash_int64s] is the byte-string rule with no tail bytes: the last
   block carries only the length, 8n mod 256. *)
let hash_int64s key words =
  let n = List.length words in
  sip key "" words n (8 * n)
