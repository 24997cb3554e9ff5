external format_float : string -> float -> string = "caml_format_float"

(* For 1e-6 < |x| < 1e17 the decimal exponent k = floor(log10 |x|) lies
   in [-6, 16], so the scale 10^(16 - k) that brings x to 17 integer
   digits needs 5^p for p in [0, 22] (5^22 < 2^52). *)
let pow5 =
  let t = Array.make 23 1 in
  for p = 1 to 22 do
    t.(p) <- 5 * t.(p - 1)
  done;
  t

(* The doubles nearest 10^-6 .. 10^17: [tenpow.(j + 6)] for 10^j. *)
let tenpow =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6;
     1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15; 1e16; 1e17 |]

let e16 = 10_000_000_000_000_000

let e17 = 100_000_000_000_000_000

let mask26 = (1 lsl 26) - 1

let mask52 = (1 lsl 52) - 1

(* [m * 5^p * 2^t] for m < 2^53 and t >= -52, truncated to an integer
   q, returned as [2 q + up] where [up] says whether round-half-even
   rounds q up. The product is exact in limbs: with m and 5^p split at
   bit 26 every partial product stays below 2^55, and the product is
   assembled as [hi * 2^52 + lo] with lo < 2^52, so a shift of at most
   52 bits leaves its remainder in lo. Callers keep q below 2^60. *)
let scaled m p t =
  let f = Array.unsafe_get pow5 p in
  let m0 = m land mask26 and m1 = m lsr 26 in
  let f0 = f land mask26 and f1 = f lsr 26 in
  let a = m0 * f0 in
  let b = (m1 * f0) + (m0 * f1) + (a lsr 26) in
  let hi = (m1 * f1) + (b lsr 26) in
  let lo = ((b land mask26) lsl 26) lor (a land mask26) in
  if t >= 0 then ((hi lsl 52) lor lo) lsl (t + 1)
  else
    let s = -t in
    let q = (hi lsl (52 - s)) lor (lo lsr s) in
    let rem = lo land ((1 lsl s) - 1) and half = 1 lsl (s - 1) in
    let up = rem > half || (rem = half && q land 1 = 1) in
    (q lsl 1) lor Bool.to_int up

(* Writes the 17 digits of [d] (10^16 <= d < 10^17) into [s] from [at]
   and returns how many remain once trailing zeros are dropped. *)
let put_digits s at d =
  let d = ref d and kept = ref 0 in
  for i = 16 downto 0 do
    let digit = !d mod 10 in
    d := !d / 10;
    if !kept = 0 && digit <> 0 then kept := i + 1;
    Bytes.unsafe_set s (at + i) (Char.unsafe_chr (48 + digit))
  done;
  !kept

(* Lays out [d * 10^(k - 16)] per [%.17g] after the sign at [sl]: style
   e below 1e-4 (k < -4, the only style-e exponents in the fast range),
   else style f with 16 - k decimals; trailing zeros, and a point left
   bare, are dropped. Returns the length. *)
let layout s sl d k =
  if k < -4 then begin
    let kept = put_digits s (sl + 1) d in
    Bytes.unsafe_set s sl (Bytes.unsafe_get s (sl + 1));
    Bytes.unsafe_set s (sl + 1) '.';
    let at = if kept = 1 then sl + 1 else sl + 1 + kept in
    let x = -k in
    Bytes.unsafe_set s at 'e';
    Bytes.unsafe_set s (at + 1) '-';
    Bytes.unsafe_set s (at + 2) (Char.unsafe_chr (48 + (x / 10)));
    Bytes.unsafe_set s (at + 3) (Char.unsafe_chr (48 + (x mod 10)));
    at + 4
  end
  else if k < 0 then begin
    let lead = 1 - k in
    Bytes.unsafe_set s sl '0';
    Bytes.unsafe_set s (sl + 1) '.';
    Bytes.unsafe_fill s (sl + 2) (lead - 2) '0';
    sl + lead + put_digits s (sl + lead) d
  end
  else begin
    let kept = put_digits s sl d in
    if kept <= k + 1 then sl + k + 1
    else begin
      Bytes.blit s (sl + k + 1) s (sl + k + 2) (kept - k - 1);
      Bytes.unsafe_set s (sl + k + 1) '.';
      sl + kept + 1
    end
  end

(* Writes [x]'s text into [s] and returns its length, or -1 outside the
   fast range. The longest fast-range texts take 23 bytes: a sign,
   ["0.000"] and 17 digits, or a sign, 17 digits, a point and ["e-06"]. *)
let render s x =
  let bits = Int64.bits_of_float x in
  let sl = Int64.to_int (Int64.shift_right_logical bits 63) in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let mant = Int64.to_int bits land mask52 in
  if biased = 0 && mant = 0 then begin
    if sl = 1 then Bytes.unsafe_set s 0 '-';
    Bytes.unsafe_set s sl '0';
    sl + 1
  end
  else
    let ax = Float.abs x in
    if not (ax > 1e-6 && ax < 1e17) then -1
    else begin
      if sl = 1 then Bytes.unsafe_set s 0 '-';
      (* k = floor (log10 |x|): floor (be * log10 2) for the binary
         exponent be, then one step up when |x| reaches the next power
         of ten's double. Above 1e-6 no such double lies below its power
         of ten, so k is exact, the truncated quotient is at least
         10^16, and the shift is at most 50 bits. *)
      let k = ((biased - 1023) * 78913) asr 18 in
      let k = if ax >= Array.unsafe_get tenpow (k + 7) then k + 1 else k in
      let r = scaled (mant lor (1 lsl 52)) (16 - k) (biased - 1075 + 16 - k) in
      let q = r lsr 1 in
      let d = q + (r land 1) in
      (* Rounding reaches 10^17 only for a double within 5e-18 below a
         power of ten, and none in range lies that close; such a value
         would go to the fallback. *)
      if q >= e16 && d < e17 then layout s sl d k else -1
    end

let add_g17 b x =
  let s = Bytes.create 23 in
  let len = render s x in
  if len < 0 then Buffer.add_string b (format_float "%.17g" x)
  else Buffer.add_subbytes b s 0 len

let g17 x =
  let b = Buffer.create 24 in
  add_g17 b x;
  Buffer.contents b
