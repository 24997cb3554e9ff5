(** Exact [%.17g] text for doubles.

    [%.17g] round-trips every finite double, so documents that print
    their floats this way (the explain JSON, GML) can be refolded bit
    for bit by a consumer. This module is the one writer of that text.

    {b Byte contract.} [g17 x] equals [Printf.sprintf "%.17g" x] for
    every double [x], and [add_g17 b x] appends the same bytes.

    {b Fast range.} [+0.0] and [-0.0] print ["0"] and ["-0"]. A value
    with [1e-6 < |x| < 1e17] is written without the C library: [|x|]
    is split as [m * 2^e] with [m < 2^53], k = floor (log10 |x|) is
    taken exactly from [e] and one compare against the next power of
    ten, the exact product [m * 5^(16 - k) * 2^(e + 16 - k)] is cut to
    17 digits, and the digits are laid out per [%g]: style e below
    [1e-4], style f otherwise, trailing zeros and a bare point dropped.

    {b Tie rule.} Cutting to 17 digits rounds half to even, as the C
    library does for exact ties under the default rounding mode:
    [1000000000000000.25] prints ["1000000000000000.2"].

    {b Fallback.} Every other value (subnormals, [|x| <= 1e-6],
    [|x| >= 1e17], infinities, NaN) goes to [caml_format_float "%.17g"],
    the primitive [Printf]'s [%.17g] itself calls, as would a value
    whose 17 digits fell outside [[10^16, 10^17)]; none in the fast
    range does. Each call renders into a fresh 23-byte buffer, so
    threads and domains may call it at once. *)

val add_g17 : Buffer.t -> float -> unit
(** Append [Printf.sprintf "%.17g" x]. *)

val g17 : float -> string
(** [Printf.sprintf "%.17g" x], through {!add_g17}. *)
