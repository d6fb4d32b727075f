"""The scalar k-wise block: Horner's rule over one row of coefficient words,
the reference that ``kwise.expand_batch``'s table gathers are checked
against."""

from ptfprg.kwise import IRREDUCIBLE, field_width


def ref_gf_mul(a, b, m):
    """Independent carry-less multiply + long reduction, for cross-checking."""
    prod = 0
    aa = a
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            prod ^= aa << i
    red = IRREDUCIBLE[m]
    while prod.bit_length() > m:
        prod ^= red << (prod.bit_length() - (m + 1))
    return prod


def reference_words(row, spec):
    """The block's n words for coefficient words row = (c_0, ..., c_{k-1}):
    the top M bits of sum_j c_j x^j over GF(2^m) at x = 0, ..., n-1."""
    m = field_width(spec)
    out = []
    for point in range(spec.n):
        acc = 0
        for c in reversed([int(c) for c in row]):  # highest degree first
            acc = ref_gf_mul(acc, point, m) ^ c
        out.append(acc >> (m - spec.M))
    return out
