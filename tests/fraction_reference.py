"""Fraction accumulation for the reference implementations in the tests.

The library sums int numerators over one denominator; the references add
one Fraction per term, as the library once did, so that the two agree only
if every rescaling in the library is right.
"""

from itertools import groupby
from math import comb

from quivertex.lincomb import integral


def add_all(out, terms, c=1):
    """out += c * terms in place, for a term dict."""
    get = out.get
    scaled = c != 1  # the common c == 1 skips a Fraction product per term
    for key, x in terms.items():
        if scaled:
            x = c * x
        s = get(key, 0) + x
        if s:
            out[key] = s
        else:
            out.pop(key, None)


def like(x, terms):
    """An element of the same type and ambient data as x holding a dict of rationals."""
    d, ints = integral(terms)
    return x._like_ints(dict(ints), d)


def expand_translation(factors, weight):
    """[(m, kept, c)] with prod_f (f - w_f z^{-mode_f}) = sum c z^{-m} prod(kept).

    This is exp(-sum_k w a_(k) z^{-k}/k) on one monomial in creation factors
    a_(-k), expanded on its own: the per-monomial form of
    ``partitions.translate_codes``, which the library's field modes and Hecke
    operators use.  factors is a sorted monomial and weight(f) gives (mode_f, w_f).
    A factor of multiplicity r has r + 1 choices, binom(r, s) (-w)^s for s
    substituted copies; kept lists the surviving factors in input order, so it
    stays sorted, and it fixes every choice, so no two entries share (m, kept).
    """
    out = [(0, (), 1)]
    for f, group in groupby(factors):
        r = sum(1 for _ in group)
        mode, w = weight(f)
        picks = [
            (s * mode, comb(r, s) * (-w) ** s, (f,) * (r - s)) for s in range(r + 1 if w else 1)
        ]
        out = [(m + dm, kept + tail, c * dc) for m, kept, c in out for dm, dc, tail in picks]
    return out
