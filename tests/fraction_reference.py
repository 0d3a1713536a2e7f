"""Fraction accumulation for the reference implementations in the tests.

The library sums int numerators over one denominator; the references add
one Fraction per term, as the library once did, so that the two agree only
if every rescaling in the library is right.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb

from quivertex import partitions as pt
from quivertex.lincomb import integral
from quivertex.symfunc import SymFunc


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


def jacobi_trudi(la):
    """s_la = det(h_{la_i - i + j}) by cofactor expansion along the rows, each minor
    memoized on its surviving columns, with h_j = sum_{mu |- j} p_mu / z_mu (h_{<0} = 0)
    and one Fraction per term: the reference for the library's Hecke-chain schur."""
    n = len(la)

    @lru_cache(maxsize=None)
    def h(j):
        return {mu: 1 / pt.z_factor(mu) for mu in pt.partitions_of(j)}

    @lru_cache(maxsize=None)
    def minor(i, cols):
        if i == n:
            return {(): Fraction(1)}
        out = {}
        for pos, j in enumerate(cols):
            entry = h(la[i] - i + j)
            if entry:
                sub = minor(i + 1, cols[:pos] + cols[pos + 1 :])
                for mu, a in entry.items():
                    product = {pt.merge(mu, nu): b for nu, b in sub.items()}
                    add_all(out, product, -a if pos % 2 else a)
        return out

    return SymFunc(minor(0, tuple(range(n))))
