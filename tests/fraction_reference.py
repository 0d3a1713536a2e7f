"""Fraction accumulation for the reference implementations in the tests.

The library sums int numerators over one denominator; the references add
one Fraction per term, as the library once did, so that the two agree only
if every rescaling in the library is right.
"""

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
