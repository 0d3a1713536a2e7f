"""Sparse rational linear combinations: the arithmetic shared by SymFunc,
DescendentPoly and VAElem.

An element stores ``terms``, a plain dict from hashable keys to nonzero
Fractions.  Operators build a result by summing into one fresh dict with
``add_to``/``add_all`` and wrap it once with ``_like``, so no step copies
or re-validates the partial sum.  A subclass supplies ``_check_key`` (key
validation for the public constructor); an algebra also defines
``__mul__`` through ``_product`` with the product of two basis keys, and
its empty key ``()`` is the unit, so the constant c is ``{(): c}``.
The hot kernels put their input over one denominator with ``integral``, sum
in int, and build one Fraction per output key with ``rational``; an operator
that acts one key at a time is ``_map`` with the image of a single key.
"""

from fractions import Fraction
from itertools import groupby
from math import comb, lcm


def coerce(c):
    """c as a Fraction; TypeError unless it is an int or a Fraction."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be rational, got {type(c).__name__}")


def add_to(out, key, c):
    """out[key] += c in place, dropping the key when the sum vanishes."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


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


def integral(terms):
    """(d, [(key, n)]) for a term dict, d the lcm of its denominators and each c = n / d."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def rational(int_terms, d):
    """{key: Fraction(n, d)} for each nonzero n of an int term dict."""
    return {key: Fraction(n, d) for key, n in int_terms.items() if n}


def _product_into(out, s, t1, t2, key):
    """out[key(k1, k2)] += s * a * b over int terms (k1, a) of t1, (k2, b) of t2; zeros stay."""
    get = out.get
    for k1, a in t1:
        sa = s * a
        for k2, b in t2:
            k = key(k1, k2)
            out[k] = get(k, 0) + sa * b


def expand_translation(factors, weight):
    """{(m, kept): c} with prod_f (f - w_f z^{-mode_f}) = sum c z^{-m} prod(kept).

    This is exp(-sum_k w a_(k) z^{-k}/k) on a monomial in creation factors
    a_(-k): the translation a_(-k) -> a_(-k) - w z^{-k}, shared by the lattice
    field modes and the Hecke operators.  factors is a sorted monomial and
    weight(f) gives (mode_f, w_f).  A factor of multiplicity r has r + 1
    choices, binom(r, s) (-w)^s for s substituted copies; kept lists the
    surviving factors in input order, so it stays sorted.
    """
    out = {(0, ()): 1}
    for f, group in groupby(factors):
        r = sum(1 for _ in group)
        mode, w = weight(f)
        picks = [
            (s * mode, comb(r, s) * (-w) ** s, (f,) * (r - s)) for s in range(r + 1 if w else 1)
        ]
        out = {
            (m + dm, kept + tail): c * dc for (m, kept), c in out.items() for dm, dc, tail in picks
        }
    return out


class LinComb:
    """Base of the sparse element types; see the module docstring."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = coerce(c)
                if c:
                    add_to(self.terms, self._check_key(key), c)

    @classmethod
    def _wrap(cls, terms):
        """An element holding terms as given: valid keys, nonzero Fractions."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def _like(self, terms):
        """An element of the same type and ambient data as self holding terms."""
        return self._wrap(terms)

    def __add__(self, other):
        out = dict(self.terms)
        add_all(out, other.terms)
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.terms)
        add_all(out, other.terms, -1)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = coerce(c)
        return self._like({k: c * x for k, x in self.terms.items()} if c else {})

    def _map(self, image, den=1):
        """The linear map sending key to sum x key' / den over the (key', int x) pairs
        of image(key), summed in int over den times the denominator of self."""
        d, terms = integral(self.terms)
        out = {}
        get = out.get
        for key, c in terms:
            for k, x in image(key):
                out[k] = get(k, 0) + c * x
        return self._like(rational(out, d * den))

    def _product(self, other, key):
        """The bilinear product in which basis keys k1, k2 multiply to key(k1, k2)."""
        d1, t1 = integral(self.terms)
        d2, t2 = integral(other.terms)
        out = {}
        _product_into(out, 1, t1, t2, key)
        return self._like(rational(out, d1 * d2))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self):
        # A constant hashes like the scalar it equals, as __eq__ requires.
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and () in self.terms:
            return hash(self.terms[()])
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)
