"""Sparse rational linear combinations: the arithmetic shared by SymFunc,
DescendentPoly and VAElem.

An element stores ``den``, a positive int, and ``nums``, a dict from
hashable keys to nonzero int numerators: the coefficient of key is
nums[key] / den, and gcd(den, *nums) = 1.  The form is canonical, so ``==``
and ``hash`` compare it directly.  ``terms`` is a ``MappingProxyType`` of the
same coefficients as Fractions, built by ``rational`` on each read and never stored.
Operators sum int numerators into one fresh dict and wrap it once with
``_ints`` (``_like_ints`` keeps the ambient data), which drops zeros and divides
out the gcd.
Fractions cross into this int core at one boundary: the public constructor
(``coerce``, ``add_to``, ``integral``), ``_wrap`` for a parser's dict of
Fractions, and ``rational`` for a table of int numerators read out.  A
subclass supplies ``_check_key`` (key validation for the public constructor,
whose integer fields take only ints, through ``integer``).  An ``Algebra``
(SymFunc, DescendentPoly) also supplies ``_merge``, the product of two basis
keys, and inherits ``zero``, ``one`` and ``*``; its empty key ``()`` is the
unit, so the constant c is ``{(): c}``.  An operator that acts one key at a time is
``_map`` with the int image of a single key; with ``like`` it also reads one
element type as another, so the image must emit that type's canonical keys.
"""

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


def integer(x, error=None):
    """x, when it is an int; else raises error(x), by default a ValueError naming x.
    bool is an int, and int() would truncate 0.5 or accept "1", so neither is used."""
    if type(x) is not int:
        raise error(x) if error else ValueError(f"expected an integer, got {x!r}")
    return x


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


def integral(terms):
    """(d, [(key, n)]) for a term dict, d the lcm of its denominators and each c = n / d."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def rational(int_terms, d):
    """{key: Fraction(n, d)} for each nonzero n of an int term dict, one Fraction per
    distinct n, shared by every key it is the value of (a Fraction is immutable)."""
    out, shared = {}, {}
    get = shared.get
    for key, n in int_terms.items():
        if n:
            c = get(n)
            if c is None:
                c = shared[n] = Fraction(n, d)
            out[key] = c
    return out


def _product_into(out, s, t1, t2, key):
    """out[key(k1, k2)] += s * a * b over int terms (k1, a) of t1, (k2, b) of t2; zeros stay."""
    get = out.get
    for k1, a in t1:
        sa = s * a
        for k2, b in t2:
            k = key(k1, k2)
            out[k] = get(k, 0) + sa * b


class LinComb:
    """Base of the sparse element types; see the module docstring."""

    __slots__ = ("den", "nums")

    def __init__(self, terms=None):
        out = {}
        for key, c in (terms or {}).items():
            c = coerce(c)
            if c:
                add_to(out, self._check_key(key), c)
        # over the lcm of reduced, nonzero Fractions the numerators share no factor with it
        self.den, ints = integral(out)
        self.nums = dict(ints)

    @classmethod
    def _ints(cls, nums, d=1):
        """An element holding nums / d, for int numerators and d > 0: zeros are
        dropped and the gcd of d and the numerators divided out."""
        nums = {key: n for key, n in nums.items() if n}
        g = d
        for n in nums.values():
            if g == 1:
                break
            g = gcd(g, n)
        if g != 1:  # g = d when nums is empty, so zero is 0 / 1
            nums = {key: n // g for key, n in nums.items()}
        out = object.__new__(cls)
        out.den, out.nums = d // g, nums
        return out

    @classmethod
    def _wrap(cls, terms):
        """An element holding a dict of rational coefficients."""
        d, ints = integral(terms)
        return cls._ints(dict(ints), d)

    def _like_ints(self, nums, d=1):
        """An element of the same type and ambient data as self holding nums / d."""
        return self._ints(nums, d)

    @property
    def terms(self):
        return MappingProxyType(rational(self.nums, self.den))

    def _add(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        g = gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        out = {key: n * a for key, n in self.nums.items()} if a != 1 else dict(self.nums)
        get = out.get
        for key, n in other.nums.items():
            out[key] = get(key, 0) + b * n
        return self._like_ints(out, self.den * a)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return self._like_ints({k: -n for k, n in self.nums.items()}, self.den)

    def scale(self, c):
        c = coerce(c)
        a = c.numerator
        return self._like_ints({k: a * n for k, n in self.nums.items()}, c.denominator * self.den)

    def _map(self, image, den=1, like=None):
        """The linear map sending key to sum x key' / den over the (key', int x) pairs
        of image(key), summed in int over den times the denominator of self.  The
        result has the type and ambient data of like, by default of self; keys are
        not checked, so image emits the canonical keys of that type."""
        out = {}
        get = out.get
        for key, c in self.nums.items():
            for k, x in image(key):
                out[k] = get(k, 0) + c * x
        return (self if like is None else like)._like_ints(out, self.den * den)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self.nums.keys() <= {()} and Fraction(self.nums.get((), 0), self.den) == other
        return NotImplemented

    def __hash__(self):
        if self.nums.keys() <= {()}:  # a constant hashes like its scalar, as __eq__ requires
            return hash(Fraction(self.nums.get((), 0), self.den))
        return hash((self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)


class Algebra(LinComb):
    """A LinComb whose basis keys multiply to one key, ``_merge(k1, k2)``, with unit ``()``."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls._ints({})

    @classmethod
    def one(cls):
        return cls._ints({(): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        _product_into(out, 1, self.nums.items(), other.nums.items(), self._merge)
        return self._like_ints(out, self.den * other.den)

    __rmul__ = __mul__
