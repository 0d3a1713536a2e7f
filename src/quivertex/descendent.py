"""Descendent algebra of a quasi-smooth dg quiver and its Virasoro operators.

Polynomials in the formal symbols ch_k(v), k >= 0, v a vertex.  A monomial
is a sorted tuple of (k, vertex) pairs.  The quotient setting ch_0(v) = d_v
is realized by substitution at evaluation time, never as a separate type.
"""

from functools import lru_cache
from itertools import product
from math import factorial, perm, prod

from . import quiver as qv
from .lincomb import Algebra, coerce, integer
from .symfunc import SymFunc


class DescendentPoly(Algebra):
    """Sparse polynomial over monomials in the ch_k(vertex) symbols."""

    __slots__ = ()
    _merge = staticmethod(lambda m1, m2: tuple(sorted(m1 + m2)))

    def _check_key(self, mono):
        m = tuple(sorted((integer(k), str(v)) for k, v in mono))
        for k, _ in m:
            if k < 0:
                raise ValueError("ch symbols are indexed by nonnegative integers")
        return m

    @staticmethod
    def ch(k, v):
        """The generator ch_k(v)."""
        if k < 0:
            return DescendentPoly.zero()
        return DescendentPoly({((k, str(v)),): 1})

    def ch_weight(self):
        """Largest total ch-index of any monomial; -1 for zero."""
        return max((sum(k for k, _ in m) for m in self.nums), default=-1)

    def substitute_ch0(self, dims):
        """Evaluate in the quotient ch_0(v) = dims[v]; other symbols survive."""
        if missing := sorted({v for m in self.nums for k, v in m if not k and v not in dims}):
            raise ValueError(f"substitute_ch0 has no ch_0 value for vertex {', '.join(missing)}")
        return self._map(
            lambda m: [(tuple((k, v) for k, v in m if k), prod(dims[v] for k, v in m if not k))]
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        from .serialize import descendent_to_text

        return f"DescendentPoly({descendent_to_text(self)})"


@lru_cache(maxsize=256)
def _t_terms(quiver, n, framing=None):
    """T_n, or T_n^{f->*} under a framing (its entries in vertex order), as (monomial, int)
    pairs; () for n < 0.  Plain T_n checks the quiver at every n, so l_op raises at n = -1 too."""
    if framing is not None:
        if n < 0:
            return ()
        out = dict(_t_terms(quiver, n))
        for v, x in zip(quiver.vertices, framing):
            out[((n, v),)] = out.get(((n, v),), 0) - factorial(n) * x
        return tuple((mono, c) for mono, c in out.items() if c)
    if not quiver.is_quasi_smooth():
        raise qv.QuiverError(
            "not_quasi_smooth", "descendent operators need arrow degrees in {0,-1}"
        )
    if n < 0:
        return ()
    chi = qv.euler_matrix(quiver)
    out = {}
    for a in range(n + 1):
        fac = factorial(a) * factorial(n - a)
        for (i, v), (j, w) in product(enumerate(quiver.vertices), repeat=2):
            key = tuple(sorted(((a, v), (n - a, w))))
            out[key] = out.get(key, 0) + fac * chi[i][j]
    return tuple((mono, c) for mono, c in out.items() if c)


def _virasoro(out, n, terms, t):
    """out += R_n f + T f in int, for int terms [(monomial, c)] of f and t of T."""
    get = out.get
    for mono, c in terms:
        for i, (k, v) in enumerate(mono):
            if k + n >= 0 and (rise := perm(k + n, n + 1)):  # the rising factorial
                key = tuple(sorted(mono[:i] + mono[i + 1 :] + ((k + n, v),)))
                out[key] = get(key, 0) + c * rise
        for tm, x in t:
            key = tuple(sorted(mono + tm))
            out[key] = get(key, 0) + c * x


def _operator(n, f, quiver=None, framing=None):
    """R_n f, plus T_n f (T_n^{f->*} f under a framing) when a quiver is given."""
    if integer(n) < -1:
        raise ValueError("R_n is defined for n >= -1")
    out = {}
    _virasoro(out, n, f.nums.items(), () if quiver is None else _t_terms(quiver, n, framing))
    return DescendentPoly._ints(out, f.den)


def r_op(quiver, n, f):
    """Derivation with R_n(ch_k) = k(k+1)...(k+n) ch_{k+n}; R_{-1} shifts down.

    The coefficient is the empty product 1 at n = -1, and ch_{-1} = 0.
    """
    return _operator(n, f)


def t_element(quiver, n):
    """T_n = sum_{a+b=n} a! b! sum_{v,w} chi(v,w) ch_a(v) ch_b(w); zero for n = -1."""
    return DescendentPoly._ints(dict(_t_terms(quiver, integer(n))))


def framed_t_element(quiver, framing, n):
    """T_n^{f->*} = T_n - n! sum_v f_v ch_n(v)."""
    framing = qv.FramingVector(quiver, framing).values
    return DescendentPoly._ints(dict(_t_terms(quiver, integer(n), framing)))


def l_op(quiver, n, f):
    """Virasoro operator L_n = R_n + multiplication by T_n."""
    return _operator(n, f, quiver)


def l_op_framed(quiver, framing, n, f):
    """Framed Virasoro operator L_n^{f->*} = R_n + multiplication by T_n^{f->*}; the
    framing is a `FramingVector` or the entries of one, as in `quiver.framed_quiver`."""
    return _operator(n, f, quiver, qv.FramingVector(quiver, framing).values)


def l_wt0(quiver, f):
    """Weight-zero operator sum_{n>=-1} (-1)^n/(n+1)! L_n (R_{-1})^{n+1}.

    The sum is finite: (R_{-1})^{n+1} kills f once n+1 exceeds its total
    ch-index.  The image lies in ker(R_{-1}).
    """
    top = max(f.ch_weight(), 0)  # power vanishes once n + 1 > top, so top!/(n+1)! is an int
    d, power = f.den, f.nums.items()  # (R_{-1})^{n+1} f over d, starting at n = -1
    out = {}
    n = -1
    while power:
        weight = (-1 if n % 2 else 1) * (factorial(top) // factorial(n + 1))
        _virasoro(out, n, [(mono, weight * c) for mono, c in power], _t_terms(quiver, n))
        shifted = {}
        _virasoro(shifted, -1, power, ())
        power = [(mono, c) for mono, c in shifted.items() if c]
        n += 1
    return DescendentPoly._ints(out, d * factorial(top))


def to_symfunc(f, ch0_value):
    """Translate a one-vertex descendent polynomial to symmetric functions.

    ch_n maps to p_n / n! for n >= 1 and ch_0 to the scalar ch0_value = a / b.
    A monomial with z factors ch_0 and parts la goes to top! / prod la_i! a^z
    b^(z_max - z) p_la over top! b^z_max, top the ch-weight of f: prod la_i!
    divides |la|! and so top!.
    """
    if len({v for mono in f.nums for _, v in mono}) > 1:
        raise ValueError("to_symfunc needs a single-vertex polynomial")
    ch0 = coerce(ch0_value)
    a, b = ch0.numerator, ch0.denominator
    top = factorial(max(f.ch_weight(), 0))
    z_max = max((sum(1 for k, _ in mono if not k) for mono in f.nums), default=0)

    def image(mono):
        la = tuple(k for k, _ in reversed(mono) if k)  # mono ascends, so la descends
        z = len(mono) - len(la)
        return [(la, top // prod(map(factorial, la)) * a**z * b ** (z_max - z))]

    return f._map(image, top * b**z_max, like=SymFunc())
