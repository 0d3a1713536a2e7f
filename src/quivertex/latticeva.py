"""Lattice vertex algebra V = Q[lattice] (x) Sym(lattice (x) t^{-1}Q[t^{-1}]).

The symmetric bilinear form B may be degenerate; only the half of the
Virasoro operators L_n with n >= -1 is available then.  The sign in the
exponential fields is epsilon(alpha, beta) = (-1)^{b(alpha, beta)} for a
chosen integral b with b + b^T = B.

Elements are sparse sums of basis states e^alpha (x) prod_j (v_{i_j})_{-k_j}
with alpha an integer vector, i_j a lattice basis index and k_j >= 1.
Operator products follow the ordered Leibniz rule: a bracket produced while
commuting past the j-th creation factor acts only on the factors after j.
Inside, field modes key a Fock monomial by its int code (``partitions``).
"""

from functools import lru_cache
from math import factorial
from operator import add, mul

from . import partitions as pt
from .lincomb import LinComb, integer


class Lattice:
    """Free abelian group of finite rank with symmetric form B and sign datum b."""

    __slots__ = ("rank", "B", "b")

    def __init__(self, B, b):
        self.B, self.b = (tuple(map(tuple, M)) for M in (B, b))
        self.rank = len(self.B)
        rows = self.B + self.b
        if len(self.b) != self.rank or any(len(row) != self.rank for row in rows):
            raise ValueError("B and b must be square matrices of equal rank")
        if bad := [x for row in rows for x in row if type(x) is not int]:
            raise ValueError(f"lattice entries must be integers, got {bad[0]!r}")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.B[i][j] != self.B[j][i]:
                    raise ValueError("B must be symmetric")
                if self.b[i][j] + self.b[j][i] != self.B[i][j]:
                    raise ValueError("sign datum must satisfy b + b^T = B")

    def vector(self, v):
        """v as a tuple; ValueError unless it has one int entry per basis vector."""
        v = tuple(map(integer, v))
        if len(v) != self.rank:
            raise ValueError(f"lattice vector {v} needs {self.rank} entries")
        return v

    def pairing(self, u, v):
        """B(u, v) for integer vectors."""
        return self._form(self.B, u, v)

    def sign_exponent(self, u, v):
        """b(u, v) for integer vectors."""
        return self._form(self.b, u, v)

    def _form(self, M, u, v):
        """u^T M v; ValueError unless u and v have one entry per basis vector."""
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError(f"lattice vectors {tuple(u)}, {tuple(v)} need {self.rank} entries")
        return sum(u[i] * M[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def zero(self):
        return (0,) * self.rank

    def __repr__(self):
        return f"Lattice(B={self.B}, b={self.b})"

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.B == other.B and self.b == other.b

    def __hash__(self):
        return hash((self.B, self.b))


def grassmannian_lattice():
    """Rank-2 lattice in coordinates (N, k) carrying the symmetrized framed
    pairing 2 k1 k2 - N1 k2 - N2 k1, with sign datum b = k1 (k2 - N2)."""
    return Lattice(B=[[0, -1], [-1, 2]], b=[[0, 0], [-1, 1]])


class VAElem(LinComb):
    """Sparse element of the lattice vertex algebra.

    Keys are (alpha, fock) with alpha a tuple of ints of length rank and
    fock a sorted tuple of (basis index, mode >= 1) pairs.
    """

    __slots__ = ("lattice",)

    def __init__(self, lattice, terms=None):
        self.lattice = lattice
        super().__init__(terms)

    def _check_key(self, key):
        alpha, fock = key
        a = self.lattice.vector(alpha)
        f = tuple(sorted((integer(i), integer(k)) for i, k in fock))
        for i, k in f:
            if not (0 <= i < self.lattice.rank):
                raise ValueError("basis index out of range")
            if k < 1:
                raise ValueError("creation modes must be >= 1")
        return a, f

    def _like_ints(self, nums, d=1):
        out = self._ints(nums, d)
        out.lattice = self.lattice
        return out

    @staticmethod
    def group_element(lattice, alpha):
        return VAElem(lattice, {(tuple(alpha), ()): 1})

    def __eq__(self, other):
        return isinstance(other, VAElem) and self.lattice == other.lattice and super().__eq__(other)

    def __hash__(self):
        return hash((self.lattice, self.den, frozenset(self.nums.items())))

    def fock_degree(self):
        """Largest total mode sum among terms; -1 for zero."""
        return max((sum(k for _, k in fock) for _, fock in self.nums), default=-1)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        entries = ", ".join(
            f"{c} * e^{list(alpha)}x{list(fock)}" for (alpha, fock), c in self.sorted_terms()
        )
        return f"VAElem({entries or '0'})"


def _check_lattice(lattice, x):
    """ValueError unless x lies on lattice, which the operators below act by."""
    if lattice is not x.lattice and lattice != x.lattice:
        raise ValueError(f"operator on {lattice!r} applied to an element of {x.lattice!r}")


def create(lattice, v, k, x):
    """Left multiplication by v_{-k}, extended over the lattice basis."""
    _check_lattice(lattice, x)
    if integer(k) < 1:
        raise ValueError("creation mode must be >= 1")
    created = [((i, k), vi) for i, vi in enumerate(lattice.vector(v)) if vi]
    return x._map(
        lambda key: [((key[0], tuple(sorted(key[1] + (f,)))), vi) for f, vi in created]
    )


def annihilate_mode(lattice, v, k, x):
    """The mode v_{(k)} for k >= 0: zero mode is diagonal, positive modes
    contract against matching creation factors via [v_(k), w_(-l)] = k d_{kl} B(v,w)."""
    _check_lattice(lattice, x)
    if integer(k) < 0:
        raise ValueError("annihilation mode must be >= 0")
    row = _rows(lattice, lattice.vector(v))[0]
    if k == 0:
        return x._map(lambda key: [(key, sum(map(mul, row, key[0])))])
    weights = [k * w for w in row]

    def image(key):
        alpha, fock = key
        return [
            ((alpha, fock[:j] + fock[j + 1 :]), weights[i])
            for j, (i, mode) in enumerate(fock)
            if mode == k
        ]

    return x._map(image)


def translate(lattice, x):
    """Translation operator T = L_{-1}: [T, v_{(-k)}] = k v_{(-k-1)},
    T e^alpha = e^alpha (x) alpha_{-1}."""
    return virasoro(lattice, -1, x)


def virasoro(lattice, n, x):
    """L_n for n >= -1, one monomial at a time by [L_n, v_{(-k)}] = k v_{(n-k)}.

    A factor (e_i)_{-k} moves to mode k - n for k > n, with coefficient k;
    for k = n it is removed, with coefficient n B(e_i, alpha); for k < n it
    contracts with each later factor (e_j)_{-(n-k)}, with coefficient
    k (n - k) B(e_i, e_j).  On e^alpha, L_{-1} creates alpha_{-1}, L_0 is
    B(alpha, alpha)/2 and L_{n>0} vanishes.
    """
    _check_lattice(lattice, x)
    if integer(n) < -1:
        raise ValueError("only L_n with n >= -1 is defined")
    B = lattice.B

    def image(key):
        alpha, fock = key
        out = []
        if n == -1:
            out += [((alpha, tuple(sorted(fock + ((i, 1),)))), a) for i, a in enumerate(alpha) if a]
        elif n == 0:  # B(alpha, alpha)/2 = b(alpha, alpha), as b + b^T = B
            out.append((key, lattice.sign_exponent(alpha, alpha)))
        for j, (i, k) in enumerate(fock):
            rest = fock[:j] + fock[j + 1 :]
            if k > n:
                out.append(((alpha, tuple(sorted(rest + ((i, k - n),)))), k))
            elif k == n:
                out.append(((alpha, rest), n * sum(b * a for b, a in zip(B[i], alpha))))
            else:
                out += [
                    ((alpha, rest[:l] + rest[l + 1 :]), k * k2 * B[i][i2])
                    for l, (i2, k2) in enumerate(rest[j:], j)
                    if k2 == n - k
                ]
        return out

    return x._map(image)


def field_mode(lattice, alpha, n, x):
    """Coefficient of z^{-1-n} in Y(e^alpha, z) x.

    Per beta-component: sign (-1)^{b(alpha,beta)}, target gamma = alpha + beta and
    monomial shift by B(alpha,beta), read off the cached rows of alpha.  Its
    annihilation exponential, (e_i)_{-k} -> (e_i)_{-k} - B(alpha, e_i) z^{-k}, is
    partitions.translate_codes on the codes of x, and partitions.create_codes multiplies
    its power p once by the integer series p! S_p, lifted by P!/p! to the common
    denominator d P! (d that of x, P the largest p); each output code is decoded once.
    """
    _check_lattice(lattice, x)
    alpha, n = lattice.vector(alpha), integer(n)
    B_row, b_row = _rows(lattice, alpha)
    by_beta, degree = {}, 0  # beta -> [(fock, int coefficient over d)]; the Fock degree
    for (beta, fock), c in x.nums.items():
        by_beta.setdefault(beta, []).append((fock, c))
        degree = max(degree, sum([k for _, k in fock]))
    shifts, rank = [1 + n + sum(map(mul, B_row, beta)) for beta in by_beta], lattice.rank
    weights = pt.code_weights(degree - min([0, *shifts]), rank)  # degree D leaves as D - shift
    components, largest = [], 0  # [(gamma, sign, shift, {m: [(code, int coefficient over d)]})]
    for (beta, focks), shift in zip(by_beta.items(), shifts):
        translated = pt.translate_codes(pt.encode(focks, weights, rank), weights, B_row, shift)
        if translated:
            sign = -1 if sum(map(mul, b_row, beta)) % 2 else 1
            components.append((tuple(map(add, alpha, beta)), sign, shift, translated))
            largest = max(largest, max(translated) - shift)
    lift = factorial(largest)
    out = {}
    for gamma, sign, shift, translated in components:
        coded = pt.create_codes(alpha, sign * lift, shift, translated, weights)
        out.update(((gamma, fock), c) for fock, c in pt.decode(coded.items(), weights, rank))
    return x._like_ints(out, x.den * lift)


@lru_cache(maxsize=1024)
def _rows(lattice, alpha):
    """(B(alpha, e_i))_i and (b(alpha, e_i))_i as tuples, so that B(alpha, beta) and
    b(alpha, beta) are dot products with beta."""
    basis = [lattice.basis_vector(i) for i in range(lattice.rank)]
    forms = (lattice.pairing, lattice.sign_exponent)
    return tuple(tuple(form(alpha, e) for e in basis) for form in forms)


def primary_check(lattice, x, h):
    """The primary-state conditions L_0 x = h x and L_n x = 0 for 1 <= n <= the Fock
    degree of x, as (label, residual) pairs: L_n lowers the Fock degree by n and
    kills every e^alpha for n > 0, so no higher L_n acts."""
    pairs = [("L_0", virasoro(lattice, 0, x) - x.scale(h))]
    return pairs + [(f"L_{n}", virasoro(lattice, n, x)) for n in range(1, x.fock_degree() + 1)]
