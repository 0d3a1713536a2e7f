"""Grassmannian calculus on symmetric functions.

Schubert reduction, Hecke operators, the Grassmannian Virasoro operators
and constraints, the framed wall-crossing class of every quiver, relations
included (the Grassmannian class Gr(k,N) is the class of A_1 = linear(1) at
framing N and dimension k), descendent integrals, the cubic Calogero-Sutherland
operator, and Virasoro Fock representations with their Jack singular vectors.
Everything is exact over Q.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

from . import latticeva as lv
from . import partitions as pt
from . import quiver as qv
from . import symfunc as sf
from .lincomb import coerce, integer, integral, rational
from .symfunc import SymFunc


class GrElem:
    """Component Q^N q^k (x) f of the Grassmannian state space."""

    __slots__ = ("N", "k", "f")

    def __init__(self, N, k, f):
        self.N, self.k = integer(N), integer(k)
        if N < 0:
            raise ValueError("N must be nonnegative")
        self.f = f

    def scale(self, c):
        return GrElem(self.N, self.k, self.f.scale(c))

    def __eq__(self, other):
        return (
            isinstance(other, GrElem)
            and (self.N, self.k) == (other.N, other.k)
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.N, self.k, self.f))

    def __repr__(self):
        return f"GrElem(N={self.N}, k={self.k}, f={self.f!r})"


# -- Hecke operators ----------------------------------------------------------


def hecke(n, f):
    """H_n = sum_{j>=0} (-1)^j h_{j+n} e_j^perp, where sum_j (-1)^j e_j^perp z^{-j}
    = exp(-sum p_{-j}/j z^{-j}) is the translation p_k -> p_k - z^{-k}."""
    return _translated_mode(n, 1, f)


def hecke_sym(n, f):
    """Mode n of exp(sum p_j/j z^j) exp(-sum 2 p_{-j}/j z^{-j}) applied to f."""
    return _translated_mode(n, 2, f)


def _translated_mode(n, weight, f):
    """sum_m h_{n+m} [z^{-m}] f(p_k - weight z^{-k}), the one-step partitions.vertex_chain
    whose creation half multiplies by h_{n+m}, the series of alpha = (1,); inside,
    partitions are keyed by their codes (partitions.code_weights), decoded once."""
    weights, step = pt.code_weights(f.degree() + max(integer(n), 0)), ((1,), (weight,), -n, 1, None)
    d, terms = pt.vertex_chain(pt.encode(f.nums.items(), weights), weights, [step])
    return SymFunc._ints(dict(pt.decode(terms, weights)), f.den * d)


# -- the Grassmannian class ---------------------------------------------------


def _check_gr(k, N):
    """ValueError unless k and N are ints with 0 <= k <= N."""
    if not 0 <= integer(k) <= integer(N):
        raise ValueError("need 0 <= k <= N")


def gr_class_schur(k, N):
    """[Gr(k,N)] = Q^N q^k (x) (-1)^{k(N-k)} s_{(N-k)^k}."""
    _check_gr(k, N)
    sign = -1 if (k * (N - k)) % 2 else 1
    return GrElem(N, k, sf.schur(pt.rectangle(N - k, k)).scale(sign))


_A1 = qv.builtin("linear(1)")


def gr_class_wallcross(k, N):
    """[Gr(k,N)], the framed class of A_1 = linear(1) at f = (N), d = (k), read as a
    GrElem: the Fock state prod (e_1)_{-la_i} is p_la."""
    _check_gr(k, N)
    if not k:  # Gr(0,N) is a point, also at N = 0, where (0) is no framing
        return GrElem(N, 0, SymFunc.one())
    x = framed_class(_A1, (N,), (k,))  # a key is (beta, fock); fock ascends, la descends
    return GrElem(N, k, x._map(lambda t: [(tuple([j for _, j in t[1]][::-1]), 1)], 1, SymFunc()))


def framed_lattice(quiver, f):
    """The lattice of the framed quiver, in the basis (e_inf, the vertices in order):
    M = [[0, -f], [0, euler_matrix(quiver)]] borders the Euler matrix with the framing
    pairing chi(e_inf, e_v) = -f_v, B = M + M^T and sign datum b = M^T.  One lattice
    is shared by every call on an equal quiver and framing."""
    return _framed_lattice(quiver, qv.FramingVector(quiver, f).values)


@lru_cache(maxsize=256)  # keyed by the caller's quiver and framing, so bounded
def _framed_lattice(quiver, f):
    M = [[0] + [-x for x in f]] + [[0] + row for row in qv.euler_matrix(quiver)]
    Mt = [list(col) for col in zip(*M)]
    return lv.Lattice(B=[[a + b for a, b in zip(*rows)] for rows in zip(M, Mt)], b=Mt)


def framed_class(quiver, f, d):
    """The wall-crossing class of the framed moduli space M^f_d of a quiver, a VAElem on
    e^{(1,d)} of framed_lattice(quiver, f): from e^{e_inf}, apply -e^{e_v}_(0) d_v times
    at each vertex v in topological order, and scale by 1/prod_v d_v!.  Mode k of vertex
    v is p_k^(v): the integral of prod_v p_{mu^(v)} over M^f_d is the coefficient of its
    Fock monomial times prod_v z_{mu^(v)}.  The quiver may be a dg quiver: its degree -1
    arrows, the relations, enter only through the Euler form.

    The state stays on one component beta, of Fock degree D, and the bracket with e_v
    takes it to beta + e_v at degree D - 1 - B(e_v, beta); so the chain is planned first
    (a negative degree is zero), as the steps of one partitions.vertex_chain on the codes
    of one code_weights, and is decoded once, at the end."""
    d = qv.DimVector(quiver, d)
    if any(x < 0 for x in d.values):
        raise qv.QuiverError("negative_dimension", "dimension vector entries must be nonnegative")
    lattice = framed_lattice(quiver, f)
    plan, beta, degree, top = [], lattice.basis_vector(0), 0, 0  # plan: vertex_chain steps
    zero = lv.VAElem(lattice)
    for v in quiver.topological_order:
        e = lattice.basis_vector(1 + quiver.vertex_index(v))
        B_row, b_row = lv._rows(lattice, e)
        for _ in range(d[v]):
            shift = 1 + sum(map(operator.mul, B_row, beta))
            sign = 1 if sum(map(operator.mul, b_row, beta)) % 2 else -1
            plan.append((e, B_row, shift, sign, None))
            beta, degree = tuple(map(operator.add, beta, e)), degree - shift
            if degree < 0:
                return zero
            top = max(top, degree)
    weights, rank = pt.code_weights(top, lattice.rank), lattice.rank
    den, state = pt.vertex_chain([(0, 1)], weights, plan)
    den *= prod(map(factorial, d.values))
    return zero._like_ints({(beta, fock): c for fock, c in pt.decode(state, weights, rank)}, den)


# -- Virasoro operators on the Grassmannian state space -----------------------


def _lowering_part(n, linear_coeff, f, quad_coeff=1):
    """sum_j p_j p_{-n-j} + quad_coeff sum_{a+b=n} p_{-a} p_{-b} + linear_coeff p_{-n},
    n >= 1, the symfunc._heisenberg table over the parts of f, summed in int over d_f
    times the common denominator of the two coefficients."""
    d_c, ((_, linear), (_, quad)) = integral({0: Fraction(linear_coeff), 1: Fraction(quad_coeff)})
    parts = set().union(*f.nums)
    ops = [((q,), (q - n,), d_c) for q in parts if q > n]
    ops.append(((n,), (), linear))
    # the ordered pairs (a, b) and (b, a) are one row (a, b), a > b, of weight 2
    ops += [((a, n - a), (), quad * (1 if 2 * a == n else 2)) for a in parts if n <= 2 * a < 2 * n]
    return sf._heisenberg(f, ops, d_c)


def _raising_part(n, linear_coeff, f):
    """sum_j p_{n+j} p_{-j} + sum_{a+b=n} p_a p_b + linear_coeff p_n, n >= 1, the
    symfunc._heisenberg table over the parts of f, summed in int over d_f times the
    denominator of linear_coeff."""
    linear = Fraction(linear_coeff)
    d_c = linear.denominator
    ops = [((j,), (j + n,), d_c) for j in set().union(*f.nums)]
    ops += [((), pt.merge((a,), (n - a,)), d_c) for a in range(1, n)]
    ops.append(((), (n,), linear.numerator))
    return sf._heisenberg(f, ops, d_c)


def _l0(k, N, f):
    """sum_j p_j p_{-j} + k(k-N) id: multiplies each term by (degree + k(k-N))."""
    return f._map(lambda la: [(la, pt.size(la) + k * (k - N))])


def gr_virasoro(n, x):
    """L_n on the component Q^N q^k (x) f of the homology-side state space."""
    if integer(n) < 0:
        raise ValueError("gr_virasoro is defined for n >= 0")
    if n == 0:
        return GrElem(x.N, x.k, _l0(x.k, x.N, x.f))
    return GrElem(x.N, x.k, _lowering_part(n, 2 * x.k - x.N, x.f))


def gr_virasoro_dual(n, N, k, f):
    """The Hall-adjoint operator on the cohomology side of the (N,k) component."""
    if integer(n) < 0:
        raise ValueError("gr_virasoro_dual is defined for n >= 0")
    if n == 0:
        return _l0(k, N, f)
    return _raising_part(n, 2 * k - N, f)


def constraint_check(k, N, n_max):
    """The explicit differential Virasoro constraints on s = s_{(N-k)^k}, as
    (label, residual) pairs.

    L_0 leaves the part of s off degree k(N-k); for 1 <= n <= n_max, L_n applies
      sum_j (n+j) p_j d/dp_{n+j} + sum_{a+b=n} ab d/dp_a d/dp_b + (2k-N) n d/dp_n.
    Every residual vanishes when the constraints hold.
    """
    _check_gr(k, N)
    s = sf.schur(pt.rectangle(N - k, k))
    pairs = [("L_0", s - s.homogeneous_part(k * (N - k)))]
    for n in range(1, integer(n_max) + 1):
        pairs.append((f"L_{n}", _lowering_part(n, 2 * k - N, s)))
    return pairs


# -- Schubert reduction and integrals -----------------------------------------


def reduce_cohomology(k, N, f):
    """Schur coefficients of f surviving in H*(Gr(k,N)): la inside (N-k)^k."""
    _check_gr(k, N)
    box = pt.rectangle(N - k, k)
    return {la: c for la, c in sf.schur_expand(f).items() if pt.contains(box, la)}


def gr_integral(k, N, f):
    """Descendent integral: Hall pairing of f against the Schubert class."""
    return sf.hall(gr_class_schur(k, N).f, f)


def integrals_by_recursion(k, N, normalization):
    """All <p_la, f> for |la| = d = k(N-k), from the Virasoro identities alone.

    Only the dual Virasoro operators and one normalization <p_1^d, f>, an int or a
    Fraction, are used; the Schubert class is never consulted.  The partitions of d
    are grouped into levels (length, number of ones) and the levels walked in
    descending order, each in the order of partitions_of, the order of the output.
    For la with m ones and smallest part t > 1, gr_virasoro_dual(t - 1) of p_tilde,
    tilde = la with one t lowered to 1, holds p_la with coefficient m + 1, the pivot
    (a ValueError if it is not), and otherwise terms with one part j > 1 raised (the
    length of la, m + 1 ones) or with one or two parts added (longer): every value
    it reads is of an earlier level.
    """
    _check_gr(k, N)
    normalization = coerce(normalization)
    d = k * (N - k)
    if d == 0:
        return {(): normalization}
    levels = {}
    for la in pt.partitions_of(d):
        levels.setdefault((len(la), pt.multiplicity(la, 1)), []).append(la)
    # inside, partitions are keyed by their codes (partitions.code_weights): raising
    # a part j to j + n adds w[j + n] - w[j], and a union adds codes
    w = pt.code_weights(d)
    linear = 2 * k - N
    # every value is an int over the common denominator den, widened when a pivot needs it
    den = normalization.denominator
    table, coded = {d * w[1]: normalization.numerator}, []
    for (_, m), level in sorted(levels.items(), reverse=True):
        level = pt.encode(zip(level, level), w)
        coded += level
        if m == d:  # p_1^d, the normalization
            continue
        for key, la in level:
            t = la[-m - 1]  # smallest part > 1
            n = t - 1
            # gr_virasoro_dual(n) of p_tilde, summed into total, its p_la term into lead;
            # the parts of tilde are those of la > 1 less one t, then m + 1 ones
            parts, tilde = la[: -m - 1] + (1,) * (m + 1), key - w[t] + w[1]
            lead = total = 0
            for j in set(parts):  # each distinct part raised, weighted j times its count
                r = j * parts.count(j)
                mu = tilde - w[j] + w[j + n]
                if mu == key:
                    lead += r
                else:
                    total += r * table[mu]
            for a in range(1, n):
                total += table[tilde + w[a] + w[n - a]]
            total += linear * table[tilde + w[n]]
            if lead != m + 1:
                raise ValueError(f"recursion pivot for {la} is {lead}, expected {m + 1}")
            if total % lead:
                widen = lead // gcd(total, lead)
                den *= widen
                table = {mu: widen * x for mu, x in table.items()}
                total *= widen
            table[key] = -total // lead
    values, zero = rational(table, den), Fraction(0)
    return {la: values.get(key, zero) for key, la in coded}


# -- Calogero-Sutherland and geometricity -------------------------------------


def calogero_sutherland(f):
    """The cubic operator (1/2)(sum p_a p_b p_{-a-b} + p_{a+b} p_{-a} p_{-b}), the
    symfunc._heisenberg table over the parts of f; a pair a != b counts twice."""
    parts = set().union(*f.nums)
    ops = [((q,), (a, q - a), 1 if 2 * a == q else 2) for q in parts for a in range(-(-q // 2), q)]
    ops += [((a, b), (a + b,), 1 if a == b else 2) for a in parts for b in parts if b <= a]
    return sf._heisenberg(f, ops, 2)


def r_n_symfunc(n, f):
    """The derivation with R_n(p_j) = j p_{j+n} (descendent R_n read through
    the dictionary p_j = j! ch_j), for n >= 1: the symfunc._heisenberg rows p_{j+n} p_{-j}."""
    if integer(n) < 1:
        raise ValueError("needs n >= 1")
    return sf._heisenberg(f, [((j,), (j + n,), 1) for j in set().union(*f.nums)])


def geometricity_check(k, N, n, deg_max):
    """Check R_n sends each ideal generator of H*(Gr(k,N)) into the ideal.

    Generators are e_j for j > k and h_j for j > N-k, up to degree deg_max;
    an image lies in the ideal exactly when its Schubert reduction is empty.
    Returns (generator, Schubert reduction of its image) pairs.
    """
    _check_gr(k, N)
    if integer(n) < 1:
        raise ValueError("needs n >= 1")
    gens = [(f"e{j}", sf.elementary(j)) for j in range(k + 1, integer(deg_max) + 1)]
    gens += [(f"h{j}", sf.complete(j)) for j in range(N - k + 1, deg_max + 1)]
    return [(name, reduce_cohomology(k, N, r_n_symfunc(n, g))) for name, g in gens]


# -- Virasoro Fock representations and Jack singular vectors -------------------


class FockParams:
    """Highest-weight data for a Fock representation, rational in beta^2.

    The defining combinations alpha*beta = (1+r) beta^2/2 - (1+s) and
    beta_0*beta = beta^2/2 - 1 keep every operator coefficient rational.
    """

    __slots__ = ("beta_sq", "r", "s")

    def __init__(self, beta_sq, r, s):
        self.beta_sq = Fraction(beta_sq)
        if self.beta_sq == 0:
            raise ValueError("beta^2 must be nonzero")
        self.r, self.s = integer(r), integer(s)
        if r < 1 or s < 1:
            raise ValueError("r and s must be positive integers")

    @property
    def alpha_beta(self):
        return Fraction(1 + self.r) * self.beta_sq / 2 - (1 + self.s)

    @property
    def beta0_beta(self):
        return self.beta_sq / 2 - 1

    def linear_coefficient(self, n):
        """Coefficient of the annihilation term p_{-n} in L_n.

        This is alpha*beta - (n+1) beta_0*beta; the sign of the beta_0 term
        is pinned by the rank-one singular vectors (see the r = s = 1 test,
        where the coefficient must vanish identically in beta^2).
        """
        return self.alpha_beta - (n + 1) * self.beta0_beta

    def __repr__(self):
        return f"FockParams(beta_sq={self.beta_sq}, r={self.r}, s={self.s})"


def fock_virasoro(params, n, f):
    """L_n, n >= 1, on the Fock representation:
    (beta^2/2) sum_{s+t=n} p_{-s} p_{-t} + sum_{s>0} p_s p_{-s-n} + c_n p_{-n}."""
    if integer(n) < 1:
        raise ValueError("fock_virasoro is defined for n >= 1")
    return _lowering_part(n, params.linear_coefficient(n), f, quad_coeff=params.beta_sq / 2)


JACK_VARIANTS = ("beta_sq/2", "2/beta_sq")


def jack_parameter(params, variant):
    if variant == "beta_sq/2":
        return params.beta_sq / 2
    if variant == "2/beta_sq":
        return 2 / params.beta_sq
    raise ValueError(f"unknown Jack variant {variant!r}; use one of {JACK_VARIANTS}")


def singular_vector(params, variant="beta_sq/2"):
    """sigma(J_{(r)^s}) at the chosen Jack-parameter convention."""
    la = pt.rectangle(params.r, params.s)
    return sf.involution(sf.jack(la, jack_parameter(params, variant)))


def singular_check(params, variant="beta_sq/2"):
    """(L_n, fock_virasoro L_n of the Jack candidate) for 1 <= n <= rs; every
    residual vanishes when the candidate is singular."""
    w = singular_vector(params, variant)
    return [(f"L_{n}", fock_virasoro(params, n, w)) for n in range(1, params.r * params.s + 1)]
