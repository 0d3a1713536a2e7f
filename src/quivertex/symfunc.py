"""Exact arithmetic in the ring of symmetric functions over Q.

Everything is stored in the power-sum basis: a SymFunc is a sparse map
from partitions la to the rational coefficient of p_la.  The Hall pairing
is diagonal in this basis, and all Virasoro / Hecke / vertex operators
used elsewhere are simple there, which is why p is the canonical basis
and e, h, m, s and Jack polynomials are conversions; s_la is a chain of
Hecke vertex operators on the int codes of ``partitions``, and an operator
normal-ordered in the p_n and p_{-n} = n d/dp_n is a table of rows of one
kernel, ``_heisenberg``.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd

from . import partitions as pt
from .lincomb import Algebra, integer, rational


class SymFunc(Algebra):
    """Sparse rational linear combination of power-sum monomials p_la."""

    __slots__ = ()
    _merge = staticmethod(pt.merge)

    def _check_key(self, la):
        return pt.check_partition(la)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def p(n):
        """The power sum p_n, n >= 1."""
        if n < 1:
            raise ValueError("power sums are indexed by positive integers")
        return SymFunc({(n,): Fraction(1)})

    @staticmethod
    def p_monomial(la):
        """p_la = prod_i p_{la_i}."""
        return SymFunc({pt.check_partition(la): Fraction(1)})

    # -- structure queries -------------------------------------------------

    def coefficient(self, la):
        return Fraction(self.nums.get(pt.check_partition(la), 0), self.den)

    def degree(self):
        """Max degree among stored terms; -1 for the zero function."""
        return max((pt.size(la) for la in self.nums), default=-1)

    def homogeneous_part(self, d):
        return SymFunc._ints({la: n for la, n in self.nums.items() if pt.size(la) == d}, self.den)

    def sorted_terms(self):
        """Terms in canonical order: degree, then lexicographic on the tuple."""
        return sorted(self.terms.items(), key=lambda kv: (pt.size(kv[0]), kv[0]))

    def __repr__(self):
        from .serialize import symfunc_to_text

        return f"SymFunc({symfunc_to_text(self)})"


# -- generators of the classical bases --------------------------------------


@lru_cache(maxsize=256)  # keyed by the caller's degree, so bounded
def elementary(j):
    """e_j = omega(h_j) in the p-basis."""
    return involution(complete(j))


@lru_cache(maxsize=256)  # keyed by the caller's degree, so bounded
def complete(j):
    """h_j = s_(j) = sum_{la |- j} p_la / z_la in the p-basis; h_{<0} = 0."""
    return SymFunc.zero() if j < 0 else schur((j,) if j else ())


@lru_cache(maxsize=1024)  # keyed by the caller's partition, so bounded
def schur(la):
    """s_la = H_{la_1} ... H_{la_l}(1), H_n the Hecke operator of grasscalc.hecke
    (Macdonald I.5 Ex. 29): one partitions.vertex_chain of H_{la_l} first, on the codes
    of code_weights(|la|), decoded once.  Before H_{la_i} the state is s_mu, mu = (la_{i+1},
    ...), whose translation has no power above ell(mu): its pieces are (-1)^m e_m^perp s_mu."""
    la = pt.check_partition(la)
    weights = pt.code_weights(pt.size(la))
    steps = [((1,), (1,), -q, 1, i) for i, q in enumerate(reversed(la))]
    d, terms = pt.vertex_chain([(0, 1)], weights, steps)
    return SymFunc._ints(dict(pt.decode(terms, weights)), d)


@lru_cache(maxsize=1024)  # keyed by the caller's partition, so bounded
def monomial(la):
    """m_la in the p-basis, solved from the rows of the p_rho with rho >= la."""
    return _from_monomials([(pt.check_partition(la), 1)])


def _from_monomials(target, den=1):
    """sum_nu t_nu m_nu / den in the p-basis, for the (nu, int t_nu) pairs of target,
    all nu of one degree d.

    With p_rho = sum_mu L_rho,mu m_mu, the coefficient c_rho of p_rho solves
    L_rho,rho c_rho = t_rho - sum_sigma c_sigma L_sigma,rho.  L_sigma,rho vanishes
    unless rho >= sigma in dominance, which ascending lexicographic order refines, so
    the c_rho are found in that order, from the finest up, reading only the rows of
    the rho met with a nonzero right side.  Where the pivot L_rho,rho = prod_i m_i(rho)!
    does not divide, the int denominator den is widened.
    """
    d = pt.size(target[0][0])
    w, row_of, out = pt.code_weights(d), _rows(d), {}
    left = dict(pt.encode(target, w))  # left[mu] = t_mu - sum_sigma c_sigma L_sigma,mu
    for code, rho in pt.encode(((rho, rho) for rho in reversed(pt.partitions_of(d))), w):
        x = left.get(code)
        if x:
            row = row_of(rho)
            if x % row[code]:
                widen = row[code] // gcd(x, row[code])
                den, x = den * widen, x * widen
                left = {mu: widen * y for mu, y in left.items()}
                out = {sigma: widen * c for sigma, c in out.items()}
            c = out[rho] = x // row[code]
            for mu, y in row.items():
                left[mu] = left.get(mu, 0) - c * y
    return SymFunc._ints(out, den)


def _rows(top):
    """row(rho), the row {code of mu: L_rho,mu} of p_rho = sum_mu L_rho,mu m_mu, |rho| <= top
    (L_rho,mu = <p_rho, h_mu>, Macdonald I.6; codes under code_weights(top)), built by
    _row_step on the rows of the suffixes of rho, which a table local to this call keeps."""
    w, rows, mults = [0, *pt.code_weights(top)[1:]], {(): {0: 1}}, {0: {0: 0}}

    def row(rho):
        for i in range(len(rho) - 1, -1, -1):
            if rho[i:] not in rows:
                rows[rho[i:]] = _row_step(rho[i:], rows, w, mults)
        return rows[rho]

    return row


def _row_step(rho, rows, w, mults):
    """The row of p_rho from that of rho[1:], by p_k m_mu = sum_nu r m_nu with k = rho[0]:
    nu is mu with one part a raised to a + k, or with a part k added (a = 0), and r is
    the multiplicity of a + k in nu.  Under the code weights w, w[0] = 0; mults maps each
    code to {part: multiplicity} and the entry 0: 0 for a = 0, and gains each new nu."""
    k, out = rho[0], {}
    get = out.get
    for mu, c in rows[rho[1:]].items():
        m = mults[mu]
        for a in m:
            nu, r = mu + w[a + k] - w[a], m.get(a + k, 0) + 1
            out[nu] = get(nu, 0) + c * r
            if nu not in mults:
                n = mults[nu] = {**m, a + k: r}
                if a and n.pop(a) > 1:  # one part a fewer
                    n[a] = m[a] - 1
    return out


# -- Hall pairing and friends ------------------------------------------------


def hall(f, g):
    """Hall inner product, <p_la, p_mu> = delta * z_la, extended bilinearly."""
    return hall_deformed(f, g, 1)


def annihilate(n, f):
    """p_{-n} = n * d/dp_n, the Hall adjoint of multiplication by p_n: one _heisenberg row."""
    if integer(n) < 1:
        raise ValueError("annihilation index must be >= 1")
    return _heisenberg(f, [((n,), (), 1)])


def involution(f):
    """The algebra involution sending p_j to (-1)^(j-1) p_j (s_la to s_la^t)."""
    return SymFunc._ints({la: n * pt.sign_of_conjugation(la) for la, n in f.nums.items()}, f.den)


def skew_by(g, f):
    """g^perp(f), the Hall adjoint of multiplication by g: the _heisenberg rows (la, (), n)
    of the terms n p_la of g, over the denominator of g."""
    return _heisenberg(f, [(la, (), n) for la, n in g.nums.items()], g.den)


def _heisenberg(f, ops, den=1):
    """sum c p_cre p_ann^perp (f) / den over the int rows (ann, cre, c) of ops, ann and cre
    partitions: p_ann^perp p_mu is p_{mu - ann} times prod_q q^s m!/(m-s)!, s and m the
    multiplicities of q in ann and mu, or 0 when ann does not fit in mu.  The rows are
    grouped by the largest part of ann, 0 for ann = (), and a term p_mu reads only the
    groups of 0 and of the parts of mu; so every normal-ordered operator in the p_n and
    p_{-n} is its table of rows, built from the distinct parts of f."""
    groups = {}
    for ann, cre, c in ops:
        groups.setdefault(ann[0] if ann else 0, []).append((ann, cre, c))

    def image(mu):
        out = []
        for top, rows in groups.items():
            if top and top not in mu:
                continue
            for ann, cre, w in rows:
                rest = mu
                for q in ann:
                    m = rest.count(q)
                    if not m:
                        break
                    w *= q * m
                    rest = pt.remove_one(rest, q)
                else:
                    out.append((pt.merge(rest, cre) if cre else rest, w))
        return out

    return f._map(image, den)


def schur_expand(f):
    """Coefficients {la: <f, s_la>} of the Schur expansion of f."""
    out = {}
    degrees = {pt.size(la) for la in f.nums}
    for d in sorted(degrees):
        fd = f.homogeneous_part(d)
        for la in pt.partitions_of(d):
            c = hall(fd, schur(la))
            if c:
                out[la] = c
    return out


def monomial_expand(f):
    """Coefficients {la: c_la} with f = sum c_la m_la: c_la = sum_rho f_rho L_rho,la,
    summed in int over the rows (_rows) of f's own p_rho."""
    w, row, out = pt.code_weights(f.degree()), _rows(f.degree()), {}
    for rho, n in f.nums.items():
        for mu, y in row(rho).items():
            out[mu] = out.get(mu, 0) + n * y
    return rational(dict(pt.decode(out.items(), w)), f.den)


# -- Jack polynomials ---------------------------------------------------------


def hall_deformed(f, g, alpha):
    """The alpha-deformed pairing, <p_la, p_mu> = delta * z_la * alpha^ell(la).

    Summed in int: alpha^l = a^l b^(top - l) / b^top for alpha = a/b, top the longest length.
    """
    alpha = Fraction(alpha)
    a, b = alpha.numerator, alpha.denominator
    small, big = (f.nums, g.nums) if len(f.nums) <= len(g.nums) else (g.nums, f.nums)
    shared = [(la, x, big[la]) for la, x in small.items() if la in big]
    top = max((len(la) for la, _, _ in shared), default=0)
    total = sum(x * y * pt.z_int(la) * a ** len(la) * b ** (top - len(la)) for la, x, y in shared)
    return Fraction(total, f.den * g.den * b**top)


def jack(la, alpha):
    """Monic Jack polynomial P_la^(alpha) = m_la + lower monomial terms.

    Raises for alpha = 0, and at an alpha where P_la has a pole.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("Jack parameter must be nonzero")
    return _jack(pt.check_partition(la), alpha)


@lru_cache(maxsize=256)  # keyed by the caller's partition and alpha, so bounded
def _jack(la, alpha):
    """P_la = sum_nu u_nu m_nu as the eigenvector of Stanley's operator D(alpha).

    On the m-basis D(alpha) m_mu = eps_mu m_mu + lower terms, eps_mu = alpha n(mu') - n(mu)
    with n(mu) = sum (i-1) mu_i, so u_la = 1 and (eps_la - eps_nu) u_nu = sum_mu c u_mu
    for each nu < la in dominance.  c is read from nu: two of its parts x >= y (m_x m_y
    choices, or C(m_x, 2) when x = y) replace the parts {x + y - q, q} of mu, 0 <= q < y
    (one part when q = 0), with weight x + y - 2q.  Descending lexicographic order
    refines dominance, so each u_mu is known when a u_nu needs it.

    With alpha = a/b, b (eps_la - eps_nu) at alpha + t is g0 + g1 t, g1 > 0, and g0 > 0
    when alpha > 0.  Each u is a series mod t^K, its int coefficients over one common
    denominator den, widened when a division needs it.  Where g0 = 0 the sum must have
    no constant term, or P_la has a pole at alpha, and it is shifted down one order; K
    is one more than the number of such nu, so every constant term stays exact.  The
    constant terms, over den, go to the p-basis through _from_monomials.
    """
    a, b = alpha.numerator, alpha.denominator
    d = pt.size(la)
    w = pt.code_weights(d)
    # nu < la in dominance: no partial sum of nu exceeds that of la
    below = [
        nu
        for nu in pt.partitions_of(d)
        if nu < la and all(map(operator.ge, accumulate(la), accumulate(nu)))
    ]
    e0, e1 = _b_eps(la, a, b)
    gaps = [(e0 - f0, e1 - f1) for f0, f1 in (_b_eps(nu, a, b) for nu in below)]
    order = 1 + sum(g0 == 0 for g0, _ in gaps)
    coded = pt.encode(((nu, nu) for nu in (la, *below)), w)
    den = 1
    u = {coded[0][0]: [1] + [0] * (order - 1)}
    for (key, nu), (g0, g1) in zip(coded[1:], gaps):
        parts = list({x: nu.count(x) for x in nu}.items())  # (part, multiplicity), descending
        s = [0] * order
        for i, (x, mx) in enumerate(parts):
            for y, my in parts[i if mx > 1 else i + 1 :]:
                ways = mx * (mx - 1) // 2 if x == y else mx * my
                rest = key - w[x] - w[y]
                for q in range(y):
                    v = u.get(rest + w[x + y - q] + (w[q] if q else 0))
                    if v:
                        c = ways * (x + y - 2 * q)
                        for k, z in enumerate(v):
                            s[k] += c * z
        if g0 == 0:
            if s[0]:
                raise ValueError(f"P_{la} has a pole at alpha={alpha} (coefficient of m_{nu})")
            s, g0, g1 = s[1:] + [0], g1, 0  # the top order is unknown from here on
        out = []  # u_nu = b s / (g0 + g1 t), one order at a time
        for k in range(order):
            x = b * s[k] - g1 * (out[-1] if out else 0)
            if x % g0:
                widen = abs(g0) // gcd(x, g0)
                den *= widen
                u = {mu: [widen * z for z in v] for mu, v in u.items()}
                s, out, x = [widen * z for z in s], [widen * z for z in out], widen * x
            out.append(x // g0)
        u[key] = out
    return _from_monomials([(nu, u[key][0]) for key, nu in coded], den)


def _b_eps(mu, a, b):
    """b eps_mu at alpha = a/b + t as (constant, coefficient of t): eps_mu = alpha n(mu') - n(mu),
    n(mu) = sum_i (i-1) mu_i and n(mu') = sum_i C(mu_i, 2)."""
    n_conj = sum(p * (p - 1) // 2 for p in mu)
    return a * n_conj - b * sum(i * p for i, p in enumerate(mu)), b * n_conj
