"""The per-monomial operators against their element-building forms.

The reference implementations below apply each operator by building an
element per term, per factor or per vertex pair and multiplying or
recursing, as the library once did: the lattice L_n by recursion over the
creation factors, the Grassmannian and Fock operators by annihilating and
then multiplying, T_n from unit vectors and euler_form, and e_j by Newton's
identity.  They call only the library's single-mode primitives (create,
annihilate_mode, annihilate, the products), so they are an independent
oracle for the summing loops in latticeva, grasscalc, descendent and symfunc.
"""

import random
from fractions import Fraction
from math import factorial

from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import partitions as pt
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex.checks import _random_symfunc, _random_vaelem
from quivertex.descendent import DescendentPoly
from quivertex.symfunc import SymFunc

from fraction_reference import add_all

# -- lattice vertex algebra ------------------------------------------------------


def ref_apply_mode(lattice, v, m, x):
    """v_{(m)} for any integer m: creation for m < 0, zero mode, or annihilation."""
    if m < 0:
        return lv.create(lattice, v, -m, x)
    return lv.annihilate_mode(lattice, v, m, x)


def ref_translate(lattice, x):
    """[T, v_{(-k)}] = k v_{(-k-1)} per factor, plus T e^alpha = e^alpha (x) alpha_{-1}."""
    out = lv.VAElem(lattice)
    for (alpha, fock), c in x.terms.items():
        for j, (i, mode) in enumerate(fock):
            bumped = tuple(sorted(fock[:j] + fock[j + 1 :] + ((i, mode + 1),)))
            out = out + lv.VAElem(lattice, {(alpha, bumped): c * mode})
        out = out + lv.create(lattice, alpha, 1, lv.VAElem(lattice, {(alpha, fock): c}))
    return out


def ref_virasoro_term(lattice, n, alpha, fock):
    """L_n on one monomial: commute past its first factor, recurse on the rest."""
    if not fock:
        if n == 0:
            return lv.VAElem(lattice, {(alpha, ()): Fraction(lattice.pairing(alpha, alpha), 2)})
        return lv.VAElem(lattice)
    (i, mode), rest = fock[0], fock[1:]
    e_i = lattice.basis_vector(i)
    suffix = lv.VAElem(lattice, {(alpha, rest): 1})
    bracket = ref_apply_mode(lattice, e_i, n - mode, suffix).scale(mode)
    tail = lv.create(lattice, e_i, mode, ref_virasoro_term(lattice, n, alpha, rest))
    return bracket + tail


def ref_virasoro(lattice, n, x):
    if n == -1:
        return ref_translate(lattice, x)
    out = lv.VAElem(lattice)
    for (alpha, fock), c in x.terms.items():
        out = out + ref_virasoro_term(lattice, n, alpha, fock).scale(c)
    return out


def _random_lattice(rng):
    """Rank 1..3 with a random integral sign datum b and B = b + b^T."""
    rank = rng.randint(1, 3)
    b = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rank)]
    B = [[b[i][j] + b[j][i] for j in range(rank)] for i in range(rank)]
    return lv.Lattice(B, b)


DEGENERATE = lv.Lattice(B=[[2, 2], [2, 2]], b=[[1, 2], [0, 1]])


def test_lattice_virasoro_matches_recursion():
    rng = random.Random(307)
    nontrivial = 0
    for trial in range(120):
        lat = DEGENERATE if trial % 4 == 0 else _random_lattice(rng)
        x = _random_vaelem(lat, rng, max_fock=6)
        for n in range(-1, 5):
            got = lv.virasoro(lat, n, x)
            assert got == ref_virasoro(lat, n, x), (lat, n, x)
            nontrivial += n > 0 and bool(got)
    assert nontrivial >= 100


# -- Grassmannian and Fock operators -------------------------------------------


def ref_lowering_part(n, linear_coeff, f, quad_coeff=1):
    """sum_j p_j p_{-n-j} + quad_coeff sum_{a+b=n} p_{-a} p_{-b} + linear_coeff p_{-n}."""
    out = {}
    for j in range(1, max(0, f.degree() - n) + 1):
        add_all(out, (SymFunc.p(j) * sf.annihilate(n + j, f)).terms)
    for a in range(1, n):
        add_all(out, sf.annihilate(a, sf.annihilate(n - a, f)).terms, quad_coeff)
    if linear_coeff:
        add_all(out, sf.annihilate(n, f).terms, linear_coeff)
    return SymFunc._wrap(out)


def ref_raising_part(n, linear_coeff, f):
    """sum_j p_{n+j} p_{-j} + sum_{a+b=n} p_a p_b + linear_coeff p_n."""
    out = {}
    for j in range(1, f.degree() + 1):
        add_all(out, (SymFunc.p(n + j) * sf.annihilate(j, f)).terms)
    for a in range(1, n):
        add_all(out, (SymFunc.p_monomial(pt.merge((a,), (n - a,))) * f).terms)
    if linear_coeff:
        add_all(out, (SymFunc.p(n) * f).terms, linear_coeff)
    return SymFunc._wrap(out)


def ref_calogero_sutherland(f):
    """(1/2)(sum p_a p_b p_{-a-b} + p_{a+b} p_{-a} p_{-b}) by annihilate-then-multiply."""
    out = {}
    deg = f.degree()
    for a in range(1, deg + 1):
        for b in range(1, deg - a + 1):
            piece = sf.annihilate(a + b, f)
            add_all(out, (SymFunc.p_monomial(pt.merge((a,), (b,))) * piece).terms)
    for b in range(1, deg + 1):
        inner = sf.annihilate(b, f)
        for a in range(1, inner.degree() + 1):
            add_all(out, (SymFunc.p(a + b) * sf.annihilate(a, inner)).terms)
    return SymFunc._wrap(out).scale(Fraction(1, 2))


def test_fock_operators_match_annihilate_then_multiply():
    rng = random.Random(311)
    nontrivial = 0
    for trial in range(320):
        f = _random_symfunc(rng, 8)
        n = rng.randint(1, 6)
        lin = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if trial % 2 else Fraction(0)
        quad = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        low = gc._lowering_part(n, lin, f, quad_coeff=quad)
        assert low == ref_lowering_part(n, lin, f, quad_coeff=quad), (n, lin, quad, f)
        assert gc._lowering_part(n, lin, f) == ref_lowering_part(n, lin, f), (n, lin, f)
        assert gc._raising_part(n, lin, f) == ref_raising_part(n, lin, f), (n, lin, f)
        assert gc.calogero_sutherland(f) == ref_calogero_sutherland(f), f
        nontrivial += bool(low)
    assert nontrivial >= 150


# -- descendent T_n ---------------------------------------------------------------


def ref_t_element(quiver, n):
    """sum_{a+b=n} a! b! sum_{v,w} chi(e_v, e_w) ch_a(v) ch_b(w), pair by pair."""
    out = DescendentPoly.zero()
    for a in range(n + 1):
        for v in quiver.vertices:
            for w in quiver.vertices:
                chi = qv.euler_form(quiver, quiver.unit_vector(v), quiver.unit_vector(w))
                term = DescendentPoly.ch(a, v) * DescendentPoly.ch(n - a, w)
                out = out + term.scale(factorial(a) * factorial(n - a) * chi)
    return out


def ref_framed_t_element(quiver, framing, n):
    out = ref_t_element(quiver, n)
    for v in quiver.vertices if n >= 0 else ():
        out = out - DescendentPoly.ch(n, v).scale(factorial(n) * framing[v])
    return out


def test_t_elements_match_unit_vector_form():
    rng = random.Random(313)
    for name in ("beilinson_p2", "p1xp1", "kronecker(3)", "linear(2)"):
        quiver = qv.builtin(name)
        framing = qv.FramingVector(quiver, [rng.randint(0, 3) for _ in quiver.vertices[1:]] + [2])
        for n in range(-1, 6):
            assert dc.t_element(quiver, n) == ref_t_element(quiver, n), (name, n)
            got = dc.framed_t_element(quiver, framing, n)
            assert got == ref_framed_t_element(quiver, framing, n), (name, n)


# -- symmetric-function bases -----------------------------------------------------


def ref_newton(max_j, sign):
    """[x_0, ..., x_max_j] from Newton's identity j x_j = sum_i sign^(i-1) x_{j-i} p_i:
    e_j for sign -1, h_j for sign 1."""
    xs = [SymFunc.one()]
    for j in range(1, max_j + 1):
        x = SymFunc.zero()
        for i in range(1, j + 1):
            x = x + (xs[j - i] * SymFunc.p(i)).scale(Fraction(sign ** (i - 1), j))
        xs.append(x)
    return xs


def test_elementary_and_complete_match_newton_identities():
    for sign, basis in ((-1, sf.elementary), (1, sf.complete)):
        for j, want in enumerate(ref_newton(12, sign)):
            assert basis(j) == want, (sign, j)
        assert basis(-1) == SymFunc.zero()
