"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single line `ACCEPT <id> PASS <summary> (<elapsed>)` on
success and enforces the stated runtime budget.
"""

import random
import time
from fractions import Fraction
from math import factorial

from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import partitions as pt
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex.checks import _random_monomial, _random_symfunc, _random_vaelem
from quivertex.symfunc import SymFunc


F = Fraction


class _Budget:
    def __init__(self, ident, summary, seconds):
        self.ident = ident
        self.summary = summary
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPT {self.ident} PASS {self.summary} ({elapsed * 1000:.1f} ms)")
            assert elapsed < self.seconds, (
                f"criterion {self.ident} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        else:
            print(f"ACCEPT {self.ident} FAIL {self.summary}")
        return False


def test_criterion_01_schur_22():
    sf.schur((2, 2))  # warm the cache: the budget covers the lookup arithmetic
    with _Budget("01", "s_(2,2) = 1/12 p1^4 + 1/4 p2^2 - 1/3 p1 p3", 0.001):
        expected = SymFunc(
            {(1, 1, 1, 1): F(1, 12), (2, 2): F(1, 4), (3, 1): F(-1, 3)}
        )
        assert sf.schur((2, 2)) == expected


def test_criterion_02_gr24_integrals():
    gc.gr_class_schur(2, 4)  # warm the Schur cache
    with _Budget("02", "all five Gr(2,4) descendent integrals", 0.010):
        values = {
            (1, 1, 1, 1): 2,
            (2, 2): 2,
            (3, 1): -1,
            (4,): 0,
            (2, 1, 1): 0,
        }
        for la, v in values.items():
            assert gc.gr_integral(2, 4, SymFunc.p_monomial(la)) == v, la


def test_criterion_03_virasoro_constraints_grid():
    with _Budget("03", "Virasoro constraints kill s_(N-k)^k for N <= 7, n <= 6", 30):
        for N in range(0, 8):
            for k in range(0, N + 1):
                rep = gc.constraint_check(k, N, 6)
                assert rep["all_ok"], (k, N, rep)


def test_criterion_04_wallcross_equals_schur():
    with _Budget("04", "wall-crossing class equals Schubert class for N <= 6", 60):
        for N in range(0, 7):
            for k in range(0, N + 1):
                assert gc.gr_class_wallcross(k, N) == gc.gr_class_schur(k, N), (k, N)


def test_criterion_05_hecke_identity_suite():
    with _Budget("05", "Hecke identities: commutators, adjoints, rectangles", 60):
        rng = random.Random(2001)

        # (1) [H_n, p_m] = -H_{n+m}, m != 0
        for n in range(-4, 5):
            for m in range(-4, 5):
                if m == 0:
                    continue
                f = _random_symfunc(rng, 5)
                if m > 0:
                    comm = gc.hecke(n, SymFunc.p(m) * f) - SymFunc.p(m) * gc.hecke(n, f)
                else:
                    comm = gc.hecke(n, sf.annihilate(-m, f)) - sf.annihilate(
                        -m, gc.hecke(n, f)
                    )
                assert comm == -gc.hecke(n + m, f), ("(1)", n, m)

        # (2) H_n^perp = (-1)^n sigma H_{-n} sigma
        for n in range(-4, 5):
            f = _random_symfunc(rng, 5)
            g = _random_symfunc(rng, 5)
            adj = sf.involution(gc.hecke(-n, sf.involution(g))).scale(-1 if n % 2 else 1)
            assert sf.hall(gc.hecke(n, f), g) == sf.hall(f, adj), ("(2)", n)

        # (3) H_n H_m = -H_{m-1} H_{n+1}, in particular H_n H_{n+1} = 0
        for n in range(-4, 5):
            for m in range(-4, 5):
                f = _random_symfunc(rng, 5)
                assert gc.hecke(n, gc.hecke(m, f)) == -gc.hecke(
                    m - 1, gc.hecke(n + 1, f)
                ), ("(3)", n, m)
            assert gc.hecke(n, gc.hecke(n + 1, _random_symfunc(rng, 5))) == SymFunc.zero()

        # (4) s_la = H_la1 ... H_lal (1)
        for d in range(1, 6):
            for la in pt.partitions_of(d):
                acc = SymFunc.one()
                for part in reversed(la):
                    acc = gc.hecke(part, acc)
                assert acc == sf.schur(la), ("(4)", la)

        # Prop 7.5 rectangular formula for m + k <= 6
        for m in range(1, 6):
            for k in range(1, 6):
                if m + k > 6:
                    continue
                acc = SymFunc.one()
                for n in range(m + k - 1, m - k, -2):
                    acc = gc.hecke_sym(n, acc)
                sign = -1 if (k * (k - 1) // 2) % 2 else 1
                assert acc == sf.schur(pt.rectangle(m, k)).scale(sign * factorial(k))

        # Prop 7.9 and 7.10 commutators for n <= 3
        for n in (1, 2, 3):
            for m in range(-3, 4):
                f = _random_symfunc(rng, 5)
                ell = lambda g: gc.gr_virasoro_dual(n, 0, 0, g)
                lhs = ell(gc.hecke(m, f)) - gc.hecke(m, ell(f))
                rhs = gc.hecke(n + m, f).scale(m + 1)
                for j in range(1, n):
                    rhs = rhs + SymFunc.p(j) * gc.hecke(n + m - j, f)
                rhs = rhs - SymFunc.p(n) * gc.hecke(m, f)
                assert lhs == rhs, ("7.9", n, m)

                low = lambda g: gc._lowering_part(n, F(0), g)
                lhs = low(gc.hecke_sym(m, f)) - gc.hecke_sym(m, low(f))
                rhs = gc.hecke_sym(m - n, f).scale(m + 1) - sf.annihilate(
                    n, gc.hecke_sym(m, f)
                ).scale(2)
                assert lhs == rhs, ("7.10", n, m)


def test_criterion_06_virasoro_bracket_suites():
    with _Budget("06", "Virasoro brackets on descendent algebras and the lattice VA", 60):
        rng = random.Random(2002)
        for name in ("linear(1)", "beilinson_p2"):
            quiver = qv.builtin(name)
            monos = [_random_monomial(rng, quiver, 6) for _ in range(4)]
            for n in range(-1, 4):
                for m in range(-1, 4):
                    for f in monos:
                        lhs = dc.l_op(quiver, n, dc.l_op(quiver, m, f)) - dc.l_op(
                            quiver, m, dc.l_op(quiver, n, f)
                        )
                        rhs = (
                            dc.l_op(quiver, n + m, f).scale(m - n)
                            if n + m >= -1
                            else dc.DescendentPoly.zero()
                        )
                        assert lhs == rhs, (name, n, m)
        lat = lv.grassmannian_lattice()
        elems = [_random_vaelem(lat, rng, 5) for _ in range(4)]
        for n in range(-1, 4):
            for m in range(-1, 4):
                for x in elems:
                    lhs = lv.virasoro(lat, n, lv.virasoro(lat, m, x)) - lv.virasoro(
                        lat, m, lv.virasoro(lat, n, x)
                    )
                    rhs = (
                        lv.virasoro(lat, n + m, x).scale(n - m)
                        if n + m >= -1
                        else lv.VAElem(lat)
                    )
                    assert lhs == rhs, ("lattice", n, m)


def test_criterion_07_integral_recursion():
    with _Budget("07", "Virasoro recursion reproduces all integrals for N <= 6", 30):
        for N in range(0, 7):
            for k in range(0, N + 1):
                d = k * (N - k)
                norm = gc.gr_integral(k, N, SymFunc.p_monomial(pt.rectangle(1, d)))
                table = gc.integrals_by_recursion(k, N, norm)
                for la in pt.partitions_of(d):
                    assert table[la] == gc.gr_integral(k, N, SymFunc.p_monomial(la)), (
                        k,
                        N,
                        la,
                    )


def test_criterion_08_calogero_sutherland():
    with _Budget("08", "Calogero-Sutherland diagonal on Schur, e and h families", 10):
        for j in range(1, 7):
            ev = F(j * (j - 1), 2)
            assert gc.calogero_sutherland(sf.complete(j)) == sf.complete(j).scale(ev)
            assert gc.calogero_sutherland(sf.elementary(j)) == sf.elementary(j).scale(-ev)
        for d in range(1, 7):
            for la in pt.partitions_of(d):
                s = sf.schur(la)
                image = gc.calogero_sutherland(s)
                assert image == s.scale(sf.hall(image, s)), la


def test_criterion_09_jack_singular_vectors():
    with _Budget("09", "Jack singular vectors for the (r,s) grid, beta^2 in {2,3,5/2}", 120):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                if r * s > 6:
                    continue
                for b2 in (F(2), F(3), F(5, 2)):
                    params = gc.FockParams(b2, r, s)
                    w = gc.singular_vector(params, "beta_sq/2")
                    for n in range(1, r * s + 1):
                        assert gc.fock_virasoro(params, n, w) == SymFunc.zero(), (
                            r,
                            s,
                            b2,
                            n,
                        )


def test_criterion_10_geometricity():
    with _Budget("10", "R_n preserves the Schubert ideal for k <= 3, N <= 6, n <= 3", 30):
        for N in range(1, 7):
            for k in range(0, min(3, N) + 1):
                for n in (1, 2, 3):
                    rep = gc.geometricity_check(k, N, n, 6)
                    assert rep["all_ok"], (k, N, n, rep)


def test_criterion_11_euler_goldens():
    b = qv.builtin("beilinson_p2")  # construction outside the timed window
    a1 = qv.builtin("linear(1)")
    kron = {n1: qv.builtin(f"kronecker({n1})") for n1 in (1, 2, 3, 4, 5)}
    with _Budget("11", "Beilinson Euler matrix and framed Grassmannian pairing", 0.001):
        assert qv.euler_matrix(b) == [[1, -3, 6], [0, 1, -3], [0, 0, 1]]
        for n1, k1, k2 in [(1, 1, 1), (3, 1, 2), (4, 2, 2), (5, 0, 3)]:
            f1 = qv.FramingVector(a1, [n1])
            got = qv.framed_euler(
                a1, f1, qv.DimVector(a1, [k1]), None, qv.DimVector(a1, [k2])
            )
            assert got == k2 * (k1 - n1)
            kq = kron[n1]
            assert got == qv.euler_form(
                kq, qv.DimVector(kq, [1, k1]), qv.DimVector(kq, [0, k2])
            )

