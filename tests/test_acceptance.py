"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single line `ACCEPT <id> PASS <summary> (<elapsed>)` on
success and enforces the stated runtime budget.  The identities are stated
once, in `quivertex.checks`: every criterion runs its checks, at the checks' own
inputs and seeds, each criterion under its own time budget.
"""

import time

from quivertex import checks as ck
from quivertex import grasscalc as gc
from quivertex import symfunc as sf


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


def _passes(report):
    assert report["ok"], report["detail"]


def test_criterion_01_schur_22():
    sf.schur((2, 2))  # warm the cache: the budget covers the lookup arithmetic
    with _Budget("01", "s_(2,2) = 1/12 p1^4 + 1/4 p2^2 - 1/3 p1 p3", 0.001):
        _passes(ck.check_schur_expansion_golden())


def test_criterion_02_gr24_integrals():
    gc.gr_class_schur(2, 4)  # warm the Schur cache
    with _Budget("02", "all five Gr(2,4) descendent integrals", 0.010):
        _passes(ck.check_gr24_integrals())


def test_criterion_03_virasoro_constraints_grid():
    with _Budget("03", "Virasoro constraints kill s_(N-k)^k for N <= 7, n <= 6", 30):
        _passes(ck.check_constraints_grid(7, 6))


def test_criterion_04_wallcross_equals_schur():
    with _Budget("04", "wall-crossing class equals Schubert class for N <= 6", 60):
        _passes(ck.check_wallcross_grid(6))


def test_criterion_05_hecke_identity_suite():
    with _Budget("05", "Hecke identities: commutators, adjoints, rectangles", 60):
        _passes(ck.check_hecke_identities())
        _passes(ck.check_rectangular_hecke_sym())
        _passes(ck.check_virasoro_hecke_commutators())


def test_criterion_06_virasoro_bracket_suites():
    with _Budget("06", "Virasoro brackets on descendent algebras and the lattice VA", 60):
        _passes(ck.check_descendent_virasoro_bracket())
        _passes(ck.check_lattice_virasoro_bracket())


def test_criterion_07_integral_recursion():
    with _Budget("07", "Virasoro recursion reproduces all integrals for N <= 6", 30):
        _passes(ck.check_recursion_uniqueness(6))


def test_criterion_08_calogero_sutherland():
    with _Budget("08", "Calogero-Sutherland diagonal on Schur, e and h families", 10):
        _passes(ck.check_calogero_sutherland(6))


def test_criterion_09_jack_singular_vectors():
    with _Budget("09", "Jack singular vectors for the (r,s) grid, beta^2 in {2,3,5/2}", 120):
        _passes(ck.check_singular_vector_grid())


def test_criterion_10_geometricity():
    with _Budget("10", "R_n preserves the Schubert ideal for k <= 3, N <= 6, n <= 3", 30):
        _passes(ck.check_geometricity_grid(3, 6, 3, 6))


def test_criterion_11_euler_goldens():
    ck.check_euler_goldens()  # warm the builtins: the budget covers the arithmetic
    with _Budget("11", "Beilinson Euler matrix and framed Grassmannian pairing", 0.001):
        _passes(ck.check_euler_goldens())
