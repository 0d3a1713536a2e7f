import random
from fractions import Fraction
from math import prod

import pytest

from quivertex import checks as ck
from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import partitions as pt
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex.checks import _random_symfunc
from quivertex.grasscalc import FockParams, GrElem
from quivertex.symfunc import SymFunc

from localization_reference import localization_integrals


F = Fraction


def p(*parts):
    return SymFunc.p_monomial(tuple(parts))


# -- Hecke operators -----------------------------------------------------------


def test_hecke_on_constants():
    assert gc.hecke(2, SymFunc.one()) == sf.complete(2)
    assert gc.hecke(0, SymFunc.one()) == SymFunc.one()
    assert gc.hecke(-1, SymFunc.one()) == SymFunc.zero()


def test_hecke_builds_schur():
    # degree 6, beyond the check's degree 5
    for la in [(3, 2, 1), (2, 2, 2)]:
        assert not ck.hecke_schur_chain(la), la


def test_hecke_nilpotency():
    assert ck.check_hecke_identities()["ok"]


def test_hecke_commutator_with_multiplication():
    assert ck.check_hecke_identities()["ok"]


def test_hecke_adjoint():
    assert ck.check_hecke_identities()["ok"]


def test_hecke_braid_relation():
    assert ck.check_hecke_identities()["ok"]


def test_hecke_sym_on_constants():
    for m in range(0, 5):
        assert gc.hecke_sym(m, SymFunc.one()) == sf.complete(m)
    assert gc.hecke_sym(-1, SymFunc.one()) == SymFunc.zero()
    assert gc.hecke_sym(-3, SymFunc.one()) == SymFunc.zero()


def test_hecke_sym_frozen_value():
    assert ck.check_rectangular_hecke_sym()["ok"]


def test_hecke_sym_rectangular_chain():
    assert ck.check_rectangular_hecke_sym()["ok"]


def test_virasoro_hecke_commutator():
    assert ck.check_virasoro_hecke_commutators()["ok"]


def test_virasoro_hecke_sym_commutator():
    assert ck.check_virasoro_hecke_commutators()["ok"]


# -- Grassmannian classes --------------------------------------------------------


def test_gr_class_schur_values():
    assert gc.gr_class_schur(1, 2) == GrElem(2, 1, p(1).scale(-1))
    assert gc.gr_class_schur(0, 3) == GrElem(3, 0, SymFunc.one())
    assert gc.gr_class_schur(2, 4) == GrElem(4, 2, sf.schur((2, 2)))
    with pytest.raises(ValueError):
        gc.gr_class_schur(3, 2)


GR_ENTRY_POINTS = (
    gc.gr_class_schur,
    gc.gr_class_wallcross,
    lambda k, N: gc.gr_integral(k, N, p(1)),
    lambda k, N: gc.constraint_check(k, N, 2),
    lambda k, N: gc.integrals_by_recursion(k, N, 1),
)


@pytest.mark.parametrize("entry", GR_ENTRY_POINTS)
@pytest.mark.parametrize(
    "k, N", [(1.5, 3), (1, 3.0), (1.0, 3), ("1", 3), (True, 3), (-1, 3), (4, 3)]
)
def test_grassmannian_arguments_are_checked_ints(entry, k, N):
    with pytest.raises(ValueError):
        entry(k, N)


GR_STATE = lv.VAElem(lv.grassmannian_lattice(), {((2, 1), ((1, 1),)): 1})
NOT_INT_MODES = {
    "r_n_symfunc": lambda: gc.r_n_symfunc(1.5, p(1)),
    "create": lambda: lv.create(GR_STATE.lattice, (0, 1), 1.5, GR_STATE),
    "gr_virasoro": lambda: gc.gr_virasoro(1.5, GrElem(2, 1, p(1))),
    "gr_virasoro at 0.0": lambda: gc.gr_virasoro(0.0, GrElem(2, 1, p(1))),
    "fock_virasoro": lambda: gc.fock_virasoro(FockParams(2, 1, 1), 1.5, p(1)),
    "annihilate": lambda: sf.annihilate(1.5, p(1)),
    "virasoro": lambda: lv.virasoro(GR_STATE.lattice, 1.5, GR_STATE),
    "field_mode": lambda: lv.field_mode(GR_STATE.lattice, (0, 1), 1.5, GR_STATE),
    "annihilate_mode": lambda: lv.annihilate_mode(GR_STATE.lattice, (0, 1), 1.5, GR_STATE),
    "hecke": lambda: gc.hecke(1.5, p(1)),
    "hecke_sym": lambda: gc.hecke_sym("1", p(1)),
    "l_op": lambda: dc.l_op(A1, 1.5, dc.DescendentPoly.ch(1, "1")),
    "l_op_framed": lambda: dc.l_op_framed(A1, [2], 1.5, dc.DescendentPoly.ch(1, "1")),
    "r_op": lambda: dc.r_op(A1, 1.5, dc.DescendentPoly.ch(1, "1")),
    "t_element": lambda: dc.t_element(A1, 1.5),
    "framed_t_element": lambda: dc.framed_t_element(A1, [2], 1.5),
    "gr_virasoro_dual": lambda: gc.gr_virasoro_dual(1.5, 2, 1, p(1)),
    "constraint_check": lambda: gc.constraint_check(1, 2, 1.5),
    "geometricity_check": lambda: gc.geometricity_check(1, 2, 1.5, 3),
    "geometricity_check degree": lambda: gc.geometricity_check(1, 2, 1, 3.0),
    "geometricity_check k": lambda: gc.geometricity_check(1.0, 2, 1, 3),
    "reduce_cohomology": lambda: gc.reduce_cohomology(1.5, 3, p(1)),
}


@pytest.mark.parametrize("call", NOT_INT_MODES.values(), ids=NOT_INT_MODES)
def test_mode_indices_are_checked_ints(call):
    with pytest.raises(ValueError):
        call()


def test_gr_class_wallcross_small():
    assert gc.gr_class_wallcross(0, 4) == GrElem(4, 0, SymFunc.one())
    # single bracket: sign fixed by the Schubert class as (-1)^(N-1)
    for N in (1, 2, 3, 4):
        got = gc.gr_class_wallcross(1, N)
        sign = -1 if (N - 1) % 2 else 1
        assert got == GrElem(N, 1, sf.complete(N - 1).scale(sign))


@pytest.mark.parametrize("N", [7, 8])
def test_gr_class_wallcross_equals_schur(N):
    assert ck.check_wallcross_grid(N)["ok"]


A1 = qv.builtin("linear(1)")
K3 = qv.builtin("kronecker(3)")
DIAMOND_ARROWS = [("0", "1", 0), ("0", "2", 0), ("1", "3", 0), ("2", "3", 0)]
DIAMOND = qv.DgQuiver(["0", "1", "2", "3"], DIAMOND_ARROWS)
GR_ROWS = ((1, 3), (2, 4), (2, 5), (3, 5), (3, 6))


def _row(name, quiver, f, d, count):
    """A table row: f and d as {vertex: entry}, and the number of integrals of degree dim."""
    f, d = dict(zip(quiver.vertices, f)), dict(zip(quiver.vertices, d))
    return pytest.param(quiver, f, d, count, id=name)


FRAMED_ROWS = [
    *(_row(f"Gr({k},{N})", A1, [N], [k], n) for (k, N), n in zip(GR_ROWS, (2, 5, 11, 11, 30))),
    _row("A_2 (4,0; 2,1)", qv.builtin("linear(2)"), [4, 0], [2, 1], 36),
    _row("A_3 (5,0,0; 3,2,1)", qv.builtin("linear(3)"), [5, 0, 0], [3, 2, 1], 1479),
    _row("K_3 (2,0; 2,3)", K3, [2, 0], [2, 3], 300),
    _row("A_2 (2,1; 1,1)", qv.builtin("linear(2)"), [2, 1], [1, 1], 5),
    _row("diamond (2,0,0,0; 2,1,1,1)", DIAMOND, [2, 0, 0, 0], [2, 1, 1, 1], 40),
    _row(
        "beilinson_p2 arrows, no relations (1,0,0; 1,2,1)",
        qv.DgQuiver(["1", "2", "3"], [("1", "2", 0)] * 3 + [("2", "3", 0)] * 3),
        [1, 0, 0],
        [1, 2, 1],
        429,
    ),
]


def _monomials(vertices, degree):
    """Every {vertex: partition} of total size degree."""
    if not vertices:
        return [{}] if degree == 0 else []
    return [
        {vertices[0]: mu, **rest}
        for a in range(degree + 1)
        for mu in pt.partitions_of(a)
        for rest in _monomials(vertices[1:], degree - a)
    ]


def _class_integrals(quiver, f, d, monomials):
    """The integrals framed_class gives: the coefficient of each monomial's Fock state
    on e^{(1,d)} times prod_v z_{mu^(v)}."""
    terms = gc.framed_class(quiver, f, d).terms
    alpha = (1, *(d[v] for v in quiver.vertices))
    fock = lambda m: tuple(sorted((1 + quiver.vertex_index(v), j) for v in m for j in m[v]))
    return [terms.get((alpha, fock(m)), 0) * prod(map(pt.z_int, m.values())) for m in monomials]


def _dim(quiver, f, d):
    dim = sum(f[v] * d[v] for v in quiver.vertices) - 1
    return dim + qv.virtual_dim(quiver, qv.DimVector(quiver, d))


@pytest.mark.parametrize("quiver, f, d, count", FRAMED_ROWS)
def test_framed_class_matches_localization(quiver, f, d, count):
    monomials = _monomials(quiver.vertices, _dim(quiver, f, d))
    assert len(monomials) == count
    want = localization_integrals(quiver, f, d, monomials)
    got = _class_integrals(quiver, f, d, monomials)
    mismatches = [(m, g, w) for m, g, w in zip(monomials, got, want) if g != w]
    assert not mismatches, (len(mismatches), mismatches[:3])
    assert any(want)


def test_localization_matches_schubert_integrals():
    for k, N in GR_ROWS:
        monomials = _monomials(("1",), k * (N - k))
        want = [gc.gr_integral(k, N, SymFunc.p_monomial(m["1"])) for m in monomials]
        assert localization_integrals(A1, {"1": N}, {"1": k}, monomials) == want, (k, N)


def test_framed_class_follows_the_topological_order_not_the_listing():
    f, d = {"1": 2, "2": 0}, {"1": 2, "2": 3}
    monomials = _monomials(("1", "2"), 9)
    want = _class_integrals(K3, f, d, monomials)
    assert any(want)
    sink_first = qv.DgQuiver(["2", "1"], [("1", "2", 0)] * 3)
    assert _class_integrals(sink_first, f, d, monomials) == want
    # the diamond's two topological orders give one class
    other = qv.DgQuiver(DIAMOND.vertices, DIAMOND_ARROWS[1::-1] + DIAMOND_ARROWS[2:])
    assert other.topological_order != DIAMOND.topological_order
    f, d = {"0": 2}, {"0": 2, "1": 1, "2": 1, "3": 1}
    monomials = _monomials(DIAMOND.vertices, 3)
    assert _class_integrals(other, f, d, monomials) == _class_integrals(DIAMOND, f, d, monomials)


def test_kronecker_builtin_class_equals_the_hand_built_one():
    hand_built = qv.DgQuiver(["1", "2"], [("1", "2", 0)] * 3)
    got = gc.framed_class(K3, [2, 0], [2, 3])
    assert got and got == gc.framed_class(hand_built, [2, 0], [2, 3])


def test_framed_class_input():
    a2 = qv.builtin("linear(2)")
    for f, d in (([4, 0], [2, -1]), ([4, 0], [2]), ([-1, 4], [1, 1]), ([0, 0], [1, 1])):
        with pytest.raises(qv.QuiverError):
            gc.framed_class(a2, f, d)
    x = gc.framed_class(a2, [4, 0], [0, 0])  # d = 0: the point, e^{e_inf}
    assert x == lv.VAElem.group_element(x.lattice, (1, 0, 0))


def test_a_chain_planned_below_degree_0_is_zero_and_builds_no_code(monkeypatch):
    # vertex_chain plans the degrees first: H_{-5} takes p1 p2 to degree -3, and the
    # brackets of Gr(3,2) end below degree 0, so neither chain builds code weights
    f = p(2, 1)
    built, code_weights = [], pt.code_weights
    monkeypatch.setattr(pt, "code_weights", lambda *args: built.append(args) or code_weights(*args))
    assert gc.hecke(-5, f) == SymFunc.zero()
    assert gc.framed_class(A1, [2], [3]) == lv.VAElem(gc.framed_lattice(A1, [2]))
    assert not built, built


@pytest.mark.parametrize(
    "name, framings",
    [
        ("beilinson_p2", ([1, 0, 0], [2, 1, 0], [0, 0, 3])),
        ("p1xp1", ([2, 0, 0, 0], [1, 1, 0, 0])),
        ("kronecker(3)", ([1, 0], [2, 3])),
        ("linear(1)", ([1], [4])),
        ("linear(2)", ([2, 0], [1, 1])),
        ("linear(3)", ([3, 0, 0], [0, 1, 2])),
    ],
)
def test_framed_lattice_borders_the_euler_matrix(name, framings):
    # the lattice of the framed quiver, its framing vertex's diagonal entry set to 0
    quiver = qv.builtin(name)
    for f in framings:
        M = qv.euler_matrix(qv.framed_quiver(quiver, f))
        M[0][0] = 0
        Mt = [list(col) for col in zip(*M)]
        want = lv.Lattice(B=[[a + b for a, b in zip(*rows)] for rows in zip(M, Mt)], b=Mt)
        assert gc.framed_lattice(quiver, f) == want, (name, f)


def test_framed_lattices_are_shared_and_their_cache_bounded():
    # the cache serves every form of one framing, and an equal quiver built anew;
    # a cold start clears it, and the lattice built again is equal
    a2 = qv.builtin("linear(2)")
    lattice = gc.framed_lattice(a2, [2, 1])
    for f in ({"1": 2, "2": 1}, qv.FramingVector(a2, [2, 1])):
        assert gc.framed_lattice(a2, f) is lattice
    assert gc.framed_lattice(qv.builtin("linear(2)"), [2, 1]) is lattice
    assert gc.framed_lattice(a2, [1, 2]) != lattice
    gc._framed_lattice.cache_clear()
    assert gc.framed_lattice(a2, [2, 1]) == lattice
    assert gc._framed_lattice.cache_info().maxsize is not None


def test_framed_entry_points_read_the_vertex_maps_of_the_library():
    a2, ch = qv.builtin("linear(2)"), dc.DescendentPoly.ch(2, "1")
    f, d = qv.FramingVector(a2, [2, 1]), qv.DimVector(a2, [1, 1])
    want = gc.framed_class(a2, [2, 1], [1, 1])
    assert want and gc.framed_class(a2, f, d) == want
    assert gc.framed_class(a2, {"1": 2, "2": 1}, {"1": 1, "2": 1}) == want
    assert gc.framed_lattice(a2, f) == gc.framed_lattice(a2, [2, 1])
    for framing in ([2, 1], {"1": 2, "2": 1}, f):
        assert dc.l_op_framed(a2, framing, 1, ch) == dc.l_op_framed(a2, f, 1, ch), framing
        assert dc.framed_t_element(a2, framing, 1) == dc.framed_t_element(a2, f, 1), framing
    assert dc.l_op_framed(a2, [2, 1], 1, ch) != dc.l_op(a2, 1, ch)
    # a map over other vertices, fewer or more, is no map over these
    for other in (qv.FramingVector(A1, [2]), qv.FramingVector(qv.builtin("linear(3)"), [2, 1, 0])):
        for call in (
            lambda: gc.framed_lattice(a2, other),
            lambda: gc.framed_class(a2, other, [1, 1]),
            lambda: gc.framed_class(a2, [2, 1], qv.DimVector(other.quiver, other.values)),
            lambda: dc.l_op_framed(a2, other, 1, ch),
            lambda: dc.framed_t_element(a2, other, 1),
            lambda: qv.framed_quiver(a2, other),
        ):
            with pytest.raises(qv.QuiverError) as info:
                call()
            assert info.value.code == "index_mismatch", other


def test_a_vertex_named_inf_can_be_framed():
    # framed_lattice borders the Euler matrix, so no vertex is added to the quiver
    inf = qv.DgQuiver(["inf"], [])
    with pytest.raises(qv.QuiverError):
        qv.framed_quiver(inf, [3])
    got = gc.framed_class(inf, [3], [2])
    assert got and got == gc.framed_class(A1, [3], [2])


def _gr_state(lattice, N, k, f):
    """Q^N q^k (x) f in the lattice vertex algebra: p_la is the Fock state prod (q)_{-la_i}."""
    return lv.VAElem(
        lattice, {((N, k), tuple((1, part) for part in la)): c for la, c in f.terms.items()}
    )


def test_field_modes_match_symmetrized_hecke_series():
    # Y(q, z) on Q^N q^k (x) f is (-1)^(N-k) z^(2k-N) H^sym(z) f: the mode-n
    # coefficient must be (-1)^(N-k) H^sym_{N-2k-1-n} f for every n
    lattice = lv.grassmannian_lattice()
    rng = random.Random(73)
    for N in range(0, 4):
        for k in range(0, 3):
            f = _random_symfunc(rng, 3)
            x = _gr_state(lattice, N, k, f)
            sign = -1 if (N - k) % 2 else 1
            for n in range(-4, 4):
                got = lv.field_mode(lattice, (0, 1), n, x)
                expected = gc.hecke_sym(N - 2 * k - 1 - n, f).scale(sign)
                assert got == _gr_state(lattice, N, k + 1, expected), (N, k, n)


def test_gr_class_is_primary_state():
    # the class of Gr(k,N), read in the lattice vertex algebra, is an L_0
    # eigenvector of eigenvalue 0 killed by every positive Virasoro operator
    lattice = lv.grassmannian_lattice()
    for (k, N) in [(1, 2), (2, 4), (1, 3), (2, 5)]:
        cls = gc.gr_class_schur(k, N)
        x = lv.VAElem(
            lattice,
            {((N, k), tuple((1, part) for part in la)): c for la, c in cls.f.terms.items()},
        )
        failures = [(label, r) for label, r in lv.primary_check(lattice, x, 0) if r]
        assert not failures, (k, N, failures)


def test_raw_bracket_matches_symmetrized_hecke_display():
    # the raw zero-mode product with the chosen sign datum realizes
    # [q, Q^N q^k (x) f] = (-1)^(N-k) Q^N q^(k+1) (x) H^sym_{N-2k-1} f,
    # one sign per step away from the Schubert normalization (each wall-crossing
    # step is -e^q_(0))
    lattice = lv.grassmannian_lattice()
    rng = random.Random(59)
    for N in range(0, 5):
        for k in range(0, 3):
            f = _random_symfunc(rng, 3)
            got = lv.field_mode(lattice, (0, 1), 0, _gr_state(lattice, N, k, f))
            sign = -1 if (N - k) % 2 else 1
            expected = gc.hecke_sym(N - 2 * k - 1, f).scale(sign)
            assert got == _gr_state(lattice, N, k + 1, expected), (N, k)


def test_gr_virasoro_l0():
    # a term of degree d times d + k(k - N), off the classes, where it is a constraint
    y = GrElem(4, 1, p(1) + p(2, 2))
    assert gc.gr_virasoro(0, y) == GrElem(4, 1, p(1).scale(1 - 3) + p(2, 2).scale(4 - 3))


def test_gr_virasoro_examples():
    assert ck.check_constraints_grid(4, 2)["ok"]


def test_gr_virasoro_dual_examples():
    assert gc.gr_virasoro_dual(1, 2, 1, p(1)) == p(2)
    # on constants: sum_{a+b=n} p_a p_b + (2k - N) p_n
    for n in (1, 2, 3):
        got = gc.gr_virasoro_dual(n, 3, 1, SymFunc.one())
        expected = SymFunc.zero()
        for a in range(1, n):
            expected = expected + p(a) * p(n - a)
        expected = expected + p(n).scale(2 - 3)
        assert got == expected


def test_gr_virasoro_adjointness():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(0, 4)
        N, k = rng.randint(0, 4), rng.randint(0, 3)
        f = _random_symfunc(rng, 6)
        g = _random_symfunc(rng, 6)
        lhs = sf.hall(gc.gr_virasoro_dual(n, N, k, f), g)
        rhs = sf.hall(f, gc.gr_virasoro(n, GrElem(N, k, g)).f)
        assert lhs == rhs, (n, N, k)


def test_virasoro_on_rectangles():
    assert ck.check_rectangle_constraints()["ok"]


def test_constraint_check():
    assert ck.check_constraints_grid(7, 6)["ok"]


def test_framed_descendent_operator_matches_dual_virasoro():
    assert ck.check_framed_matches_dual_virasoro()["ok"]


# -- reduction and integrals ------------------------------------------------------


def test_reduce_cohomology():
    assert gc.reduce_cohomology(1, 2, sf.elementary(2)) == {}
    assert gc.reduce_cohomology(2, 4, sf.schur((2, 2))) == {(2, 2): 1}
    assert gc.reduce_cohomology(2, 4, p(1, 1)) == {(2,): 1, (1, 1): 1}


def test_gr_integral_values():
    assert gc.gr_integral(2, 4, p(1, 1)) == 0  # degree mismatch


def test_integrals_by_recursion_small():
    assert gc.integrals_by_recursion(1, 2, F(-1)) == {(1,): F(-1)}
    table = gc.integrals_by_recursion(2, 4, F(2))
    assert table == {
        (1, 1, 1, 1): 2,
        (2, 1, 1): 0,
        (2, 2): 2,
        (3, 1): -1,
        (4,): 0,
    }
    zero_table = gc.integrals_by_recursion(2, 4, F(0))
    assert all(v == 0 for v in zero_table.values())


@pytest.mark.parametrize("norm", [0.5, 0.1, "1", "1/3", None])
def test_recursion_normalization_is_rational(norm):
    with pytest.raises(TypeError):
        gc.integrals_by_recursion(1, 3, norm)
    table = gc.integrals_by_recursion(1, 3, 3)
    assert table == {(1, 1): 3, (2,): 3} and all(type(v) is F for v in table.values())


def test_integrals_by_recursion_matches_schur_pairing():
    assert ck.check_recursion_uniqueness(6)["ok"]


def test_recursion_reproduces_schur_class():
    # inverting the table against the Hall pairing recovers a multiple of s_{(N-k)^k}
    for (k, N) in [(1, 3), (2, 4), (2, 5)]:
        d = k * (N - k)
        norm = gc.gr_integral(k, N, SymFunc.p_monomial(pt.rectangle(1, d)))
        table = gc.integrals_by_recursion(k, N, norm)
        g = SymFunc({la: v / pt.z_factor(la) for la, v in table.items()})
        s = sf.schur(pt.rectangle(N - k, k))
        c = sf.hall(g, s)
        assert c != 0 and g == s.scale(c)


# -- Calogero-Sutherland and geometricity -----------------------------------------


def test_calogero_sutherland_small():
    assert ck.check_calogero_sutherland(6)["ok"]


def test_calogero_sutherland_eigenbasis():
    assert ck.check_calogero_sutherland(6)["ok"]


def test_r_n_symfunc_newton_form():
    # R_n(e_j) = (-1)^n (j+n) e_{j+n} + sum_{s=0}^{n-1} (-1)^s e_{j+s} p_{n-s}
    for n in (1, 2, 3):
        for j in range(1, 6):
            lhs = gc.r_n_symfunc(n, sf.elementary(j))
            sign = -1 if n % 2 else 1
            rhs = sf.elementary(j + n).scale(sign * (j + n))
            for s_ in range(0, n):
                term = sf.elementary(j + s_) * SymFunc.p(n - s_)
                rhs = rhs + (term if s_ % 2 == 0 else -term)
            assert lhs == rhs, (n, j)


def test_geometricity():
    # only actual generators are checked
    names = [label for label, _ in gc.geometricity_check(2, 4, 1, 6)]
    assert "e2" not in names and "e3" in names


# -- Fock representations -----------------------------------------------------------


def test_fock_params_rational_data():
    params = FockParams(F(2), 2, 2)
    assert params.alpha_beta == 0
    assert params.beta0_beta == 0
    params = FockParams(F(3), 2, 1)
    assert params.alpha_beta == F(5, 2)
    assert params.beta0_beta == F(1, 2)
    with pytest.raises(ValueError):
        FockParams(0, 1, 1)
    with pytest.raises(ValueError):
        FockParams(F(2), 0, 1)


@pytest.mark.parametrize("bad", [2.5, True, "1"], ids=["float", "bool", "str"])
def test_grassmannian_and_fock_data_take_only_ints(bad):
    assert (GrElem(4, 2, SymFunc.one()).N, FockParams(F(2), 1, 1).r) == (4, 1)
    for make in (
        lambda: GrElem(bad, 1, SymFunc.one()),
        lambda: GrElem(4, bad, SymFunc.one()),
        lambda: FockParams(F(2), bad, 1),
        lambda: FockParams(F(2), 1, bad),
    ):
        with pytest.raises(ValueError, match="expected an integer"):
            make()


def test_fock_virasoro_degree_one():
    # coefficient vanishes identically at r = s = 1, killing p_1
    for b2 in (F(2), F(3), F(5, 2), F(7, 5)):
        params = FockParams(b2, 1, 1)
        assert params.linear_coefficient(1) == 0
        assert gc.fock_virasoro(params, 1, p(1)) == SymFunc.zero()


def test_fock_virasoro_specializes_to_grassmannian():
    # beta^2 = 2, r = k, s = N - k: L_n becomes the (N,k) lowering operator
    rng = random.Random(71)
    for (k, N) in [(1, 2), (2, 4), (1, 3)]:
        params = FockParams(F(2), k, N - k)
        assert params.alpha_beta == 2 * k - N
        for n in (1, 2, 3):
            f = _random_symfunc(rng, 5)
            assert gc.fock_virasoro(params, n, f) == gc._lowering_part(
                n, F(2 * k - N), f
            ), (k, N, n)


def test_singular_check_grid():
    assert ck.check_singular_vector_grid()["ok"]


def test_singular_check_fixes_convention():
    # at (r,s) = (2,1), beta^2 = 3 the variant 2/beta_sq leaves a residual
    params = FockParams(F(3), 2, 1)
    assert any(residual for _, residual in gc.singular_check(params, "2/beta_sq"))
    with pytest.raises(ValueError):
        gc.singular_check(params, "sqrt")


def test_singular_vector_recovers_grassmannian_case():
    # (r,s) = (2,2), beta^2 = 2: sigma J proportional to s_(2,2)
    w = gc.singular_vector(FockParams(F(2), 2, 2), "beta_sq/2")
    s = sf.schur((2, 2))
    c = sf.hall(w, s)
    assert c != 0 and w == s.scale(F(c))
