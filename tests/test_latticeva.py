import inspect
import random
import sys
from fractions import Fraction

import pytest

from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex import partitions as pt
from quivertex.checks import _random_vaelem
from quivertex.latticeva import Lattice, VAElem
from quivertex.symfunc import SymFunc


F = Fraction
GR = lv.grassmannian_lattice()
BOX = Lattice(B=[[2]], b=[[1]])  # (Z, 2), the symmetrized form of linear(1)
# a degenerate rank-2 form for bracket coverage
DEGEN = Lattice(B=[[2, 2], [2, 2]], b=[[1, 2], [0, 1]])


def vac(lat):
    return VAElem.group_element(lat, lat.zero())


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(B=[[0, 1], [2, 0]], b=[[0, 0], [0, 0]])  # not symmetric
    with pytest.raises(ValueError):
        Lattice(B=[[2]], b=[[0]])  # b + b^T != B


def test_lattice_vectors_of_the_wrong_length_are_rejected():
    x = lv.create(GR, (0, 1), 1, VAElem.group_element(GR, (2, 1)))
    for op, v, k in (
        (lv.create, (1, 1, 1), 1),  # would create a factor with basis index 2
        (lv.annihilate_mode, (1, 2, 3), 0),  # would drop the third entry
        (lv.annihilate_mode, (1,), 0),
        (lv.annihilate_mode, (1,), 1),
        (lv.field_mode, (1,), 0),
        (lv.field_mode, (0, 1, 0), 0),
    ):
        with pytest.raises(ValueError, match="needs 2 entries"):
            op(GR, v, k, x)
    with pytest.raises(ValueError, match="needs 2 entries"):
        VAElem.group_element(GR, (1,))
    assert GR.vector([1, -2]) == (1, -2)


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_lattice_vectors_and_fock_modes_take_only_ints(bad):
    assert GR.vector([1, -2]) == (1, -2)
    with pytest.raises(ValueError, match="expected an integer"):
        GR.vector((bad, 0))
    for key in (((bad, 0), ()), ((1, 0), ((bad, 2),)), ((1, 0), ((1, bad),))):
        with pytest.raises(ValueError, match="expected an integer"):
            VAElem(GR, {key: 1})
    assert VAElem(GR, {((1, 0), ((1, 2),)): 1}).nums == {((1, 0), ((1, 2),)): 1}


def test_forms_reject_vectors_of_the_wrong_length():
    for form in (GR.pairing, GR.sign_exponent):
        for u, v in (((1, 2, 3), (1, 1)), ((1,), (1, 1)), ((1, 1), ()), ((1, 1), (1, 1, 0))):
            with pytest.raises(ValueError, match="need 2 entries"):
                form(u, v)
    assert GR.pairing((1, 2), (1, 1)) == -1 - 2 + 4
    assert GR.sign_exponent((1, 2), (1, 1)) == -2 + 2


def test_grassmannian_lattice_matches_symmetrized_framed_pairing():
    for n1, k1, n2, k2 in [(1, 0, 0, 1), (4, 2, 4, 2), (3, 1, 2, 2)]:
        got = GR.pairing((n1, k1), (n2, k2))
        assert got == 2 * k1 * k2 - n1 * k2 - n2 * k1
    a1 = qv.builtin("linear(1)")
    assert GR == gc.framed_lattice(a1, [1])
    # the framed class of linear(1), read as p-monomials, is the Grassmannian class
    for N in range(1, 9):
        for k in range(0, N + 1):
            x = gc.framed_class(a1, [N], [k])
            assert {alpha for alpha, _ in x.nums} <= {(1, k)}
            read = x._map(lambda key: [(tuple(m for _, m in reversed(key[1])), 1)], like=SymFunc())
            assert gc.GrElem(N, k, read) == gc.gr_class_wallcross(k, N), (k, N)


def test_create_basics():
    x = lv.create(GR, (1, 0), 1, vac(GR))
    assert x == VAElem(GR, {((0, 0), ((0, 1),)): 1})
    # creations commute
    a = lv.create(GR, (0, 1), 2, lv.create(GR, (1, 0), 1, vac(GR)))
    b = lv.create(GR, (1, 0), 1, lv.create(GR, (0, 1), 2, vac(GR)))
    assert a == b
    # linear in the lattice vector
    double = lv.create(GR, (0, 2), 3, vac(GR))
    assert double == lv.create(GR, (0, 1), 3, vac(GR)).scale(2)


def test_annihilate_mode():
    q = (0, 1)
    x = lv.create(GR, q, 1, vac(GR))
    assert lv.annihilate_mode(GR, q, 1, x) == vac(GR).scale(2)  # B(q,q) = 2
    alpha = (3, 2)
    e_alpha = VAElem.group_element(GR, alpha)
    got = lv.annihilate_mode(GR, q, 0, e_alpha)
    assert got == e_alpha.scale(GR.pairing(q, alpha))
    w = lv.create(GR, q, 1, e_alpha)
    assert lv.annihilate_mode(GR, q, 3, w) == VAElem(GR)


def test_translate():
    alpha = (2, 1)
    e_alpha = VAElem.group_element(GR, alpha)
    expected = lv.create(GR, alpha, 1, e_alpha)
    assert lv.translate(GR, e_alpha) == expected
    # T(e^0 (x) v_{-1}) = e^0 (x) v_{-2}
    v = (1, 0)
    x = lv.create(GR, v, 1, vac(GR))
    assert lv.translate(GR, x) == lv.create(GR, v, 2, vac(GR))
    assert lv.translate(GR, vac(GR)) == VAElem(GR)


def test_virasoro_base_cases():
    alpha = (4, 2)
    e_alpha = VAElem.group_element(GR, alpha)
    l0 = lv.virasoro(GR, 0, e_alpha)
    assert l0 == e_alpha.scale(F(GR.pairing(alpha, alpha), 2))
    for n in (1, 2, 3):
        assert lv.virasoro(GR, n, e_alpha) == VAElem(GR)
    assert lv.virasoro(GR, -1, e_alpha) == lv.translate(GR, e_alpha)
    # L_1 (e^0 (x) v_{-1}) = v_(0) e^0 = 0
    v = (1, 1)
    x = lv.create(GR, v, 1, vac(GR))
    assert lv.virasoro(GR, 1, x) == VAElem(GR)
    # L_2 (e^alpha (x) v_{-1}) = v_(1) e^alpha = 0
    y = lv.create(GR, v, 1, e_alpha)
    assert lv.virasoro(GR, 2, y) == VAElem(GR)


def test_virasoro_bracket_relations():
    rng = random.Random(13)
    for lat in (GR, DEGEN):
        elems = [_random_vaelem(lat, rng) for _ in range(4)]
        for n in range(-1, 4):
            for m in range(-1, 4):
                for x in elems:
                    lhs = lv.virasoro(lat, n, lv.virasoro(lat, m, x)) - lv.virasoro(
                        lat, m, lv.virasoro(lat, n, x)
                    )
                    if n + m >= -1:
                        rhs = lv.virasoro(lat, n + m, x).scale(n - m)
                    else:
                        rhs = VAElem(lat)
                    assert lhs == rhs, (lat, n, m)


def test_field_mode_vacuum_state_is_identity():
    rng = random.Random(17)
    zero = GR.zero()
    for _ in range(5):
        x = _random_vaelem(GR, rng)
        for n in (-3, -2, -1, 0, 1, 2):
            expected = x if n == -1 else VAElem(GR)
            assert lv.field_mode(GR, zero, n, x) == expected


def test_field_mode_lowest_mode_is_group_multiplication():
    for alpha, beta in [((0, 1), (3, 0)), ((1, 1), (2, 2)), ((0, 1), (0, 1))]:
        e_beta = VAElem.group_element(GR, beta)
        n = -1 - GR.pairing(alpha, beta)
        got = lv.field_mode(GR, alpha, n, e_beta)
        sign = -1 if GR.sign_exponent(alpha, beta) % 2 else 1
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        assert got == VAElem.group_element(GR, gamma).scale(sign)


def test_field_mode_translation_covariance():
    # T(u_(n) x) = u_(n) T(x) - n u_(n-1) x for the exponential fields
    rng = random.Random(19)
    alpha = (0, 1)
    for _ in range(4):
        x = _random_vaelem(GR, rng, max_fock=3)
        for n in range(-3, 3):
            lhs = lv.translate(GR, lv.field_mode(GR, alpha, n, x))
            rhs = lv.field_mode(GR, alpha, n, lv.translate(GR, x)) - lv.field_mode(
                GR, alpha, n - 1, x
            ).scale(n)
            assert lhs == rhs, n


def test_borcherds_bracket_vacuum():
    # the bracket e^alpha_(0) |0> vanishes unless B(alpha, 0) = -1, which never holds
    assert lv.field_mode(GR, (0, 1), 0, vac(GR)) == VAElem(GR)
    assert lv.field_mode(GR, (1, 0), 0, vac(GR)) == VAElem(GR)


def symfunc_to_box(f):
    """Dictionary p_la -> prod (q)_{-la_i} |0> on the rank-1 lattice (Z,2)."""
    terms = {}
    for la, c in f.terms.items():
        terms[((0,), tuple((0, part) for part in la))] = c
    return VAElem(BOX, terms)


def test_annihilation_is_twice_symfunc_annihilation():
    rng = random.Random(23)
    for _ in range(10):
        d = rng.randint(1, 6)
        parts = pt.partitions_of(d)
        la = parts[rng.randrange(len(parts))]
        f = SymFunc.p_monomial(la)
        for n in range(1, d + 1):
            lhs = lv.annihilate_mode(BOX, (1,), n, symfunc_to_box(f))
            rhs = symfunc_to_box(sf.annihilate(n, f).scale(2))
            assert lhs == rhs


def _failures(lattice, x, h):
    """The labels of the primary-state conditions that x fails at L_0 eigenvalue h."""
    return [label for label, residual in lv.primary_check(lattice, x, h) if residual]


def test_is_primary_vacuum_and_group_elements():
    assert [label for label, _ in lv.primary_check(GR, vac(GR), 0)] == ["L_0"]
    assert not _failures(GR, vac(GR), 0)
    alpha = (4, 2)
    assert not _failures(GR, VAElem.group_element(GR, alpha), F(GR.pairing(alpha, alpha), 2))
    assert not _failures(GR, VAElem.group_element(GR, (0, 1)), 1)
    # weight -1: primary at that eigenvalue alone
    assert not _failures(GR, VAElem.group_element(GR, (2, 1)), -1)
    assert _failures(GR, VAElem.group_element(GR, (2, 1)), 0) == ["L_0"]


def test_is_primary_detects_failures():
    x = lv.create(GR, (0, 1), 1, vac(GR))  # q_{-1}|0>: L_1 x = q_(0)|0> = 0
    assert [label for label, _ in lv.primary_check(GR, x, 1)] == ["L_0", "L_1"]
    assert not _failures(GR, x, 1)
    # q_{-1} e^q, of L_0 eigenvalue B(q, q)/2 + 1 = 2: L_1 gives B(q, q) e^q
    y = lv.create(GR, (0, 1), 1, VAElem.group_element(GR, (0, 1)))
    assert _failures(GR, y, 2) == ["L_1"]
    assert dict(lv.primary_check(GR, y, 2))["L_1"] == VAElem.group_element(GR, (0, 1)).scale(2)


def test_is_primary_rejects_inhomogeneous():
    # Fock degrees 0 and 1 on one component: no eigenvalue fits both
    x = vac(GR) + lv.create(GR, (0, 1), 1, vac(GR))
    assert _failures(GR, x, 0) == _failures(GR, x, 1) == ["L_0"]


def test_creation_series_needs_no_deep_stack():
    # p! S_p reads the series below p from its cache, asked for in ascending order, so
    # no call nests more than two deep; one that recursed p deep ended
    # `quivertex gr-class 1 1200 --via wallcross` in a RecursionError
    pt._creation_series.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        series = pt._creation_series((0, 1), 40, 40)
    finally:
        sys.setrecursionlimit(limit)
    assert len(series) == len(pt.partitions_of(40))


@pytest.mark.parametrize(
    "apply",
    (
        lambda lat, x: lv.create(lat, (1,) * lat.rank, 1, x),
        lambda lat, x: lv.annihilate_mode(lat, (1,) * lat.rank, 0, x),
        lambda lat, x: lv.virasoro(lat, 0, x),
        lambda lat, x: lv.translate(lat, x),
        lambda lat, x: lv.primary_check(lat, x, 1),
        lambda lat, x: lv.field_mode(lat, (1,) * lat.rank, 0, x),
    ),
    ids=("create", "annihilate_mode", "virasoro", "translate", "primary_check", "field_mode"),
)
def test_operators_refuse_an_element_of_another_lattice(apply):
    # L_0 x is 3 x on BOX and 4 x on (Z, 4); a mixed call returned 4 x as an element of BOX
    x = lv.create(BOX, (1,), 2, VAElem.group_element(BOX, (1,)))
    for other in (Lattice(B=[[4]], b=[[2]]), DEGEN):
        with pytest.raises(ValueError) as e:
            apply(other, x)
        assert str(e.value) == f"operator on {other!r} applied to an element of {BOX!r}"
    assert apply(Lattice(B=[[2]], b=[[1]]), x) == apply(BOX, x)  # an equal lattice is the same


def test_lattices_with_one_form_and_two_sign_data_read_apart():
    B = [[0, 1], [1, 0]]
    assert repr(Lattice(B, [[0, 1], [0, 0]])) != repr(Lattice(B, [[0, 0], [1, 0]]))
