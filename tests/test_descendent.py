import random
from fractions import Fraction

import pytest

from quivertex import checks as ck
from quivertex import descendent as dc
from quivertex import quiver as qv
from quivertex.checks import _random_monomial
from quivertex.descendent import DescendentPoly
from quivertex.symfunc import SymFunc


F = Fraction
A1 = qv.builtin("linear(1)")
BEILINSON = qv.builtin("beilinson_p2")


def ch(k, v="1"):
    return DescendentPoly.ch(k, v)


def test_r_op_basic():
    assert dc.r_op(A1, 1, ch(2)) == ch(3).scale(6)  # 2*3
    assert dc.r_op(A1, -1, ch(0)) == DescendentPoly.zero()
    assert dc.r_op(A1, -1, ch(3)) == ch(2)
    assert dc.r_op(A1, 0, ch(4)) == ch(4).scale(4)
    assert dc.r_op(A1, 2, ch(1) * ch(1)) == (ch(3) * ch(1)).scale(12)


def test_r_op_kills_ch0():
    for n in range(0, 4):
        assert dc.r_op(A1, n, ch(0)) == DescendentPoly.zero()


def test_r_op_is_derivation():
    # monomials of ch-weight up to 6, one more than check_r_derivation draws
    rng = random.Random(2)
    for n in range(-1, 4):
        for _ in range(10):
            f, g = (_random_monomial(rng, BEILINSON, 6) for _ in range(2))
            lhs = dc.r_op(BEILINSON, n, f * g)
            assert lhs == dc.r_op(BEILINSON, n, f) * g + f * dc.r_op(BEILINSON, n, g)


def test_t_element_a1():
    assert dc.t_element(A1, 0) == ch(0) * ch(0)
    assert dc.t_element(A1, 1) == (ch(0) * ch(1)).scale(2)
    assert dc.t_element(A1, -1) == DescendentPoly.zero()


def test_t_element_beilinson_degree0():
    # sum chi(v,w) ch_0(v) ch_0(w) with chi rows (1,-3,6),(0,1,-3),(0,0,1)
    t0 = dc.t_element(BEILINSON, 0)
    c = lambda v: DescendentPoly.ch(0, v)
    expected = (
        c("1") * c("1")
        + c("2") * c("2")
        + c("3") * c("3")
        + (c("1") * c("2")).scale(-3)
        + (c("2") * c("3")).scale(-3)
        + (c("1") * c("3")).scale(6)
    )
    assert t0 == expected


def test_l_op_examples():
    assert dc.l_op(A1, -1, ch(1)) == ch(0)
    assert dc.l_op(A1, 0, DescendentPoly.one()) == ch(0) * ch(0)
    assert dc.l_op(A1, 1, ch(1)) == ch(2).scale(2) + (ch(0) * ch(1) * ch(1)).scale(2)


def test_framed_t_element():
    n_framing = qv.FramingVector(A1, [5])
    assert dc.framed_t_element(A1, n_framing, 1) == (ch(0) * ch(1)).scale(2) - ch(1).scale(5)
    assert dc.framed_t_element(A1, n_framing, 0) == ch(0) * ch(0) - ch(0).scale(5)


def test_virasoro_bracket():
    assert ck.check_descendent_virasoro_bracket()["ok"]


def test_framed_virasoro_bracket():
    assert ck.check_framed_virasoro_bracket()["ok"]


def test_l_wt0_constant_and_kernel():
    assert dc.l_wt0(A1, DescendentPoly.one()) == DescendentPoly.zero()
    # frozen two-step evaluation on ch_1: -L_{-1}(ch_1) + L_0(R_{-1} ch_1)
    expected = ch(0) * ch(0) * ch(0) - ch(0)
    assert dc.l_wt0(A1, ch(1)) == expected


def test_l_wt0_lands_in_r_minus1_kernel():
    assert ck.check_l_wt0_kernel()["ok"]


@pytest.mark.parametrize("bad", [1.9, True, "1"], ids=["float", "bool", "str"])
def test_ch_indices_take_only_ints(bad):
    assert DescendentPoly({((1, "1"),): 1}) == ch(1)
    with pytest.raises(ValueError, match="expected an integer"):
        DescendentPoly({((bad, "1"),): 1})


def test_substitute_ch0():
    f = ch(0) * ch(1) + ch(2).scale(3)
    g = f.substitute_ch0({"1": 4})
    assert g == ch(1).scale(4) + ch(2).scale(3)


def test_substitute_ch0_names_a_missing_vertex():
    with pytest.raises(ValueError, match="vertex x"):
        DescendentPoly.ch(0, "x").substitute_ch0({})
    f = ch(0, "2") * ch(1, "1") + ch(0, "3")
    with pytest.raises(ValueError, match="vertex 2, 3"):
        f.substitute_ch0({"1": 5})
    # a vertex that carries no ch_0 factor needs no value
    assert (ch(1, "2") * ch(0, "1")).substitute_ch0({"1": 5}) == ch(1, "2").scale(5)


def test_to_symfunc():
    assert dc.to_symfunc(ch(2), 0) == SymFunc({(2,): F(1, 2)})
    assert dc.to_symfunc(ch(0) * ch(1), 3) == SymFunc({(1,): 3})
    with pytest.raises(ValueError):
        dc.to_symfunc(DescendentPoly.ch(1, "1") * DescendentPoly.ch(1, "2"), 0)


def test_framed_t_to_symfunc():
    # with ch_0 = k: sum_{a+b=n, a,b>0} p_a p_b + (2k - N) p_n
    n_framing = qv.FramingVector(A1, [4])
    for n in (1, 2, 3):
        for k in (0, 1, 3):
            got = dc.to_symfunc(dc.framed_t_element(A1, n_framing, n), k)
            expected = SymFunc.zero()
            for a in range(1, n):
                expected = expected + SymFunc.p(a) * SymFunc.p(n - a)
            expected = expected + SymFunc.p(n).scale(2 * k - 4)
            assert got == expected, (n, k)


def test_modes_below_minus_one_raise_value_error():
    framing = qv.FramingVector(BEILINSON, [1, 0, 0])
    f = ch(2, "1")
    for call in (
        lambda: dc.r_op(BEILINSON, -2, f),
        lambda: dc.l_op(BEILINSON, -2, f),
        lambda: dc.l_op_framed(BEILINSON, framing, -2, f),
    ):
        with pytest.raises(ValueError, match="n >= -1"):
            call()


def test_l_op_needs_a_quasi_smooth_quiver():
    # a degree -2 arrow leaves the quasi-smooth range; l_op checks before touching f
    q = qv.DgQuiver(["1", "2"], [("1", "2", -2)])
    for n in range(-1, 4):
        for f in (DescendentPoly.zero(), DescendentPoly.ch(1, "2")):
            with pytest.raises(qv.QuiverError) as e:
                dc.l_op(q, n, f)
            assert e.value.code == "not_quasi_smooth"
    # the mode check comes first
    with pytest.raises(ValueError, match="n >= -1") as e:
        dc.l_op(q, -2, ch(1))
    assert not isinstance(e.value, qv.QuiverError)


def test_t_cache_is_bounded_and_not_shared():
    assert dc._t_terms.cache_info().maxsize is not None
    framing = qv.FramingVector(BEILINSON, [2, 0, 1])
    f = ch(1, "1") * ch(2, "3")
    before = dc.l_op(BEILINSON, 2, f)
    framed_before = dc.l_op_framed(BEILINSON, framing, 2, f)
    t = dc.t_element(BEILINSON, 2)
    with pytest.raises(AttributeError):
        t.terms.clear()
    with pytest.raises(TypeError):
        dc.framed_t_element(BEILINSON, framing, 2).terms[((2, "1"),)] = F(5)
    assert dc.l_op(BEILINSON, 2, f) == before
    assert dc.l_op_framed(BEILINSON, framing, 2, f) == framed_before
    assert t and dc.t_element(BEILINSON, 2) == t
