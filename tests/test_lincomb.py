"""Properties of the shared linear-combination arithmetic, over all three
element types: SymFunc, DescendentPoly and VAElem."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import quiver as qv
from quivertex.descendent import DescendentPoly
from quivertex.latticeva import Lattice, VAElem, field_mode, grassmannian_lattice
from quivertex.lincomb import LinComb, rational
from quivertex.symfunc import SymFunc, hall_deformed, jack, schur

LATTICES = (grassmannian_lattice(), Lattice(B=[[2, 2], [2, 2]], b=[[1, 2], [0, 1]]))

coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6))
partitions = st.lists(st.integers(1, 4), max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))
monomials = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from("12")), max_size=3
).map(lambda m: tuple(sorted(m)))
va_keys = st.tuples(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 3)), max_size=3).map(
        lambda f: tuple(sorted(f))
    ),
)


@st.composite
def pairs(draw, kind):
    """Two elements of one kind (on one lattice for VAElem)."""
    if kind == "symfunc":
        make, keys = SymFunc, partitions
    elif kind == "descendent":
        make, keys = DescendentPoly, monomials
    else:
        lattice = draw(st.sampled_from(LATTICES))
        make, keys = (lambda terms: VAElem(lattice, terms)), va_keys
    x, y = (make(draw(st.dictionaries(keys, coeffs, max_size=5))) for _ in range(2))
    return x, y


@pytest.mark.parametrize("kind", ("symfunc", "descendent", "vaelem"))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), c=coeffs)
def test_linear_structure(kind, data, c):
    x, y = data.draw(pairs(kind))
    results = [x + y, x - y, -x, x.scale(c), x + y - y, x - x, x.scale(0)]
    if kind != "vaelem":
        results.append(x * y)
    for z in results:
        assert all(type(v) is Fraction and v for v in z.terms.values()), z.terms
        if kind == "vaelem":
            assert z.lattice is x.lattice
    assert x + y - y == x
    assert (x - x).terms == {}
    assert x.scale(c).scale(1 / c) == x
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert hash(x + y - y) == hash(x)


@pytest.mark.parametrize("make", (SymFunc, DescendentPoly))
@given(c=coeffs)
def test_constants_equal_and_hash_like_scalars(make, c):
    for value in (c, 0, 1, -3, Fraction(0), Fraction(7, 2)):
        z = make.one().scale(value)
        assert z == value and hash(z) == hash(value)
        assert len({z, value}) == 1
    assert hash(make.one().scale(c) - make.one().scale(c)) == hash(0)



def test_map_sums_int_images_over_one_denominator():
    f = SymFunc({(1,): Fraction(1, 7919), (2,): Fraction(-3, 104729), (): Fraction(5)})
    # key -> 3 key + 2 key', with key' = () for every key: the images of () and p_1 meet on ()
    image = lambda la: [(la, 3), ((), 2)]
    got = f._map(image, den=7)
    total = 2 * sum(f.terms.values()) / 7 + Fraction(15, 7)
    assert got.terms == {
        (1,): Fraction(3, 7 * 7919),
        (2,): Fraction(-9, 7 * 104729),
        (): total,
    }
    assert all(type(c) is Fraction for c in got.terms.values())
    # a cancellation stores no key: p_1 - p_2 both map onto p_3 with weight 1
    g = SymFunc({(1,): Fraction(1, 7919), (2,): Fraction(-1, 7919)})
    assert g._map(lambda la: [((3,), 1)]).terms == {}
    assert not SymFunc()._map(image, den=7).terms
    # a VAElem result keeps its lattice
    lat = Lattice(B=[[2, 2], [2, 2]], b=[[1, 2], [0, 1]])
    x = VAElem(lat, {((1, 0), ((0, 1),)): Fraction(1, 3)})
    y = x._map(lambda key: [(key, 2), (((0, 1), ()), 1)], den=2)
    assert y.lattice is lat and type(y) is VAElem
    assert y.terms == {((1, 0), ((0, 1),)): Fraction(1, 3), ((0, 1), ()): Fraction(1, 6)}


def test_rational_shares_one_fraction_per_numerator():
    nums = {"a": 6, "b": 0, "c": -4, "d": 6, "e": 10**30, "f": 10**30, "g": -4}
    got = rational(nums, 4)
    big = 10**30 // 4
    assert got == {"a": Fraction(3, 2), "c": -1, "d": Fraction(3, 2), "e": big, "f": big, "g": -1}
    assert list(got) == ["a", "c", "d", "e", "f", "g"]
    assert got["a"] is got["d"] and got["c"] is got["g"] and got["e"] is got["f"]
    assert all(type(v) is Fraction for v in got.values())


def test_ints_adopts_the_callers_dict():
    nums = {"a": 3, "b": -5}
    x = LinComb._ints(nums, 2)
    assert x.nums is nums and x.den == 2
    # a zero is dropped and the gcd of d and the numerators divided out
    y = LinComb._ints({"a": 6, "b": 0, "c": -4}, 10)
    assert (y.nums, y.den) == ({"a": 3, "c": -2}, 5)
    z = LinComb._ints({"a": 0}, 7)
    assert (z.nums, z.den) == ({}, 1)


def _snapshot(*elements):
    return [(x.den, dict(x.nums)) for x in elements]


LINEAR2 = qv.builtin("linear(2)")
F, G = SymFunc({(2, 1): Fraction(1, 3), (1,): 2}), SymFunc({(2, 1): Fraction(2, 3), (3,): 1})
P = DescendentPoly({((1, "1"), (2, "2")): Fraction(1, 2), ((0, "1"),): 3})
Q = DescendentPoly({((1, "1"),): Fraction(-1, 4), ((0, "2"), (2, "2")): 1})
U = VAElem(LATTICES[1], {((1, 0), ((0, 1),)): Fraction(1, 3), ((0, 1), ()): 2})
V = VAElem(LATTICES[1], {((1, 0), ((0, 1),)): Fraction(2, 3), ((1, 1), ((1, 2),)): 1})
ONE_VERTEX = DescendentPoly({((0, "1"), (2, "1")): Fraction(1, 2), ((1, "1"),): 1})
S321 = schur((3, 2, 1))  # the cached value, an operand of what is built from it

# (id, function, operands): the result is function(*operands)
OWNED = [
    *(
        case
        for name, x, y in (("symfunc", F, G), ("descendent", P, Q), ("vaelem", U, V))
        for case in (
            (f"{name} +", operator.add, (x, y)),
            (f"{name} -", operator.sub, (x, y)),
            (f"{name} + 0", lambda x: x + x.scale(0), (x,)),
            (f"{name} unary -", operator.neg, (x,)),
            (f"{name} scale(1)", lambda x: x.scale(1), (x,)),
        )
    ),
    ("symfunc * one", lambda x: x * SymFunc.one(), (F,)),
    ("descendent * one", lambda x: x * DescendentPoly.one(), (P,)),
    ("to_symfunc", lambda x: dc.to_symfunc(x, Fraction(3, 2)), (ONE_VERTEX,)),
    ("substitute_ch0", lambda x: x.substitute_ch0({"1": 2, "2": 3}), (P,)),
    ("t_element", lambda: dc.t_element(LINEAR2, 2), ()),
    ("framed_t_element", lambda: dc.framed_t_element(LINEAR2, (1, 2), 2), ()),
    ("l_op", lambda x: dc.l_op(LINEAR2, 1, x), (P,)),
    ("field_mode", lambda x: field_mode(LATTICES[1], (0, 1), 0, x), (U,)),
    ("cached schur scale(1)", lambda x: x.scale(1), (S321,)),
    ("schur kernel", lambda _: schur.__wrapped__((3, 2, 1)), (S321,)),
]


@pytest.mark.parametrize(
    "function, operands", [case[1:] for case in OWNED], ids=[case[0] for case in OWNED]
)
def test_results_own_their_numerators(function, operands):
    # writing into a result's nums changes no operand, no later call and no cached value
    before = _snapshot(*operands)
    result = function(*operands)
    expected = _snapshot(result)
    for key in list(result.nums):
        result.nums[key] += 1
    result.nums[object()] = 1
    assert _snapshot(*operands) == before
    assert _snapshot(function(*operands)) == expected
    assert _snapshot(schur((3, 2, 1))) == _snapshot(schur.__wrapped__((3, 2, 1)))


def test_a_float_is_refused_wherever_a_rational_enters():
    # Fraction(0.1) is 3602879701896397/36028797018963968, so every reader goes through coerce
    p1 = SymFunc.p(1)
    for read in (
        lambda x: jack((2,), x),
        lambda x: hall_deformed(p1, p1, x),
        lambda x: gc.FockParams(x, 1, 1),
        lambda x: gc._lowering_part(1, x, p1),
        lambda x: gc._raising_part(1, x, p1),
        lambda x: SymFunc({(1,): x}),
        lambda x: p1.scale(x),
        lambda x: gc.integrals_by_recursion(1, 2, x),
        lambda x: dc.to_symfunc(dc.DescendentPoly.ch(1, "1"), x),
    ):
        with pytest.raises(TypeError, match="must be rational"):
            read(0.1)
        read(Fraction(1, 10))
