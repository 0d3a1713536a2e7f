"""Properties of the shared linear-combination arithmetic, over all three
element types: SymFunc, DescendentPoly and VAElem."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertex.descendent import DescendentPoly
from quivertex.lincomb import rational
from quivertex.latticeva import Lattice, VAElem, grassmannian_lattice
from quivertex.symfunc import SymFunc

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
