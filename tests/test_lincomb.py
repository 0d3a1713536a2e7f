"""Properties of the shared linear-combination arithmetic, over all three
element types: SymFunc, DescendentPoly and VAElem."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertex.descendent import DescendentPoly
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

