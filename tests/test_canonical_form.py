"""Every element is stored in one canonical form: int numerators over one
positive denominator that shares no factor with all of them, and no zero
numerator.  So ``==`` and ``hash`` can compare the stored form directly; they
must agree with comparing the coefficients as Fractions.

Every operator runs on seeded random elements whose coefficients carry large
prime denominators, and on elements that cancel to zero.
"""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import partitions as pt
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex.symfunc import SymFunc

from fraction_reference import like

DENOMINATORS = (1, 2, 6, 7919, 104729, 2**61 - 1)
SCALARS = (0, 1, -1, 3, Fraction(-7, 3), Fraction(104729, 7919), Fraction(1, 2**61 - 1))
QUIVER = qv.builtin("beilinson_p2")
FRAMING = qv.FramingVector(QUIVER, [2, 0, 1])
DEGEN = lv.Lattice(B=[[2, 2], [2, 2]], b=[[1, 2], [0, 1]])


def _coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice(DENOMINATORS))


def _symfunc(rng, max_deg=5):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        parts = pt.partitions_of(rng.randint(0, max_deg))
        terms[parts[rng.randrange(len(parts))]] = _coefficient(rng)
    return SymFunc(terms)


def _descendent(rng, max_k=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(
            (rng.randint(0, max_k), rng.choice(QUIVER.vertices)) for _ in range(rng.randint(0, 2))
        )
        terms[mono] = _coefficient(rng)
    return dc.DescendentPoly(terms)


def _vaelem(rng, lat, max_fock=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        fock, budget = [], rng.randint(0, max_fock)
        while budget > 0:
            k = rng.randint(1, budget)
            fock.append((rng.randrange(lat.rank), k))
            budget -= k
        terms[(alpha, tuple(sorted(fock)))] = _coefficient(rng)
    return lv.VAElem(lat, terms)


def _linear(x, y, c):
    """The ring-free operations, with results that cancel to zero."""
    return [x + y, x - y, -x, x.scale(c), x - x, x.scale(c) - x.scale(c), x + y - y, (x - y) + y]


def _symfunc_results(rng):
    f, g = _symfunc(rng), _symfunc(rng)
    c = rng.choice(SCALARS)
    out = _linear(f, g, c) + [f * g, f * (g - g), f * c]
    out += [sf.annihilate(n, f) for n in (1, 2)]
    out += [sf.skew_by(g, f), sf.involution(f), f.homogeneous_part(2)]
    out += [gc.hecke(n, f) for n in (-1, 0, 2)] + [gc.hecke_sym(1, f)]
    out += [gc.gr_virasoro(n, gc.GrElem(4, 2, f)).f for n in (0, 1, 2)]
    out += [gc.gr_virasoro_dual(n, 5, 2, f) for n in (0, 1, 2)]
    out += [gc.calogero_sutherland(f), gc.r_n_symfunc(2, f)]
    out += [gc._raising_part(2, c, f), gc._lowering_part(2, c, f, Fraction(2, 7919))]
    out += [gc.fock_virasoro(gc.FockParams(Fraction(104729, 7919), 1, 2), 1, f)]
    return out


def _cached_symfuncs():
    out = [sf.schur((3, 2, 1)), sf.complete(4), sf.elementary(3), sf.monomial((2, 2, 1))]
    out += [sf.jack((2, 1, 1), Fraction(104729, 7919)), sf.jack((2, 1), Fraction(-5, 2))]
    return out + [gc.gr_class_wallcross(2, 4).f, gc.gr_class_schur(2, 5).f]


def _descendent_results(rng):
    f, g = _descendent(rng), _descendent(rng)
    c = rng.choice(SCALARS)
    out = _linear(f, g, c) + [f * g, f * (g - g)]
    for n in (-1, 0, 2):
        out += [dc.r_op(QUIVER, n, f), dc.l_op(QUIVER, n, f)]
        out += [dc.l_op_framed(QUIVER, FRAMING, n, f), dc.t_element(QUIVER, n)]
        out.append(dc.framed_t_element(QUIVER, FRAMING, n))
    out += [dc.l_wt0(QUIVER, f), f.substitute_ch0({"1": 2, "2": 0, "3": 7919})]
    return out


def _vaelem_results(rng):
    lat = rng.choice((lv.grassmannian_lattice(), DEGEN))
    x, y = _vaelem(rng, lat), _vaelem(rng, lat)
    c = rng.choice(SCALARS)
    v = (1, -1)
    out = _linear(x, y, c)
    out += [lv.create(lat, v, 2, x), lv.annihilate_mode(lat, v, 0, x)]
    out += [lv.annihilate_mode(lat, v, 1, x), lv.translate(lat, x)]
    out += [lv.virasoro(lat, n, x) for n in (0, 1, 2)]
    out += [lv.field_mode(lat, v, n, x) for n in (-2, 0, 1)]
    return out


def _results():
    rng = random.Random(20260)
    yield _cached_symfuncs()
    for _ in range(12):
        yield _symfunc_results(rng)
        yield _descendent_results(rng)
        yield _vaelem_results(rng)


def _assert_canonical(x):
    assert type(x.den) is int and x.den > 0, x
    assert all(type(n) is int and n for n in x.nums.values()), x
    assert gcd(x.den, *x.nums.values()) == 1, x


def _fraction_form(x):
    """What == compared when elements stored a dict of Fractions."""
    return type(x), getattr(x, "lattice", None), dict(x.terms)


def test_every_operator_returns_the_canonical_form():
    zeros = 0
    for batch in _results():
        for x in batch:
            _assert_canonical(x)
            zeros += not x
            assert x.den == 1 or x, x  # zero is 0 / 1
    assert zeros > 20  # the cancelling cases did cancel


def test_equality_and_hash_agree_with_fraction_coefficients():
    for batch in _results():
        forms = [_fraction_form(x) for x in batch]
        for x, form in zip(batch, forms):
            copied = like(x, form[2])  # rebuilt from its Fractions
            assert copied == x and hash(copied) == hash(x)
            for y, other in zip(batch, forms):
                assert (x == y) == (form == other), (x, y)
                if x == y:
                    assert hash(x) == hash(y)
            for c in SCALARS if not isinstance(x, lv.VAElem) else ():  # no scalars in V
                want = dict(x.terms) == ({(): Fraction(c)} if c else {})
                assert (x == c) == want and (x != c) != want, (x, c)


def test_constants_hash_like_their_scalar():
    assert hash(SymFunc.one().scale(3)) == hash(3)
    assert SymFunc.one().scale(3) == 3 and SymFunc.one().scale(3).nums == {(): 3}
    third = dc.DescendentPoly.one().scale(Fraction(1, 3))
    assert hash(third) == hash(Fraction(1, 3)) and (third.den, third.nums) == (3, {(): 1})
    zero = SymFunc.p(1) - SymFunc.p(1)
    assert hash(zero) == hash(0) and zero == 0 and (zero.den, zero.nums) == (1, {})
    assert SymFunc.p(1) != 0 and SymFunc.p(1) != 1


def test_pickle_and_deepcopy_round_trip():
    rng = random.Random(7)
    lat = lv.Lattice(B=[[2, 1], [1, 0]], b=[[1, 1], [0, 0]])
    values = [_symfunc(rng), sf.schur((2, 2)), _descendent(rng), _vaelem(rng, lat), SymFunc()]
    for x in values:
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(copied) is type(x) and copied == x and hash(copied) == hash(x)
            assert (copied.den, copied.nums) == (x.den, x.nums)
            _assert_canonical(copied)
    va = values[3]
    for copied in (pickle.loads(pickle.dumps(va)), copy.deepcopy(va)):
        assert copied.lattice == lat
        assert lv.virasoro(lat, 0, copied) == lv.virasoro(lat, 0, va)


def test_terms_is_a_read_only_view_of_fractions():
    f = SymFunc({(2,): Fraction(2, 6), (1, 1): Fraction(-3, 7919)})
    assert (f.den, f.nums) == (3 * 7919, {(2,): 7919, (1, 1): -9})
    assert dict(f.terms) == {(2,): Fraction(1, 3), (1, 1): Fraction(-3, 7919)}
    assert len(f.terms) == 2 and (2,) in f.terms and (3,) not in f.terms
    assert f.terms.get((3,)) is None and sorted(f.terms) == [(1, 1), (2,)]
    with pytest.raises(TypeError):
        f.terms[(3,)] = Fraction(1)
    with pytest.raises(TypeError):
        del f.terms[(2,)]
    assert not hasattr(f.terms, "clear") and not hasattr(f.terms, "update")
