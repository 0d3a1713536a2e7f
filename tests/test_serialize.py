import json
import random
from fractions import Fraction

import pytest

from quivertex import latticeva as lv
from quivertex import partitions as pt
from quivertex import quiver as qv
from quivertex import serialize as sz
from quivertex import symfunc as sf
from quivertex.descendent import DescendentPoly
from quivertex.grasscalc import GrElem
from quivertex.symfunc import SymFunc


F = Fraction


def _random_symfunc(rng, max_deg=6):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(0, max_deg)
        parts = pt.partitions_of(d)
        terms[parts[rng.randrange(len(parts))]] = F(rng.randint(-9, 9), rng.randint(1, 7))
    return SymFunc(terms)


def test_rational_text():
    assert sz.rational_to_text(F(3)) == "3"
    assert sz.rational_to_text(F(-1, 12)) == "-1/12"
    assert sz.rational_from_text("-7/3") == F(-7, 3)
    with pytest.raises(ValueError):
        sz.rational_from_text("1.5")


def test_rational_zero_denominator():
    for text in ("1/0", "-3/00", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            sz.rational_from_text(text)
    with pytest.raises(ValueError, match="zero denominator"):
        sz.rational_from_json([1, 0])


def test_partition_text():
    assert sz.partition_from_text("3,1") == (3, 1)
    assert sz.partition_from_text("-") == ()
    with pytest.raises(ValueError):
        sz.partition_from_text("1,2")


def test_symfunc_text_golden():
    assert sz.symfunc_to_text(sf.schur((2, 2))) == "1/12*p1^4 + 1/4*p2^2 - 1/3*p1*p3"
    assert sz.symfunc_to_text(SymFunc.zero()) == "0"
    assert sz.symfunc_to_text(SymFunc.one()) == "1"
    assert sz.symfunc_to_text(-SymFunc.p(2)) == "-p2"
    assert sz.symfunc_to_text(SymFunc.one().scale(F(-2, 3)) + SymFunc.p(1)) == "-2/3 + p1"
    f = SymFunc({(): F(-1, 2), (1,): 1, (2, 1): F(-3, 4)})
    assert sz.symfunc_to_text(f) == "-1/2 + p1 - 3/4*p1*p2"


def test_symfunc_text_round_trip():
    rng = random.Random(77)
    for _ in range(40):
        f = _random_symfunc(rng)
        text = sz.symfunc_to_text(f)
        assert sz.symfunc_from_text(text) == f
        # round-trip is byte-exact
        assert sz.symfunc_to_text(sz.symfunc_from_text(text)) == text


def test_symfunc_text_parse_forms():
    assert sz.symfunc_from_text("p1^4") == SymFunc.p_monomial((1, 1, 1, 1))
    assert sz.symfunc_from_text("2*p3*p1") == SymFunc.p_monomial((3, 1)).scale(2)
    assert sz.symfunc_from_text("-p2 + 1/2") == SymFunc.one().scale(F(1, 2)) - SymFunc.p(2)
    assert sz.symfunc_from_text("p2*3") == SymFunc.p(2).scale(3)
    with pytest.raises(ValueError):
        sz.symfunc_from_text("p0")
    with pytest.raises(ValueError):
        sz.symfunc_from_text("x1")


def test_symfunc_json_round_trip():
    rng = random.Random(78)
    for _ in range(20):
        f = _random_symfunc(rng)
        data = json.loads(json.dumps(sz.symfunc_to_json(f)))
        assert sz.symfunc_from_json(data) == f


def test_descendent_round_trip():
    f = (
        DescendentPoly.ch(0, "1") * DescendentPoly.ch(2, "1")
        - DescendentPoly.ch(1, "2").scale(F(5, 3))
        + DescendentPoly.one().scale(2)
    )
    assert sz.descendent_to_text(DescendentPoly.zero()) == "0"
    text = sz.descendent_to_text(f)
    assert "ch2(1)" in text
    g = DescendentPoly({(): F(-1, 2), ((1, "1"),): 1, ((0, "2"), (2, "1")): -3})
    assert sz.descendent_to_text(g) == "-1/2 + ch1(1) - 3*ch0(2)*ch2(1)"


def test_quiver_round_trip():
    for name in ("beilinson_p2", "p1xp1", "kronecker(3)"):
        q = qv.builtin(name)
        data = json.loads(json.dumps(sz.quiver_to_json(q)))
        assert sz.quiver_from_json(data) == q
    with pytest.raises(ValueError):
        sz.quiver_from_json({"vertices": ["a"]})


def test_grelem_round_trip():
    x = GrElem(4, 2, sf.schur((2, 2)))
    data = json.loads(json.dumps(sz.grelem_to_json(x)))
    assert sz.grelem_from_json(data) == x
    assert sz.grelem_to_text(x).startswith("Q^4 q^2 (x) ")


LINEAR2 = qv.builtin("linear(2)")
GR_LATTICE = lv.grassmannian_lattice()
# every integer field a JSON reader takes, as (reader of one value, a valid value);
# the descendent, dimvector, lattice and vaelem rows read through the constructor that
# their JSON reader fed, which keeps the only test of the Lattice entry check
INTEGER_FIELDS = {
    "rational numerator": (lambda x: sz.rational_from_json([x, 3]), 1),
    "rational denominator": (lambda x: sz.rational_from_json([1, x]), 1),
    "symfunc part": (lambda x: sz.symfunc_from_json([[[1, 1], [x]]]), 1),
    "descendent index": (lambda x: DescendentPoly({((x, "1"),): 1}), 1),
    "quiver degree": (
        lambda x: sz.quiver_from_json(
            {"vertices": ["a", "b"], "arrows": [{"src": "a", "tgt": "b", "deg": x}]}
        ),
        0,
    ),
    "dimvector entry": (lambda x: qv.DimVector(LINEAR2, {"1": x}), 1),
    "lattice B": (lambda x: lv.Lattice(B=[[0, x], [x, 0]], b=[[0, 1], [0, 0]]), 1),
    "lattice b": (lambda x: lv.Lattice(B=[[2]], b=[[x]]), 1),
    "vaelem alpha": (lambda x: lv.VAElem(GR_LATTICE, {((x, 0), ()): 1}), 1),
    "vaelem basis index": (lambda x: lv.VAElem(GR_LATTICE, {((0, 0), ((x, 2),)): 1}), 1),
    "vaelem mode": (lambda x: lv.VAElem(GR_LATTICE, {((0, 0), ((1, x),)): 1}), 1),
    "grelem N": (lambda x: sz.grelem_from_json({"N": x, "k": 0, "f": []}), 1),
    "grelem k": (lambda x: sz.grelem_from_json({"N": 2, "k": x, "f": []}), 1),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_json_readers_take_only_ints(field, bad):
    read, good = INTEGER_FIELDS[field]
    read(good)  # the field is read, so a ValueError below is its type's
    with pytest.raises(ValueError):
        read(bad)
