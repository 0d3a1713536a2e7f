import copy
import importlib
import pickle
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quivertex
from quivertex import grasscalc as gc
from quivertex import partitions as pt
from quivertex import symfunc as sf
from quivertex.symfunc import SymFunc


F = Fraction


def p(*parts):
    return SymFunc.p_monomial(tuple(parts))


def test_z_factor():
    assert pt.z_factor(()) == 1
    assert pt.z_factor((1,)) == 1
    assert pt.z_factor((2, 1, 1)) == 4  # 1^2*2! * 2^1*1!
    assert pt.z_factor((3, 3)) == 18  # 3^2*2!


def test_partition_validation():
    assert pt.check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        pt.check_partition((1, 2))
    with pytest.raises(ValueError):
        pt.check_partition((0,))


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_partition_parts_take_only_ints(bad):
    assert SymFunc({(2, 1): 1}).terms == {(2, 1): 1}
    with pytest.raises(ValueError, match="partition parts must be positive integers"):
        SymFunc({(2, bad): 1})


def test_conjugate():
    assert pt.conjugate((3, 1)) == (2, 1, 1)
    assert pt.conjugate(()) == ()
    assert pt.conjugate((2, 2)) == (2, 2)


# the tops at which the width of the code, or the width a bit short of it, changes
CODE_TOPS = (1, 2, 3, 7, 8, 15, 16, 31, 32)


@st.composite
def partition_pairs(draw):
    """(top, la, mu) with |la| + |mu| <= top."""
    top = draw(st.sampled_from(CODE_TOPS))
    n = draw(st.integers(0, top))
    la = draw(st.sampled_from(pt.partitions_of(n)))
    mu = draw(st.sampled_from(pt.partitions_of(draw(st.integers(0, top - n)))))
    return top, la, mu


@settings(max_examples=300, deadline=None)
@given(partition_pairs())
def test_partition_code_adds_under_union_and_keeps_the_size(case):
    top, la, mu = case
    w = pt.code_weights(top)
    (union, _), (a, _), (b, _) = pt.encode([(pt.merge(la, mu), 0), (la, 0), (mu, 0)], w)
    assert union == a + b
    mask = (1 << w[1].bit_length() - 1) - 1  # the low digit, w_1 = 1 + B, holds the size
    assert [pt.size(la) for la, _ in pt.decode([(a, 1), (b, 1)], w)] == [a & mask, b & mask]
    assert pt.decode([(union, 1)], w) == [(pt.merge(la, mu), 1)]


def test_partition_code_decode_inverts_the_code():
    for top in CODE_TOPS:
        w = pt.code_weights(top)
        everything = [la for d in range(top + 1) for la in pt.partitions_of(d)]
        pairs = list(zip(everything, range(1, len(everything) + 1)))
        coded = pt.encode(pairs, w)
        assert len({code for code, _ in coded}) == len(pairs), top  # no two share a code
        assert pt.decode(coded, w) == pairs, top


def test_ring_operations():
    assert p(1) * p(1) == p(1, 1)
    assert p(2) * p(2, 1) == p(2, 2, 1)
    assert p(3).scale(0) == SymFunc.zero()
    assert (p(2) + p(2)).coefficient((2,)) == 2
    assert p(1) - p(1) == SymFunc.zero()


def test_elementary():
    assert sf.elementary(0) == SymFunc.one()
    assert sf.elementary(1) == p(1)
    assert sf.elementary(2) == p(1, 1).scale(F(1, 2)) - p(2).scale(F(1, 2))
    # expansion of exp(sum (-1)^(k+1)/k p_k) in degree 3
    e3 = p(1, 1, 1).scale(F(1, 6)) - p(2, 1).scale(F(1, 2)) + p(3).scale(F(1, 3))
    assert sf.elementary(3) == e3
    assert sf.elementary(-1) == SymFunc.zero()


def test_complete():
    assert sf.complete(0) == SymFunc.one()
    assert sf.complete(1) == p(1)
    assert sf.complete(2) == p(1, 1).scale(F(1, 2)) + p(2).scale(F(1, 2))
    h3 = p(1, 1, 1).scale(F(1, 6)) + p(2, 1).scale(F(1, 2)) + p(3).scale(F(1, 3))
    assert sf.complete(3) == h3


def test_e_h_generating_series_inverse():
    # degreewise: (sum (-1)^j e_j)(sum h_j) = 1 up to degree 10
    for d in range(1, 11):
        acc = SymFunc.zero()
        for j in range(d + 1):
            acc = acc + (sf.elementary(j) * sf.complete(d - j)).scale((-1) ** j)
        assert acc == SymFunc.zero(), f"degree {d}"


def test_schur_small():
    assert sf.schur(()) == SymFunc.one()
    assert sf.schur((1,)) == p(1)
    assert sf.schur((1, 1)) == sf.elementary(2)
    assert sf.schur((3,)) == sf.complete(3)
    # the worked rectangular example
    s22 = p(1, 1, 1, 1).scale(F(1, 12)) + p(2, 2).scale(F(1, 4)) - p(3, 1).scale(F(1, 3))
    assert sf.schur((2, 2)) == s22


def test_many_part_shapes():
    # shapes longer than check_involution_on_schur reaches: a chain of many Hecke steps
    for n in range(1, 21):
        assert sf.schur((1,) * n) == sf.elementary(n), n
    for la in ((2,) * 10, (3, 2, 2, 2) + (1,) * 7, (4, 3, 2) + (1,) * 9):
        assert len(la) >= 10 and pt.size(la) <= 20
        assert sf.schur(pt.conjugate(la)) == sf.involution(sf.schur(la)), la


def test_hall_pairing():
    assert sf.hall(p(2), p(2)) == 2
    assert sf.hall(sf.schur((2,)), sf.schur((1, 1))) == 0
    assert sf.hall(sf.schur((2, 2)), sf.schur((2, 2))) == 1
    assert sf.hall(SymFunc.one(), SymFunc.one()) == 1


def test_schur_orthonormality():
    for d in range(0, 7):
        parts = pt.partitions_of(d)
        for la in parts:
            for mu in parts:
                expected = 1 if la == mu else 0
                assert sf.hall(sf.schur(la), sf.schur(mu)) == expected


def test_annihilate():
    assert sf.annihilate(2, p(2)) == SymFunc.one().scale(2)
    assert sf.annihilate(1, p(1, 1)) == p(1).scale(2)
    assert sf.annihilate(3, p(2, 1)) == SymFunc.zero()


def test_annihilate_adjoint_to_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        f = _random_symfunc(rng, max_deg=8)
        g = _random_symfunc(rng, max_deg=8)
        assert sf.hall(SymFunc.p(n) * f, g) == sf.hall(f, sf.annihilate(n, g))


def test_involution():
    assert sf.involution(p(2)) == -p(2)
    assert sf.involution(sf.schur((2,))) == sf.schur((1, 1))
    for d in range(0, 9):
        for la in pt.partitions_of(d):
            s = sf.schur(la)
            assert sf.involution(s) == sf.schur(pt.conjugate(la))
            assert sf.involution(sf.involution(s)) == s


def test_schur_expand():
    assert sf.schur_expand(sf.complete(2)) == {(2,): 1}
    assert sf.schur_expand(p(1, 1)) == {(2,): 1, (1, 1): 1}
    assert sf.schur_expand(SymFunc.zero()) == {}


def test_monomial():
    assert sf.monomial((1,)) == p(1)
    assert sf.monomial((2,)) == p(2)
    assert sf.monomial((1, 1)) == sf.elementary(2)
    assert sf.monomial((2, 1)) == p(2, 1) - p(3)
    # m-expansion of p_1^3 = m_3 + 3 m_21 + 6 m_111
    assert sf.monomial((3,)) + sf.monomial((2, 1)).scale(3) + sf.monomial(
        (1, 1, 1)
    ).scale(6) == p(1, 1, 1)


def test_schur_is_monomial_plus_lower_terms():
    # s_la = m_la + sum over mu strictly below la in lex order
    for d in range(1, 9):
        for la in pt.partitions_of(d):
            coeffs = sf.monomial_expand(sf.schur(la))
            assert coeffs[la] == 1
            for mu in coeffs:
                assert mu <= la, (la, mu)


def test_jack_degree_one():
    assert sf.jack((1,), F(5, 3)) == p(1)
    assert sf.jack((1,), F(1)) == p(1)


def test_jack_row_two():
    # P_(2) = m_2 + 2/(1+alpha) m_11, solved by hand from the 2x2 Gram system
    for alpha in (F(1), F(2), F(1, 2), F(7, 3)):
        expected = sf.monomial((2,)) + sf.monomial((1, 1)).scale(F(2, 1 + alpha))
        assert sf.jack((2,), alpha) == expected


def test_jack_at_one_is_schur():
    for d in range(1, 7):
        for la in pt.partitions_of(d):
            j = sf.jack(la, F(1))
            s = sf.schur(la)
            # proportional: j * <s,s> == s * <j,s>
            c = sf.hall(j, s)
            assert c != 0
            assert j == s.scale(c)


def test_jack_orthogonality():
    alpha = F(3, 2)
    for d in range(1, 6):
        parts = pt.partitions_of(d)
        for la in parts:
            for mu in parts:
                if la != mu:
                    assert sf.hall_deformed(
                        sf.jack(la, alpha), sf.jack(mu, alpha), alpha
                    ) == 0


def test_jack_one_row_generating_function_oracle():
    # coefficient of y^r in prod_i (1 - x_i y)^(-1/a) = exp(sum_k p_k y^k / (a k))
    # is proportional to the one-row Jack P_(r); expand the exponential directly
    for alpha in (F(1), F(3, 2), F(5, 4), F(2, 3)):
        for r in range(1, 6):
            g = SymFunc.zero()
            for la in pt.partitions_of(r):
                coeff = 1 / (pt.z_factor(la) * alpha ** pt.length(la))
                g = g + SymFunc.p_monomial(la).scale(coeff)
            j = sf.jack((r,), alpha)
            c = sf.hall_deformed(g, j, alpha) / sf.hall_deformed(j, j, alpha)
            assert c != 0 and g == j.scale(c), (r, alpha)


def test_jack_rejects_zero_parameter():
    with pytest.raises(ValueError):
        sf.jack((2, 1), 0)


def test_jack_singular_gram_detected():
    # alpha = -1 annihilates the norm of P_(1,1) in degree 2
    with pytest.raises(ValueError):
        sf.jack((2,), F(-1))


@st.composite
def jack_cases(draw):
    """(la, alpha) with |la| <= 7 and alpha = p/q, 0 < |p| <= 9, 1 <= q <= 9."""
    la = draw(st.sampled_from(pt.partitions_of(draw(st.integers(0, 7)))))
    return la, F(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))


def _laplace_beltrami(f, alpha):
    """D' f = (alpha/2) sum ij p_{i+j} d_i d_j f + 1/2 sum (i+j) p_i p_j d_{i+j} f
    + ((alpha-1)/2) sum i(i-1) p_i d_i f over i, j >= 1, d_i = d/dp_i = annihilate(i, .)/i."""
    top = f.degree()
    terms = []
    for i in range(1, top + 1):
        f_i = sf.annihilate(i, f)
        terms.append((p(i) * f_i).scale((alpha - 1) * (i - 1) / 2))
        for j in range(1, top + 1 - i):
            terms.append((p(i + j) * sf.annihilate(j, f_i)).scale(alpha / 2))
            terms.append((p(max(i, j), min(i, j)) * sf.annihilate(i + j, f)).scale(F(1, 2)))
    return sum(terms, SymFunc.zero())


def _dominates(la, mu):
    sums = [sum(la[:i]) - sum(mu[:i]) for i in range(1, max(len(la), len(mu)) + 1)]
    return all(x >= 0 for x in sums)


@settings(max_examples=200, deadline=None)
@given(jack_cases())
def test_jack_is_a_triangular_eigenvector_of_laplace_beltrami(case):
    # the p-basis operator D' is independent of the m-basis recursion behind jack
    la, alpha = case
    try:
        P = sf.jack(la, alpha)
    except ValueError as e:
        assert f"pole at alpha={alpha}" in str(e)
        return
    coeffs = sf.monomial_expand(P)
    assert coeffs[la] == 1
    assert all(_dominates(la, mu) for mu in coeffs)
    n = sum(i * x for i, x in enumerate(la))
    n_conj = sum(x * (x - 1) // 2 for x in la)
    assert _laplace_beltrami(P, alpha) == P.scale(alpha * n_conj - n)


def test_skew_by():
    # e_1^perp = annihilate(1, .)
    f = p(2, 1) + p(1, 1, 1)
    assert sf.skew_by(sf.elementary(1), f) == sf.annihilate(1, f)
    # adjointness on random pairs
    rng = random.Random(3)
    for _ in range(20):
        g = _random_symfunc(rng, max_deg=5)
        a = _random_symfunc(rng, max_deg=5)
        b = _random_symfunc(rng, max_deg=5)
        assert sf.hall(sf.skew_by(g, a), b) == sf.hall(a, g * b)


def _random_symfunc(rng, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, max_deg)
        parts = pt.partitions_of(d)
        la = parts[rng.randrange(len(parts))]
        terms[la] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return SymFunc(terms)


def test_cached_values_are_read_only():
    cached = {
        "elementary": lambda: sf.elementary(3),
        "complete": lambda: sf.complete(2),
        "complete(-1)": lambda: sf.complete(-1),
        "schur": lambda: sf.schur((2, 1)),
        "schur(())": lambda: sf.schur(()),
        "monomial": lambda: sf.monomial((2, 1)),
        "jack": lambda: sf.jack((2, 1), F(2)),
    }
    for name, get in cached.items():
        value = get()
        before = dict(value.terms)
        with pytest.raises(TypeError):
            value.terms[(3,)] = F(5)
        with pytest.raises(TypeError):
            del value.terms[next(iter(before), (1,))]
        assert not hasattr(value.terms, "clear"), name
        assert dict(get().terms) == before, name
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value, name
    # the two writes of the original report no longer corrupt later values
    assert sf.schur((2, 1)) == p(1, 1, 1).scale(F(1, 3)) - p(3).scale(F(1, 3))
    assert sf.schur((2,)) == p(1, 1).scale(F(1, 2)) + p(2).scale(F(1, 2))


def test_caches_keyed_by_partitions_are_bounded():
    # schur and jack take any caller's partition or alpha, so their caches stop growing
    for cached in (sf.schur, sf._jack):
        assert cached.cache_info().maxsize is not None, cached


def _package_caches():
    """Every module-level function of the package that has a cache_clear."""
    names = [m.name for m in pkgutil.iter_modules(quivertex.__path__)]
    modules = [importlib.import_module(f"quivertex.{name}") for name in names]
    return [
        obj
        for module in modules
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__
    ]


def test_values_survive_clearing_every_cache():
    # a cold start clears these caches; no other memo may carry a value across it
    f = _random_symfunc(random.Random(29), 6)
    requests = {
        "schur": lambda: sf.schur((4, 2, 1)),
        "monomial_expand": lambda: sf.monomial_expand(f),
        "jack": lambda: sf.jack((3, 2, 1), F(2, 3)),
        "hecke_sym": lambda: gc.hecke_sym(2, f),
    }
    for get in requests.values():
        get()
    warm = {name: get() for name, get in requests.items()}
    caches = _package_caches()
    assert {c.__name__ for c in caches} >= {"schur", "complete", "_creation_series", "partitions_of"}
    for cache in caches:
        cache.cache_clear()
    assert all(c.cache_info().currsize == 0 for c in caches)
    for name, get in requests.items():
        assert get() == warm[name], name


def test_the_m_basis_reads_only_the_rows_it_needs(monkeypatch):
    steps = []
    step = sf._row_step
    monkeypatch.setattr(sf, "_row_step", lambda rho, *args: steps.append(rho) or step(rho, *args))
    # a 3-term f of degree 11: each suffix of its own partitions, once, and no other row
    support = random.Random(23).sample(pt.partitions_of(11), 3)
    sf.monomial_expand(SymFunc({la: i + 1 for i, la in enumerate(support)}))
    assert sorted(steps) == sorted({la[i:] for la in support for i in range(len(la))})
    # m_la reads the row of each p_rho it contains, and of no other rho |- 11
    steps.clear()
    sf.monomial.cache_clear()
    m = sf.monomial((4, 3, 2, 2))
    read = [rho for rho in steps if pt.size(rho) == 11]
    assert len(read) == len(set(read)) and set(read) == set(m.nums)
    assert len(read) < len(pt.partitions_of(11))


def test_a_cold_op_decodes_once_and_lists_no_partitions_of_its_degree(monkeypatch):
    # each op reads its output codes back by one partitions.decode, not by a table
    # over the partitions of its degree
    chain = SymFunc.one()
    for n in (7, 5, 3):  # the 4 x 4 rectangle chain of H^sym, up to its last step
        chain = gc.hecke_sym(n, chain)
    support = random.Random(23).sample(pt.partitions_of(14), 3)
    f = SymFunc({la: i + 1 for i, la in enumerate(support)})
    ops = {
        20: lambda: sf.schur((4, 4, 4, 4, 4)),
        16: lambda: gc.hecke_sym(1, chain),
        14: lambda: sf.monomial_expand(f),
    }
    caches, decodes, listed = _package_caches(), [], []  # caches: before partitions_of is wrapped
    decode, partitions_of = pt.decode, pt.partitions_of
    monkeypatch.setattr(pt, "decode", lambda *args: decodes.append(args) or decode(*args))
    monkeypatch.setattr(pt, "partitions_of", lambda n: listed.append(n) or partitions_of(n))
    for degree, op in ops.items():
        for cache in caches:
            cache.cache_clear()
        decodes.clear()
        listed.clear()
        assert op() and len(decodes) == 1 and degree not in listed, (degree, len(decodes), listed)


def test_every_package_cache_is_bounded():
    # the keys are degrees, partitions and quivers a caller picks, so no cache may grow without end
    caches = _package_caches()
    assert {c.__name__ for c in caches} >= {"partitions_of", "elementary", "monomial"}
    unbounded = [c.__name__ for c in caches if c.cache_info().maxsize is None]
    assert not unbounded, unbounded
    assert pt.partitions_of.cache_info().maxsize >= 4096
