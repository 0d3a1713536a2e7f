"""The translation kernel against the per-partition vertex-operator exponentials.

The reference implementations below expand each exponential over every
partition mu of m and apply annihilators or creators one part at a time.
They share no code with ``partitions.translate_codes``, which the library's
field modes and Hecke operators use, so they are an independent oracle.
The coded wall-crossing chain is checked against its definition, one
``field_mode`` per bracket.
"""

import random
from fractions import Fraction
from math import factorial, prod

from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import partitions as pt
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex.checks import _random_symfunc, _random_vaelem
from quivertex.lincomb import add_to
from quivertex.symfunc import SymFunc

from fraction_reference import add_all, like


def ref_exp_annihilation(lattice, alpha, m, x):
    """z^{-m} coefficient of exp(-sum_{k>0} alpha_(k)/k z^{-k}) applied to x."""
    out = {}
    for mu in pt.partitions_of(m):
        piece = x
        for part in mu:
            piece = lv.annihilate_mode(lattice, alpha, part, piece)
            if not piece:
                break
        if piece:
            sign = -1 if pt.length(mu) % 2 else 1
            add_all(out, piece.terms, Fraction(sign, 1) / pt.z_factor(mu))
    return like(x, out)


def ref_exp_creation(lattice, alpha, p, x):
    """z^{p} coefficient of exp(sum_{j>0} alpha_(-j)/j z^{j}) applied to x."""
    out = {}
    for nu in pt.partitions_of(p):
        piece = x
        for part in nu:
            piece = lv.create(lattice, alpha, part, piece)
            if not piece:
                break
        if piece:
            add_all(out, piece.terms, Fraction(1) / pt.z_factor(nu))
    return like(x, out)


def ref_field_mode(lattice, alpha, n, x):
    """Coefficient of z^{-1-n} in Y(e^alpha, z) x, term by term and part by part."""
    out = {}
    for (beta, fock), c in x.terms.items():
        sign = -1 if lattice.sign_exponent(alpha, beta) % 2 else 1
        shift = lattice.pairing(alpha, beta)
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        base = like(x, {(beta, fock): c * sign})
        for m in range(0, sum(k for _, k in fock) + 1):
            annihilated = ref_exp_annihilation(lattice, alpha, m, base)
            p = m - 1 - n - shift
            if not annihilated or p < 0:
                continue
            for (_, w), cc in ref_exp_creation(lattice, alpha, p, annihilated).terms.items():
                add_to(out, (gamma, w), cc)
    return like(x, out)


def ref_hecke(n, f):
    """H_n = sum_{j>=0} (-1)^j h_{j+n} e_j^perp, truncated at j <= deg(f)."""
    out = {}
    for j in range(0, f.degree() + 1):
        if j + n < 0:
            continue
        skewed = sf.skew_by(sf.elementary(j), f)
        if skewed:
            add_all(out, (sf.complete(j + n) * skewed).terms, 1 if j % 2 == 0 else -1)
    return SymFunc._wrap(out)


def ref_hecke_sym(n, f):
    """Mode n of exp(sum p_j/j z^j) exp(-sum 2 p_{-j}/j z^{-j}), skewing by
    sum_{mu |- m} (-2)^{ell(mu)} p_mu / z_mu."""
    out = {}
    for m in range(0, f.degree() + 1):
        if n + m < 0:
            continue
        series = SymFunc(
            {mu: Fraction((-2) ** pt.length(mu)) / pt.z_factor(mu) for mu in pt.partitions_of(m)}
        )
        piece = sf.skew_by(series, f)
        if piece:
            add_all(out, (sf.complete(n + m) * piece).terms)
    return SymFunc._wrap(out)


def _random_lattice(rng, rank=None, signed=False):
    """The given rank, else one of 1..3, with a random integral sign datum b, not zero
    if signed, and B = b + b^T."""
    rank = rng.randint(1, 3) if rank is None else rank
    while True:
        b = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rank)]
        if any(map(any, b)) or not signed:
            break
    B = [[b[i][j] + b[j][i] for j in range(rank)] for i in range(rank)]
    return lv.Lattice(B, b)


def _creation_degree(lattice, alpha, n, x):
    return max(
        sum(k for _, k in fock) - 1 - n - lattice.pairing(alpha, beta)
        for beta, fock in x.terms
    )


def test_field_mode_matches_partition_exponentials():
    rng = random.Random(211)
    done = nontrivial = 0
    while done < 60:
        lat = _random_lattice(rng)
        alpha = tuple(rng.randint(-1, 1) for _ in range(lat.rank))
        n = rng.randint(-4, 3)
        x = _random_vaelem(lat, rng, max_fock=5)
        # the reference enumerates the partitions of the creation degree
        if not x or _creation_degree(lat, alpha, n, x) > 10:
            continue
        got = lv.field_mode(lat, alpha, n, x)
        assert got == ref_field_mode(lat, alpha, n, x), (lat, alpha, n, x)
        done += 1
        nontrivial += bool(got) and any(any(r) for r in lat.b)
    assert nontrivial >= 20


def _random_fock(lat, rng, budget):
    fock = []
    while budget > 0:
        k = rng.randint(1, budget)
        fock.append((rng.randrange(lat.rank), k))
        budget -= k
    return tuple(sorted(fock))


def test_field_mode_sums_over_lattice_components():
    rng = random.Random(227)
    done = nontrivial = 0
    while done < 30:
        lat = _random_lattice(rng, rng.choice((2, 3)), signed=True)
        alpha = tuple(rng.randint(-1, 1) for _ in range(lat.rank))
        weights = [lat.pairing(alpha, lat.basis_vector(i)) for i in range(lat.rank)]
        i, j = rng.sample(range(lat.rank), 2)
        if not (weights[i] and weights[j]):
            continue
        # on e^beta, w_j (e_i)_{-k} - w_i (e_j)_{-k} translates to itself plus z^{-k} times
        # -w_j w_i + w_i w_j = 0; a shift 1 + n + B(alpha, beta) in 1..k drops the rest, so
        # every bucket of beta cancels
        beta = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        k = rng.randint(1, 3)
        n = rng.randint(1, k) - 1 - lat.pairing(alpha, beta)
        parts = [lv.VAElem(lat, {(beta, ((i, k),)): weights[j], (beta, ((j, k),)): -weights[i]})]
        components = {beta}
        while len(parts) < 3 + rng.randint(0, 1):
            gamma = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
            if gamma not in components:
                components.add(gamma)
                focks = {_random_fock(lat, rng, rng.randint(0, 4)) for _ in range(rng.randint(1, 3))}
                parts.append(lv.VAElem(lat, {(gamma, f): rng.randint(-3, 3) or 1 for f in focks}))
        x = parts[0]
        for part in parts[1:]:
            x = x + part
        if _creation_degree(lat, alpha, n, x) > 10:
            continue
        assert not lv.field_mode(lat, alpha, n, parts[0])
        got = lv.field_mode(lat, alpha, n, x)
        summed = lv.field_mode(lat, alpha, n, parts[1])
        for part in parts[2:]:
            summed = summed + lv.field_mode(lat, alpha, n, part)
        assert got == summed == ref_field_mode(lat, alpha, n, x), (lat, alpha, n, x)
        done += 1
        nontrivial += bool(got)
    assert nontrivial >= 20


def test_translation_entries_are_distinct_and_match_partition_exponentials():
    rng = random.Random(229)
    for _ in range(60):
        lat = _random_lattice(rng, rng.choice((2, 3)), signed=True)
        alpha = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        row = tuple(lat.pairing(alpha, lat.basis_vector(i)) for i in range(lat.rank))
        beta = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        fock = _random_fock(lat, rng, rng.randint(0, 6))
        degree = sum(k for _, k in fock)
        weights = pt.code_weights(degree, lat.rank)
        pieces = pt.translate_codes(pt.encode([(fock, 1)], weights, lat.rank), weights, row)
        assert all(0 <= m <= degree for m in pieces)
        x = lv.VAElem(lat, {(beta, fock): 1})
        for m in range(degree + 1):
            piece = pieces.get(m, [])
            assert len({code for code, _ in piece}) == len(piece), fock
            kept = pt.decode(piece, weights, lat.rank)
            got = lv.VAElem(lat, {(beta, k): c for k, c in kept})
            assert got == ref_exp_annihilation(lat, alpha, m, x), (lat, alpha, fock, m)


def test_grassmannian_brackets_match_partition_exponentials():
    lat = lv.grassmannian_lattice()
    for N in range(0, 6):
        x = lv.VAElem.group_element(lat, (N, 0))
        for _ in range(N // 2 + 1):
            want = ref_field_mode(lat, (0, 1), 0, x)
            assert lv.field_mode(lat, (0, 1), 0, x) == want, N
            x = want


def test_hecke_matches_skew_forms():
    rng = random.Random(223)
    for _ in range(300):
        f = _random_symfunc(rng, 8)
        n = rng.randint(-6, 4)
        assert gc.hecke(n, f) == ref_hecke(n, f), (n, f)
        assert gc.hecke_sym(n, f) == ref_hecke_sym(n, f), (n, f)


def _bracket_by_bracket(lattice, alpha, steps, died=None):
    """The wall-crossing chain by its definition: e^alpha, then for each (i, c) of steps
    c brackets e^{e_i}_(0) = field_mode(lattice, e_i, 0, .), scaled by (-1)^{sum c} / prod c!.
    Adds to died "degree" or "cancelled" when a nonzero state dies before the last bracket,
    by its Fock degree falling below 0 or by its terms cancelling."""
    x = lv.VAElem.group_element(lattice, alpha)
    brackets = [lattice.basis_vector(i) for i, count in steps for _ in range(count)]
    for j, e in enumerate(brackets):
        before, x = x, lv.field_mode(lattice, e, 0, x)
        if before and not x and j + 1 < len(brackets) and died is not None:
            beta = next(iter(before.nums))[0]
            fell = before.fock_degree() < 1 + lattice.pairing(e, beta)
            died.add("degree" if fell else "cancelled")
    signs = (-1) ** sum(count for _, count in steps)
    return x.scale(Fraction(signs, prod(factorial(count) for _, count in steps)))


def _planned_top(lattice, alpha, steps):
    """The largest Fock degree the chain passes through while it is not yet zero: a
    bracket with e_i on beta takes degree D to D - 1 - B(e_i, beta)."""
    beta, degree, top = tuple(alpha), 0, 0
    for i, count in steps:
        e = lattice.basis_vector(i)
        for _ in range(count):
            degree -= 1 + lattice.pairing(e, beta)
            if degree < 0:
                return top
            beta, top = tuple(map(sum, zip(beta, e))), max(top, degree)
    return top


def _random_framed_quiver(rng):
    """A dg quiver on 1..3 vertices, listed in random order, with 0..2 arrows of each
    degree 0 and -1 from each vertex to each later one; a framing, not zero; and d."""
    names = [str(i) for i in range(rng.randint(1, 3))]
    arrows = [
        (v, w, deg)
        for i, v in enumerate(names)
        for w in names[i + 1 :]
        for deg in (0, -1)
        for _ in range(rng.randint(0, 2))
    ]
    rng.shuffle(names)
    f = [0] * len(names)
    while not any(f):
        f = [rng.randint(0, 3) for _ in names]
    return qv.DgQuiver(names, arrows), f, [rng.randint(0, 3) for _ in names]


def test_wall_crossing_chain_matches_bracket_by_bracket():
    rng = random.Random(227)
    seen, died = set(), set()
    done = 0
    while done < 300:
        quiver, f, d = _random_framed_quiver(rng)
        lat = gc.framed_lattice(quiver, f)
        alpha = lat.basis_vector(0)
        index = [quiver.vertex_index(v) for v in quiver.topological_order]
        steps = [(1 + i, d[i]) for i in index]
        # the references run each bracket on its own; keep their Fock degrees small
        if _planned_top(lat, alpha, steps) > 8:
            continue
        got = gc.framed_class(quiver, f, d)
        want = _bracket_by_bracket(lat, alpha, steps, died)
        assert (got.den, got.nums) == (want.den, want.nums), (quiver, f, d)
        assert got.lattice == lat
        seen.add("nonzero" if got else "zero")
        if 0 in d:
            seen.add("count 0")
        done += 1
    assert seen == {"nonzero", "zero", "count 0"}, seen
    assert died == {"degree", "cancelled"}, died


def test_framed_class_dies_midway_as_bracket_by_bracket():
    # Gr(3, 2) is empty: its third bracket leaves Fock degree -3; on linear(2) one more
    # bracket, at the second vertex, acts on the zero state
    for name, f, d, dies in [("linear(1)", [2], [3], set()), ("linear(2)", [2, 0], [3, 1], {"degree"})]:
        quiver, died = qv.builtin(name), set()
        lattice = gc.framed_lattice(quiver, f)
        steps = [(1 + i, count) for i, count in enumerate(d)]
        want = _bracket_by_bracket(lattice, lattice.basis_vector(0), steps, died)
        got = gc.framed_class(quiver, f, d)
        assert (got.den, got.nums) == (want.den, want.nums) == (1, {}), name
        assert died == dies, name


def test_a_framed_class_decodes_once(monkeypatch):
    calls = []
    decode = pt.decode
    monkeypatch.setattr(pt, "decode", lambda *args: calls.append(args) or decode(*args))
    got = gc.framed_class(qv.builtin("linear(3)"), [3, 0, 0], [2, 2, 1])
    assert got and len(calls) == 1
