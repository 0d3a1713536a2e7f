"""The four seeded workloads of the benchmark.

Each workload turns a seed into a fixed batch of ops.  An op has a ``run``
callable, which is the timed call into quivertex, and a ``check`` callable,
the oracle, which runs outside the timed region.  ``check`` raises
``Mismatch`` when the result is wrong and otherwise returns the number of
output terms, which the runner sums per batch.

The oracles test each result against an identity that does not go through
the timed code path: a Schubert class computed by Jacobi-Trudi, a
symmetric-Hecke chain against a rectangular Schur function, character
values from the Murnaghan-Nakayama rule, a CLI output parsed back through
``serialize``, and so on.

The seed draws the inputs, but each batch has a fixed shape (how many ops of
each kind, and of which size), so that the work per batch barely depends on
the seed.  ``small=True`` gives the minimal sizes used by the smoke test.
"""

import contextlib
import io
import json
import os
from fractions import Fraction
from functools import lru_cache
from math import factorial


class Mismatch(Exception):
    """An op's output failed its oracle."""


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _require(ok, what):
    if not ok:
        raise Mismatch(what)


# -- inputs and oracles that stay independent of the package -------------------


@lru_cache(maxsize=None)
def _partitions(n, max_part=None):
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    return tuple(
        (first,) + rest
        for first in range(max_part, 0, -1)
        for rest in _partitions(n - first, first)
    )


def _z(la):
    """prod_i i^{m_i} m_i!, the Hall norm of p_la."""
    out = 1
    for part in set(la):
        m = la.count(part)
        out *= part**m * factorial(m)
    return out


def _pair(f_terms, g_terms, alpha=1):
    """The alpha-deformed Hall pairing of two p-basis term maps."""
    return sum(
        (c * g_terms[la] * _z(la) * Fraction(alpha) ** len(la)
         for la, c in f_terms.items() if la in g_terms),
        Fraction(0),
    )


def _dominated(mu, la):
    """Whether mu <= la in dominance order (same size)."""
    a = b = 0
    for i in range(max(len(mu), len(la))):
        a += mu[i] if i < len(mu) else 0
        b += la[i] if i < len(la) else 0
        if a > b:
            return False
    return True


def _hook_dimension(la):
    """Number of standard Young tableaux of shape la (hook length formula)."""
    conj = [sum(1 for p in la if p > j) for j in range(la[0])] if la else []
    hooks = 1
    for i, p in enumerate(la):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(la)) // hooks


def _character(la, mu):
    """chi^la(mu) by the Murnaghan-Nakayama rule on beta-sets."""
    n = len(la)
    beta = frozenset(la[i] + (n - 1 - i) for i in range(n))

    @lru_cache(maxsize=None)
    def rec(beads, i):
        if i == len(mu):
            return 1
        r = mu[i]
        total = 0
        for b in beads:
            if b - r >= 0 and b - r not in beads:
                sign = -1 if sum(1 for c in beads if b - r < c < b) % 2 else 1
                total += sign * rec((beads - {b}) | {b - r}, i + 1)
        return total

    return rec(beta, 0)


def _rand_coeff(rng):
    return Fraction(rng.choice((1, 2, 3, -1, -2, -3)), rng.choice((1, 1, 1, 2, 3)))


def _rand_terms(rng, degree, count):
    """count random p-monomials of the given degree with nonzero coefficients."""
    parts = _partitions(degree)
    return {parts[rng.randrange(len(parts))]: _rand_coeff(rng) for _ in range(count)}


def _rational_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _cli_terms(rng, degree, count):
    """Random terms whose CLI text starts with a positive coefficient, so that
    argparse does not read the argument as an option."""
    terms = _rand_terms(rng, degree, count)
    if _text_order(terms)[0][1] < 0:
        terms = {la: -c for la, c in terms.items()}
    return terms


def _text_order(terms):
    return sorted(terms.items(), key=lambda kv: (kv[1] < 0, sum(kv[0]), kv[0]))


def _sym_text(terms):
    """Text for a p-basis term map in the syntax the CLI reads."""
    chunks = []
    for la, c in _text_order(terms):
        factors = []
        for part in sorted(set(la)):
            m = la.count(part)
            factors.append(f"p{part}" if m == 1 else f"p{part}^{m}")
        coeff = [] if factors and abs(c) == 1 else [_rational_text(abs(c))]
        body = "*".join(coeff + factors)
        if chunks:
            chunks.append(("+ " if c > 0 else "- ") + body)
        else:
            chunks.append(body if c > 0 else "-" + body)
    return " ".join(chunks)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _cycle(rng, values, count):
    """count values that use every entry of values equally often, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


# -- wallcross -------------------------------------------------------------------

LADDER = [(k, N) for N in range(0, 7) for k in range(0, N + 1)] + [(3, 7), (2, 8)]
SMALL_LADDER = [(k, N) for N in range(0, 4) for k in range(0, N + 1)]
Q_DIRECTION = (0, 1)
FIELD_COMPONENTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2))  # (N, k)


def build_wallcross(qx, rng, small):
    lv, gc = qx.latticeva, qx.grasscalc
    lattice = lv.grassmannian_lattice()
    ops = []
    for k, N in SMALL_LADDER if small else LADDER:
        ops.append(
            Op(
                f"wallcross k={k} N={N}",
                lambda k=k, N=N: gc.gr_class_wallcross(k, N),
                lambda res, k=k, N=N: _check_wallcross(qx, k, N, res),
            )
        )
    # States Q^N q^k (x) f with f = one p-monomial of the top Fock degree plus
    # one of lower degree.  Each component gets every top partition once.
    # Components with N - 2k > 1 are left out: their modes reach far higher
    # creation degrees, and a few of them would dominate the sweep.
    top = 3 if small else 5
    states = [(N, k, la) for N, k in FIELD_COMPONENTS for la in _partitions(top)]
    lower = _cycle(rng, range(top), len(states))
    for i, (N, k, la) in enumerate(_shuffled(rng, states)):
        parts = _partitions(lower[i])
        f_terms = {la: _rand_coeff(rng), parts[rng.randrange(len(parts))]: _rand_coeff(rng)}
        x = lv.VAElem(
            lattice,
            {((N, k), tuple((1, part) for part in la)): c for la, c in f_terms.items()},
        )
        ops.append(
            Op(
                f"field_mode N={N} k={k} f={_sym_text(f_terms)}",
                lambda x=x: [lv.field_mode(lattice, Q_DIRECTION, n, x) for n in range(-3, 3)],
                lambda res, N=N, k=k, f=f_terms: _check_field_modes(qx, N, k, f, res),
            )
        )
    return _shuffled(rng, ops)


def _check_wallcross(qx, k, N, res):
    want = qx.grasscalc.gr_class_schur(k, N)
    _require(res == want, f"wall-crossing class of Gr({k},{N}) differs from Schubert class")
    return len(res.f.terms)


def _check_field_modes(qx, N, k, f_terms, res):
    """Y(q, z) on Q^N q^k (x) f is (-1)^(N-k) z^(2k-N) H^sym(z) f."""
    sf, gc = qx.symfunc, qx.grasscalc
    f = sf.SymFunc(f_terms)
    sign = -1 if (N - k) % 2 else 1
    terms = 0
    for n, y in zip(range(-3, 3), res):
        got = {}
        for (alpha, fock), c in y.terms.items():
            _require(alpha == (N, k + 1), f"field mode left component ({N},{k + 1})")
            _require(all(i == 1 for i, _ in fock), "field mode left the q-direction")
            la = tuple(sorted((mode for _, mode in fock), reverse=True))
            got[la] = got.get(la, 0) + c
        want = gc.hecke_sym(N - 2 * k - 1 - n, f).scale(sign)
        _require(sf.SymFunc(got) == want, f"field mode n={n} differs from H^sym")
        terms += len(y.terms)
    return terms


# -- bases_cold ------------------------------------------------------------------

JACK_ALPHAS = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3))
HECKE_RECTANGLES = ((4, 3), (3, 4), (4, 4))
RECURSION_SHAPES = ((2, 14), (12, 14), (3, 11), (8, 11), (4, 10), (6, 10))


def build_bases_cold(qx, rng, small):
    sf, gc = qx.symfunc, qx.grasscalc
    ops = []
    for d in range(8, 10) if small else range(20, 26):
        parts = rng.choice((4, 5))
        la = rng.choice([mu for mu in _partitions(d) if len(mu) == parts])
        few_parts = [mu for mu in _partitions(d) if len(mu) <= 3]
        mus = [(d,)] + rng.sample(few_parts, 3)
        ops.append(
            Op(
                f"schur {la}",
                lambda la=la: sf.schur(la),
                lambda res, la=la, mus=mus: _check_schur(la, mus, res),
            )
        )
    for d in (5,) if small else (11, 11):
        f = sf.SymFunc(_rand_terms(rng, d, 3))
        ops.append(
            Op(
                f"monomial_expand deg={d}",
                lambda f=f: sf.monomial_expand(f),
                lambda res, f=f: _check_monomial_expand(qx, f, res),
            )
        )
    for d in (4,) if small else (7, 8):
        for alpha in JACK_ALPHAS:
            la = rng.choice(_partitions(d))
            ops.append(
                Op(
                    f"jack {la} alpha={alpha}",
                    lambda la=la, alpha=alpha: sf.jack(la, alpha),
                    lambda res, la=la, alpha=alpha: _check_jack(qx, la, alpha, res),
                )
            )
    for m, k in ((2, 2), (2, 1)) if small else HECKE_RECTANGLES:
        ops.append(
            Op(
                f"hecke_sym chain {m}x{k}",
                lambda m=m, k=k: _hecke_chain(qx, m, k),
                lambda res, m=m, k=k: _check_hecke_chain(qx, m, k, res),
            )
        )
    k, N = (2, 5) if small else rng.choice(RECURSION_SHAPES)
    norm = _rand_coeff(rng)
    ops.append(
        Op(
            f"integrals_by_recursion k={k} N={N}",
            lambda: gc.integrals_by_recursion(k, N, norm),
            lambda res: _check_recursion(qx, k, N, norm, res),
        )
    )
    return _shuffled(rng, ops)


def _check_schur(la, mus, res):
    """Coefficient of p_mu in s_la is chi^la(mu) / z_mu (Murnaghan-Nakayama)."""
    d = sum(la)
    _require(all(sum(mu) == d for mu in res.terms), f"s_{la} is not homogeneous")
    ones = (1,) * d
    _require(
        res.terms.get(ones, 0) == Fraction(_hook_dimension(la), factorial(d)),
        f"p_1^d coefficient of s_{la}",
    )
    for mu in mus:
        want = Fraction(_character(la, mu), _z(mu))
        _require(res.terms.get(mu, 0) == want, f"p_{mu} coefficient of s_{la}")
    return len(res.terms)


def _check_monomial_expand(qx, f, res):
    sf = qx.symfunc
    total = sf.SymFunc.zero()
    for la, c in res.items():
        total = total + sf.monomial(la).scale(c)
    _require(total == f, "monomial expansion does not re-sum to the input")
    return len(res)


def _check_jack(qx, la, alpha, res):
    """P_la = m_la + dominance-lower terms, alpha-orthogonal to every m_mu, mu <lex la."""
    sf = qx.symfunc
    coeffs = sf.monomial_expand(res)
    _require(coeffs.get(la) == 1, f"leading coefficient of P_{la} is not 1")
    _require(all(_dominated(mu, la) for mu in coeffs), f"P_{la} is not dominance-triangular")
    for mu in _partitions(sum(la)):
        if mu < la:
            _require(
                _pair(res.terms, sf.monomial(mu).terms, alpha) == 0,
                f"P_{la} is not alpha-orthogonal to m_{mu}",
            )
    return len(res.terms)


def _hecke_chain(qx, m, k):
    acc = qx.symfunc.SymFunc.one()
    for n in range(m + k - 1, m - k, -2):
        acc = qx.grasscalc.hecke_sym(n, acc)
    return acc


def _check_hecke_chain(qx, m, k, res):
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    want = qx.symfunc.schur((m,) * k).scale(sign * factorial(k))
    _require(res == want, f"H^sym chain {m}x{k} is not +-k! s_rect")
    return len(res.terms)


def _check_recursion(qx, k, N, norm, res):
    """<p_la, s_rect> scaled so that p_1^d takes the value norm."""
    d = k * (N - k)
    s_rect = qx.symfunc.schur((N - k,) * k).terms
    ones = (1,) * d
    scale = norm / (s_rect[ones] * _z(ones))
    _require(len(res) == len(_partitions(d)), "recursion missed partitions")
    for la, c in res.items():
        _require(c == scale * s_rect.get(la, 0) * _z(la), f"recursion value at {la}")
    return len(res)


# -- query_warm ------------------------------------------------------------------

BUILTIN_QUIVERS = ("beilinson_p2", "p1xp1", "kronecker(3)", "linear(2)")
QUERY_ALPHAS = ("2", "1/2", "3", "2/3", "1")
SINGULAR_BETA_SQ = ("2", "3", "5/2")

# Requests of each kind per batch of the full workload; 1000 in all.
QUERY_MIX = {
    "schur_p": 80, "schur_m": 80, "schur_s": 80, "hall": 80, "jack": 80,
    "gr_integral": 80, "gr_class": 80, "gr_constraints": 60, "gr_recursion": 80,
    "hecke": 60, "hecke_sym": 60, "cs": 60, "singular": 40, "euler": 80,
}
POOL_SIZE = 12  # distinct requests of each kind


def build_query_warm(qx, rng, small):
    cli, sz, qv = qx.cli, qx.serialize, qx.quiver
    paths = {}
    folder = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "quivers")
    os.makedirs(folder, exist_ok=True)
    for name in BUILTIN_QUIVERS:
        path = os.path.join(folder, name.replace("(", "_").replace(")", "") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sz.quiver_to_json(qv.builtin(name)), fh)
        paths[name] = path
    verified = {}
    ops = []
    for kind, count in QUERY_MIX.items():
        pool = [_query(kind, i, rng, paths) for i in range(POOL_SIZE)]
        for argv, oracle in _cycle(rng, pool, 2 if small else count):
            ops.append(
                Op(
                    " ".join(argv),
                    lambda argv=argv: _call_cli(cli, argv),
                    lambda res, argv=argv, oracle=oracle: _check_query(qx, verified, argv, oracle, res),
                )
            )
    return _shuffled(rng, ops)


def warm_query(ops):
    """Run every distinct request once, so that the timed batches see warm caches."""
    seen = set()
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            op.run()


def _call_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the request
            code = exc.code
    return code, buf.getvalue()


def _check_query(qx, verified, argv, oracle, res):
    code, out = res
    if argv in verified:
        _require((code, out) == verified[argv][0], f"`{' '.join(argv)}` changed its output")
        return verified[argv][1]
    _require(code == 0, f"`{' '.join(argv)}` exited {code}")
    terms = oracle(qx, out)
    verified[argv] = ((code, out), terms)
    return terms


def _query(kind, i, rng, paths):
    """Request i of the pool of the given kind: (argv tuple, oracle(qx, stdout) -> terms).

    The size of request i (a degree, a Grassmannian, a rectangle) runs
    through a fixed cycle, so that a pool costs the same whatever the seed.
    """
    if kind in ("schur_p", "schur_m", "schur_s"):
        la = rng.choice(_partitions(1 + i % 8))
        la_text = ",".join(map(str, la))
        if kind == "schur_p":
            return ("schur", la_text, "--basis", "p"), lambda qx, out: _same_symfunc(
                qx, out, qx.symfunc.schur(la))
        basis = "m" if kind == "schur_m" else "schur"
        return ("--json", "schur", la_text, "--basis", basis), lambda qx, out: _check_schur_basis(
            qx, out, la, basis)
    if kind == "hall":
        f = _cli_terms(rng, rng.randint(1, 6), 3)
        g = _cli_terms(rng, rng.randint(1, 6), 3)
        return ("hall", _sym_text(f), _sym_text(g)), lambda qx, out: _same_rational(
            qx, out, _pair(f, g))
    if kind == "jack":
        la = rng.choice(_partitions(1 + i % 6))
        alpha = rng.choice(QUERY_ALPHAS)
        return ("jack", ",".join(map(str, la)), alpha), lambda qx, out: _same_symfunc(
            qx, out, qx.symfunc.jack(la, Fraction(alpha)))
    if kind == "gr_integral":
        N = rng.randint(2, 6)
        k = rng.randint(1, N - 1)
        f = _cli_terms(rng, k * (N - k), 3)
        return ("gr-integral", str(k), str(N), _sym_text(f)), lambda qx, out: _same_rational(
            qx, out, _pair(qx.grasscalc.gr_class_schur(k, N).f.terms, f))
    if kind == "gr_class":
        N = rng.randint(1, 7)
        k = rng.randint(0, N)
        return ("--json", "gr-class", str(k), str(N), "--via", "schur"), lambda qx, out: _check_gr_class(
            qx, out, k, N)
    if kind == "gr_constraints":
        k, N = _grassmannian(rng, i, max_N=7)
        return ("gr-constraints", str(k), str(N)), _check_all_pass
    if kind == "gr_recursion":
        k, N = _grassmannian(rng, i, max_N=13, max_dim=12)
        norm = _rand_coeff(rng)
        return ("gr-recursion", str(k), str(N), f"--norm={_rational_text(norm)}"), (
            lambda qx, out: _check_recursion_text(qx, out, k, N, norm))
    if kind in ("hecke", "hecke_sym"):
        n = rng.randint(-3, 3)
        f = _cli_terms(rng, 1 + i % 5, 2)
        argv = ("hecke", str(n), _sym_text(f)) + (("--sym",) if kind == "hecke_sym" else ())
        op_name = "hecke_sym" if kind == "hecke_sym" else "hecke"
        return argv, lambda qx, out: _same_symfunc(
            qx, out, getattr(qx.grasscalc, op_name)(n, qx.symfunc.SymFunc(f)))
    if kind == "cs":
        f = _cli_terms(rng, 1 + i % 6, 2)
        return ("cs", _sym_text(f)), lambda qx, out: _same_symfunc(
            qx, out, qx.grasscalc.calogero_sutherland(qx.symfunc.SymFunc(f)))
    if kind == "singular":
        r, s = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2)][i % 8]
        return ("singular", str(r), str(s), rng.choice(SINGULAR_BETA_SQ)), _check_singular
    if kind == "euler":
        name = rng.choice(BUILTIN_QUIVERS)
        sym = rng.random() < 0.5
        n_vertices = {"beilinson_p2": 3, "p1xp1": 4, "kronecker(3)": 2, "linear(2)": 2}[name]
        d1 = [rng.randint(0, 4) for _ in range(n_vertices)]
        d2 = [rng.randint(0, 4) for _ in range(n_vertices)]
        argv = ("euler", paths[name], ",".join(map(str, d1)), ",".join(map(str, d2)))
        return argv + (("--sym",) if sym else ()), lambda qx, out: _check_euler(
            qx, out, name, d1, d2, sym)
    raise ValueError(f"unknown request kind {kind!r}")


def _grassmannian(rng, i, max_N, max_dim=None):
    """A seeded Gr(k,N), 0 < k < N <= max_N, whose dimension k(N-k) is the
    i-th (cyclically) of the dimensions that occur."""
    shapes = {}
    for N in range(2, max_N + 1):
        for k in range(1, N):
            if max_dim is None or k * (N - k) <= max_dim:
                shapes.setdefault(k * (N - k), []).append((k, N))
    dims = sorted(shapes)
    return rng.choice(shapes[dims[i % len(dims)]])


def _same_symfunc(qx, out, want):
    got = qx.serialize.symfunc_from_text(out)
    _require(got == want, "CLI symmetric function differs from the library value")
    return len(got.terms)


def _same_rational(qx, out, want):
    _require(qx.serialize.rational_from_text(out) == want, "CLI rational differs from the oracle")
    return 1


def _check_schur_basis(qx, out, la, basis):
    sz = qx.serialize
    got = {tuple(mu): sz.rational_from_json(c) for c, mu in json.loads(out)}
    if basis == "schur":
        _require(got == {la: 1}, f"s_{la} is not a Schur basis vector")
    else:
        _require(got.get(la) == 1, f"Kostka number K_{la},{la} is not 1")
        _require(all(_dominated(mu, la) for mu in got), f"s_{la} is not m-triangular")
        _require(got == qx.symfunc.monomial_expand(qx.symfunc.schur(la)), "m-expansion differs")
    return len(got)


def _check_gr_class(qx, out, k, N):
    got = qx.serialize.grelem_from_json(json.loads(out))
    _require(got == qx.grasscalc.gr_class_schur(k, N), f"class of Gr({k},{N}) differs")
    return len(got.f.terms)


def _check_all_pass(qx, out):
    lines = out.strip().splitlines()
    _require(lines and lines[-1] == "PASS overall", "constraint report does not pass")
    return len(lines)


def _check_singular(qx, out):
    lines = out.strip().splitlines()
    _require(lines and lines[0].startswith("PASS variant beta_sq/2"), "singular vector fails")
    return len(lines)


def _check_recursion_text(qx, out, k, N, norm):
    sz = qx.serialize
    d = k * (N - k)
    s_rect = qx.symfunc.schur((N - k,) * k).terms
    ones = (1,) * d
    scale = norm / (s_rect[ones] * _z(ones))
    lines = out.strip().splitlines()
    _require(len(lines) == len(_partitions(d)), "recursion output missed partitions")
    for line in lines:
        head, value = line.split(" = ")
        la = tuple(int(x) for x in head[2:-1].split(","))
        _require(sz.rational_from_text(value) == scale * s_rect.get(la, 0) * _z(la),
                 f"recursion value at {la}")
    return len(lines)


def _check_euler(qx, out, name, d1, d2, sym):
    arrows = qx.quiver.builtin(name).arrows
    vertices = qx.quiver.builtin(name).vertices
    idx = {v: i for i, v in enumerate(vertices)}

    def chi(a, b):
        total = sum(x * y for x, y in zip(a, b))
        for s, t, deg in arrows:
            total -= (1 if deg % 2 == 0 else -1) * a[idx[s]] * b[idx[t]]
        return total

    want = chi(d1, d2) + chi(d2, d1) if sym else chi(d1, d2)
    _require(int(out) == want, f"Euler form on {name} differs")
    return 1


# -- descendent_brackets ---------------------------------------------------------

FRAMED_QUIVERS = ("beilinson_p2", "kronecker(3)")


def _rand_monomial(dc, rng, quiver, weight):
    """A monomial in the ch_k(v) with total ch-index exactly weight and 1-3 factors."""
    factors = rng.randint(1, 3)
    cuts = sorted(rng.randint(0, weight) for _ in range(factors - 1))
    ks = [b - a for a, b in zip([0] + cuts, cuts + [weight])]
    return dc.DescendentPoly({tuple(sorted((k, rng.choice(quiver.vertices)) for k in ks)): 1})


def build_descendent_brackets(qx, rng, small):
    dc, qv = qx.descendent, qx.quiver
    quivers = {name: qv.builtin(name) for name in BUILTIN_QUIVERS}
    modes = range(-1, 2) if small else range(-1, 4)
    brackets = [(name, n, m) for name in BUILTIN_QUIVERS for n in modes for m in modes]
    framed_modes = range(0, 2) if small else range(0, 4)
    framed = [(name, n, m) for name in FRAMED_QUIVERS for n in framed_modes for m in framed_modes]
    kernel = [name for name in BUILTIN_QUIVERS for _ in range(1 if small else 5)]
    max_weight = 3 if small else 6
    weights = _cycle(rng, range(max_weight + 1), len(brackets) + len(framed))
    ops = []
    for i, (name, n, m) in enumerate(brackets):
        q = quivers[name]
        f = _rand_monomial(dc, rng, q, weights[i])
        ops.append(
            Op(
                f"bracket {name} n={n} m={m}",
                lambda q=q, n=n, m=m, f=f: _bracket_terms(
                    lambda j, g: dc.l_op(q, j, g), n, m, f),
                lambda res, n=n, m=m: _check_bracket(qx, n, m, res),
            )
        )
    for i, (name, n, m) in enumerate(framed, start=len(brackets)):
        q = quivers[name]
        framing = qv.FramingVector(q, [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in q.vertices[1:]])
        f = _rand_monomial(dc, rng, q, weights[i])
        ops.append(
            Op(
                f"framed bracket {name} n={n} m={m}",
                lambda q=q, framing=framing, n=n, m=m, f=f: _bracket_terms(
                    lambda j, g: dc.l_op_framed(q, framing, j, g), n, m, f),
                lambda res, n=n, m=m: _check_bracket(qx, n, m, res),
            )
        )
    kernel_weights = _cycle(rng, range(max_weight - 1), len(kernel))
    for name, w in zip(_shuffled(rng, kernel), kernel_weights):
        q = quivers[name]
        f = _rand_monomial(dc, rng, q, w)
        dims = {v: rng.randint(0, 3) for v in q.vertices}
        ops.append(
            Op(
                f"l_wt0 kernel {name} weight={w}",
                lambda q=q, f=f: dc.l_wt0(q, f),
                lambda res, q=q, dims=dims: _check_kernel(qx, q, dims, res),
            )
        )
    return _shuffled(rng, ops)


def _bracket_terms(op, n, m, f):
    """L_n L_m f, L_m L_n f and L_{n+m} f (None when n + m < -1)."""
    return op(n, op(m, f)), op(m, op(n, f)), (op(n + m, f) if n + m >= -1 else None)


def _check_bracket(qx, n, m, res):
    """[L_n, L_m] = (m - n) L_{n+m}: the residual must vanish."""
    nm, mn, total = res
    residual = nm - mn
    if total is not None:
        residual = residual - total.scale(m - n)
    _require(not residual, f"[L_{n}, L_{m}] residual has {len(residual.terms)} terms")
    return len(nm.terms) + len(mn.terms) + (len(total.terms) if total is not None else 0)


def _check_kernel(qx, quiver, dims, res):
    image = qx.descendent.r_op(quiver, -1, res)
    _require(not image.substitute_ch0(dims), "R_{-1} l_wt0(f) is nonzero")
    return len(res.terms)


# -- registry ----------------------------------------------------------------------


class Workload:
    __slots__ = ("name", "build", "warm", "cold")

    def __init__(self, name, build, warm=None, cold=False):
        self.name = name
        self.build = build
        self.warm = warm  # run once at setup, after the inputs are built
        self.cold = cold  # empty every package cache before each op


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wallcross", build_wallcross),
        Workload("bases_cold", build_bases_cold, cold=True),
        Workload("query_warm", build_query_warm, warm=warm_query),
        Workload("descendent_brackets", build_descendent_brackets),
    )
}
