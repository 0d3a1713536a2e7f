"""Named identity suites behind the CLI selftest and the acceptance tests.

Each check runs one family of exact identities at its stated bounds as
(label, residual) pairs, and ``_verdict`` turns them into the one report form
{"name", "ok", "detail"}.  The fast suite covers every module
invariant; the full suite adds the heavier end-to-end computations
(wall-crossing vs Schubert classes up to N = 8, constraints up to N = 7,
the Jack singular-vector grid, and the descendent-integral goldens).

The Virasoro brackets and the Hecke identities are stated once, as functions
returning the residual lhs - rhs on given inputs, which the checks, the acceptance
criteria and ``virasoro-bracket`` call.  A failing check names a non-zero residual.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial, prod

from . import descendent as dc
from . import grasscalc as gc
from . import latticeva as lv
from . import partitions as pt
from . import quiver as qv
from . import symfunc as sf
from .symfunc import SymFunc


F = Fraction


def _verdict(name, cases, detail=""):
    """The report {"name", "ok", "detail"} on (label, residual) pairs: pass with
    detail when every residual vanishes, else fail naming the first label and its
    residual's leading term (sorted_terms()[0] of an element, the smallest item of
    a coefficient map as reduce_cohomology returns, else the value itself)."""
    for label, residual in cases:
        if residual:
            if hasattr(residual, "sorted_terms"):
                residual = "{1} * {0}".format(*residual.sorted_terms()[0])
            elif isinstance(residual, dict):
                residual = "{1} * {0}".format(*min(residual.items()))
            return {"name": name, "ok": False, "detail": f"{label}: residual {residual}"}
    return {"name": name, "ok": True, "detail": detail}


def bracket_residual(op, n, m, x, sign=1):
    """[op_n, op_m] x - sign (m - n) op_{n+m} x, the last term dropped for n + m < -1.

    sign is 1 for [L_n, L_m] = (m - n) L_{n+m} (the descendent convention) and
    -1 for (n - m) L_{n+m} (the lattice vertex algebra).
    """
    lhs = op(n, op(m, x)) - op(m, op(n, x))
    return lhs - op(n + m, x).scale(sign * (m - n)) if n + m >= -1 else lhs


def _random_symfunc(rng, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(0, max_deg)
        parts = pt.partitions_of(d)
        terms[parts[rng.randrange(len(parts))]] = F(rng.randint(-3, 3) or 1)
    return SymFunc(terms)


def _random_monomial(rng, quiver, max_weight):
    factors = []
    weight = 0
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max(0, max_weight - weight))
        weight += k
        factors.append((k, rng.choice(quiver.vertices)))
    return dc.DescendentPoly({tuple(sorted(factors)): 1})


def _random_vaelem(lat, rng, max_fock=5):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        fock = []
        budget = rng.randint(0, max_fock)
        while budget > 0:
            k = rng.randint(1, budget)
            fock.append((rng.randrange(lat.rank), k))
            budget -= k
        terms[(alpha, tuple(sorted(fock)))] = F(rng.randint(-3, 3) or 1)
    return lv.VAElem(lat, terms)


# -- symfunc ------------------------------------------------------------------


def check_schur_orthonormality(max_deg=8):
    cases = (
        (f"{la},{mu}", sf.hall(sf.schur(la), sf.schur(mu)) - (la == mu))
        for d in range(max_deg + 1)
        for la, mu in product(pt.partitions_of(d), repeat=2)
    )
    return _verdict("schur_orthonormality", cases, f"all |la| <= {max_deg}")


def check_annihilation_adjoint(max_deg=8, max_n=8, samples=30):
    def cases():
        rng = random.Random(101)
        for _ in range(samples):
            n = rng.randint(1, max_n)
            f = _random_symfunc(rng, max_deg)
            g = _random_symfunc(rng, max_deg)
            yield f"n={n}", sf.hall(SymFunc.p(n) * f, g) - sf.hall(f, sf.annihilate(n, g))

    return _verdict("annihilation_adjoint", cases(), f"{samples} samples, deg <= {max_deg}")


def check_newton_series_inverse(max_deg=10):
    def cases():
        for d in range(1, max_deg + 1):
            # e_0 h_d = h_d starts the sum of (-1)^j e_j h_{d-j}
            terms = (
                (sf.elementary(j) * sf.complete(d - j)).scale((-1) ** j) for j in range(1, d + 1)
            )
            yield f"degree {d}", sum(terms, sf.complete(d))

    return _verdict("newton_series_inverse", cases(), f"degrees 1..{max_deg}")


def check_involution_on_schur(max_deg=8):
    cases = (
        (f"{la}", sf.involution(sf.schur(la)) - sf.schur(pt.conjugate(la)))
        for d in range(max_deg + 1)
        for la in pt.partitions_of(d)
    )
    return _verdict("involution_on_schur", cases, f"all |la| <= {max_deg}")


def check_jack_at_one(max_deg=6):
    def cases():
        for d in range(1, max_deg + 1):
            for la in pt.partitions_of(d):
                j, s = sf.jack(la, F(1)), sf.schur(la)
                yield f"{la}", j - s.scale(sf.hall(j, s))  # j itself when <j, s> = 0

    return _verdict("jack_at_one_is_schur", cases(), f"all |la| <= {max_deg}")


def check_schur_monomial_triangularity(max_deg=8):
    def cases():
        for d in range(1, max_deg + 1):
            for la in pt.partitions_of(d):
                coeffs = sf.monomial_expand(sf.schur(la))
                yield f"{la} coefficient of m_{la}", coeffs.get(la, 0) - 1
                for mu, c in coeffs.items():
                    if mu > la:
                        yield f"{la} coefficient of m_{mu}", c

    return _verdict("schur_monomial_triangularity", cases(), f"all |la| <= {max_deg}")


# -- quiver ---------------------------------------------------------------------


def check_euler_bilinearity(samples=30):
    def cases():
        rng = random.Random(103)
        q = qv.builtin("p1xp1")
        euler = partial(qv.euler_form, q)
        for _ in range(samples):
            u, v, w = (
                qv.DimVector(q, [rng.randint(-5, 5) for _ in q.vertices]) for _ in range(3)
            )
            uv = qv.DimVector(q, [a + b for a, b in zip(u.values, v.values)])
            label = f"u={u.values} v={v.values} w={w.values}"
            yield f"left argument {label}", euler(uv, w) - euler(u, w) - euler(v, w)
            yield f"right argument {label}", euler(w, uv) - euler(w, u) - euler(w, v)

    return _verdict("euler_bilinearity", cases(), f"{samples} samples on p1xp1")


def check_euler_triangularity():
    # unitriangular: entry (i,j), j <= i, is 1 on the diagonal and 0 below it
    cases = (
        (f"{name} entry ({i},{j})", x - (i == j))
        for name in ("linear(4)", "kronecker(3)")
        for i, row in enumerate(qv.euler_matrix(qv.builtin(name)))
        for j, x in enumerate(row[: i + 1])
    )
    return _verdict("euler_triangularity", cases, "linear(4), kronecker(3)")


def check_euler_sym_symmetry(samples=20):
    def cases():
        rng = random.Random(107)
        q = qv.builtin("beilinson_p2")
        for _ in range(samples):
            d1 = qv.DimVector(q, [rng.randint(-5, 5) for _ in q.vertices])
            d2 = qv.DimVector(q, [rng.randint(-5, 5) for _ in q.vertices])
            residual = qv.euler_sym(q, d1, d2) - qv.euler_sym(q, d2, d1)
            yield f"d1={d1.values} d2={d2.values}", residual

    return _verdict("euler_sym_symmetry", cases(), f"{samples} samples on beilinson_p2")


def check_framed_quiver_euler(samples=20):
    def cases():
        rng = random.Random(109)
        base = qv.builtin("linear(2)")
        f = qv.FramingVector(base, [2, 1])
        qf = qv.framed_quiver(base, f)
        yield "framing arrows of nonzero degree", [a for a in qf.arrows if a[2]]
        for _ in range(samples):
            d1 = [rng.randint(-3, 3) for _ in base.vertices]
            d2 = [rng.randint(-3, 3) for _ in base.vertices]
            framed = qv.euler_form(qf, qv.DimVector(qf, [0] + d1), qv.DimVector(qf, [0] + d2))
            plain = qv.euler_form(base, qv.DimVector(base, d1), qv.DimVector(base, d2))
            yield f"restriction d1={d1} d2={d2}", framed - plain
            lhs = qv.euler_form(qf, qv.DimVector(qf, [1] + d1), qv.DimVector(qf, [0] + d2))
            rhs = qv.framed_euler(base, f, qv.DimVector(base, d1), qv.DimVector(base, d2))
            yield f"framed pairing d1={d1} d2={d2}", lhs - rhs

    return _verdict("framed_quiver_euler", cases(), f"{samples} samples")


# -- descendent -------------------------------------------------------------------


def check_descendent_virasoro_bracket(max_weight=6):
    def cases():
        rng = random.Random(127)
        for name in ("linear(1)", "beilinson_p2"):
            quiver = qv.builtin(name)
            monos = [_random_monomial(rng, quiver, max_weight) for _ in range(4)]
            for n, m, f in product(range(-1, 4), range(-1, 4), monos):
                yield f"{name} n={n} m={m}", bracket_residual(partial(dc.l_op, quiver), n, m, f)

    return _verdict("descendent_virasoro_bracket", cases(), "A_1 and beilinson_p2")


def check_framed_virasoro_bracket(max_weight=6):
    rng = random.Random(131)
    quiver = qv.builtin("beilinson_p2")
    framing = qv.FramingVector(quiver, [2, 0, 1])
    monos = [_random_monomial(rng, quiver, max_weight) for _ in range(4)]
    op = partial(dc.l_op_framed, quiver, framing)
    cases = (
        (f"n={n} m={m}", bracket_residual(op, n, m, f))
        for n, m, f in product(range(0, 4), range(0, 4), monos)
    )
    return _verdict("framed_virasoro_bracket", cases, "beilinson_p2, 0 <= n,m <= 3")


def check_r_derivation(samples=20):
    def cases():
        rng = random.Random(137)
        quiver = qv.builtin("beilinson_p2")
        for _ in range(samples):
            n = rng.randint(-1, 3)
            f = _random_monomial(rng, quiver, 5)
            g = _random_monomial(rng, quiver, 5)
            lhs = dc.r_op(quiver, n, f * g)
            yield f"n={n}", lhs - dc.r_op(quiver, n, f) * g - f * dc.r_op(quiver, n, g)

    return _verdict("r_op_derivation", cases(), f"{samples} samples")


def check_l_wt0_kernel(samples=10):
    def cases():
        rng = random.Random(139)
        for name in ("linear(1)", "beilinson_p2"):
            quiver = qv.builtin(name)
            for _ in range(samples):
                f = _random_monomial(rng, quiver, 4)
                yield name, dc.r_op(quiver, -1, dc.l_wt0(quiver, f))

    return _verdict("l_wt0_kernel", cases(), "A_1 and beilinson_p2, weight <= 4")


def check_framed_matches_dual_virasoro(max_n=4, max_deg=6):
    def cases():
        rng = random.Random(149)
        a1 = qv.builtin("linear(1)")
        for N, k, n in product((2, 4), (0, 1, 3), range(0, max_n + 1)):
            framing = qv.FramingVector(a1, [N])
            for _ in range(3):
                f = _random_symfunc(rng, max_deg)
                # p_la = prod_i la_i! ch_{la_i}; the monomial ascends, so it reads la reversed
                poly = f._map(
                    lambda la: [
                        (tuple((part, "1") for part in reversed(la)), prod(map(factorial, la)))
                    ],
                    like=dc.DescendentPoly(),
                )
                got = dc.to_symfunc(dc.l_op_framed(a1, framing, n, poly), k)
                yield f"N={N} k={k} n={n}", got - gc.gr_virasoro_dual(n, N, k, f)

    return _verdict("framed_matches_dual_virasoro", cases(), f"n <= {max_n}, deg <= {max_deg}")


# -- latticeva ---------------------------------------------------------------------


def check_lattice_virasoro_bracket(max_fock=5):
    def cases():
        rng = random.Random(151)
        degenerate = lv.Lattice(B=[[2, 2], [2, 2]], b=[[1, 2], [0, 1]])
        for lat in (gc.framed_lattice(qv.builtin("linear(1)"), (1,)), degenerate):
            elems = [_random_vaelem(lat, rng, max_fock) for _ in range(3)]
            for n, m, x in product(range(-1, 4), range(-1, 4), elems):
                yield f"n={n} m={m}", bracket_residual(partial(lv.virasoro, lat), n, m, x, sign=-1)

    return _verdict("lattice_virasoro_bracket", cases(), "grassmannian and degenerate rank 2")


def check_field_translation_covariance():
    def cases():
        rng = random.Random(157)
        lat = gc.framed_lattice(qv.builtin("linear(1)"), (1,))
        alpha = (0, 1)
        for _ in range(4):
            x = _random_vaelem(lat, rng, max_fock=3)
            for n in range(-3, 3):
                lhs = lv.translate(lat, lv.field_mode(lat, alpha, n, x))
                rhs = lv.field_mode(lat, alpha, n, lv.translate(lat, x)) - lv.field_mode(
                    lat, alpha, n - 1, x
                ).scale(n)
                yield f"n={n}", lhs - rhs

    return _verdict("field_translation_covariance", cases(), "q-field on the Gr lattice")


def check_lattice_annihilation_dictionary(max_deg=6):
    def cases():
        lat = lv.Lattice(B=[[2]], b=[[1]])  # (Z, 2), the symmetrized form of linear(1)
        for d in range(1, max_deg + 1):
            for la in pt.partitions_of(d):
                x = lv.VAElem(lat, {((0,), tuple((0, part) for part in la)): 1})
                for n in range(1, d + 1):
                    lhs = lv.annihilate_mode(lat, (1,), n, x)
                    target = sf.annihilate(n, SymFunc.p_monomial(la)).scale(2)
                    rhs = target._map(
                        lambda mu: [(((0,), tuple((0, part) for part in reversed(mu))), 1)],
                        like=lv.VAElem(lat),
                    )
                    yield f"{la} n={n}", lhs - rhs

    return _verdict("lattice_annihilation_dictionary", cases(), f"deg <= {max_deg} on (Z,2)")


def check_vacuum_field_identity():
    def cases():
        rng = random.Random(163)
        lat = gc.framed_lattice(qv.builtin("linear(1)"), (1,))
        for _ in range(4):
            x = _random_vaelem(lat, rng, 4)
            for n in range(-3, 3):
                expected = x if n == -1 else lv.VAElem(lat)
                yield f"n={n}", lv.field_mode(lat, lat.zero(), n, x) - expected

    return _verdict("vacuum_field_identity", cases(), "")


# -- grasscalc ----------------------------------------------------------------------


def hecke_p_commutator(n, m, f):
    """Identity (1), [H_n, p_m] = -H_{n+m} for m != 0 (p_m, m < 0, annihilates)."""
    if m > 0:
        comm = gc.hecke(n, SymFunc.p(m) * f) - SymFunc.p(m) * gc.hecke(n, f)
    else:
        comm = gc.hecke(n, sf.annihilate(-m, f)) - sf.annihilate(-m, gc.hecke(n, f))
    return comm + gc.hecke(n + m, f)


def hecke_adjoint(n, f, g):
    """Identity (2), H_n^perp = (-1)^n sigma H_{-n} sigma: <H_n f, g> - <f, H_n^perp g>."""
    adj = sf.involution(gc.hecke(-n, sf.involution(g))).scale(-1 if n % 2 else 1)
    return sf.hall(gc.hecke(n, f), g) - sf.hall(f, adj)


def hecke_braid(n, m, f):
    """Identity (3), H_n H_m = -H_{m-1} H_{n+1}; so H_n H_{n+1} = 0."""
    return gc.hecke(n, gc.hecke(m, f)) + gc.hecke(m - 1, gc.hecke(n + 1, f))


def hecke_schur_chain(la):
    """Identity (4), s_la = H_la1 ... H_lal (1)."""
    acc = SymFunc.one()
    for part in reversed(la):
        acc = gc.hecke(part, acc)
    return acc - sf.schur(la)


def hecke_sym_rectangle(m, k):
    """Prop 7.5, H^sym_{m-k+1} ... H^sym_{m+k-1} (1) = (-1)^{k(k-1)/2} k! s_{m^k}."""
    acc = SymFunc.one()
    for n in range(m + k - 1, m - k, -2):
        acc = gc.hecke_sym(n, acc)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    return acc - sf.schur(pt.rectangle(m, k)).scale(sign * factorial(k))


def dual_virasoro_hecke_commutator(n, m, f):
    """Prop 7.9, [L_n, H_m] = (m+1) H_{n+m} + sum_{0<j<n} p_j H_{n+m-j} - p_n H_m
    for the dual Virasoro operator L_n of the (0, 0) component, n >= 1."""
    ell = lambda g: gc.gr_virasoro_dual(n, 0, 0, g)
    lhs = ell(gc.hecke(m, f)) - gc.hecke(m, ell(f))
    rhs = gc.hecke(n + m, f).scale(m + 1) - SymFunc.p(n) * gc.hecke(m, f)
    return lhs - sum((SymFunc.p(j) * gc.hecke(n + m - j, f) for j in range(1, n)), rhs)


def lowering_hecke_sym_commutator(n, m, f):
    """Prop 7.10, [L_n, H^sym_m] = (m+1) H^sym_{m-n} - 2 p_{-n} H^sym_m for the
    lowering operator L_n with no linear term, n >= 1."""
    low = lambda g: gc._lowering_part(n, 0, g)
    lhs = low(gc.hecke_sym(m, f)) - gc.hecke_sym(m, low(f))
    rhs = gc.hecke_sym(m - n, f).scale(m + 1) - sf.annihilate(n, gc.hecke_sym(m, f)).scale(2)
    return lhs - rhs


def check_hecke_identities(max_deg=5, max_idx=4):
    def cases():
        rng = random.Random(167)
        for n in range(-max_idx, max_idx + 1):
            for m in range(-max_idx, max_idx + 1):
                f = _random_symfunc(rng, max_deg)
                if m != 0:
                    yield f"(1) n={n} m={m}", hecke_p_commutator(n, m, f)
                yield f"(3) n={n} m={m}", hecke_braid(n, m, f)
            g = _random_symfunc(rng, max_deg)
            h = _random_symfunc(rng, max_deg)
            yield f"(2) n={n}", hecke_adjoint(n, g, h)
        for la in [(2, 1), (3, 2), (2, 2, 1), (4, 3, 1)]:
            yield f"(4) la={la}", hecke_schur_chain(la)
        for n in range(-max_idx, max_idx + 1):  # (3) at m = n + 1: H_n H_{n+1} = 0
            yield f"(3) n={n} m={n + 1}", hecke_braid(n, n + 1, _random_symfunc(rng, max_deg))
        for la in (la for d in range(1, max_deg + 1) for la in pt.partitions_of(d)):
            yield f"(4) la={la}", hecke_schur_chain(la)

    return _verdict("hecke_commutation", cases(), f"|n|,|m| <= {max_idx}, deg <= {max_deg}")


def check_rectangular_hecke_sym(max_total=6):
    cases = (
        (f"m={m} k={k}", hecke_sym_rectangle(m, k))
        for m, k in product(range(1, max_total), repeat=2)
        if m + k <= max_total
    )
    return _verdict("rectangular_hecke_sym", cases, f"m + k <= {max_total}")


def check_virasoro_hecke_commutators(max_deg=5):
    def cases():
        rng = random.Random(173)
        for n in (1, 2, 3):
            for m in range(-3, 4):
                f = _random_symfunc(rng, max_deg)
                yield f"dual n={n} m={m}", dual_virasoro_hecke_commutator(n, m, f)
                yield f"sym n={n} m={m}", lowering_hecke_sym_commutator(n, m, f)

    return _verdict("virasoro_hecke_commutators", cases(), f"n <= 3, |m| <= 3, deg <= {max_deg}")


def check_rectangle_constraints(max_side=4, max_n=3):
    # L_n s_{m^k} = (m - k) p_{-n} s_{m^k} is the constraint at N = m + k, as 2k - N = k - m
    cases = (
        (f"m={m} k={k} {label}", residual)
        for m, k in product(range(1, max_side + 1), repeat=2)
        for label, residual in gc.constraint_check(k, m + k, max_n)
    )
    return _verdict("rectangle_lowering_identity", cases, f"m,k <= {max_side}, n <= {max_n}")


def check_calogero_sutherland(max_deg=6):
    def cases():
        for j in range(1, max_deg + 1):
            ev = F(j * (j - 1), 2)
            h, e = sf.complete(j), sf.elementary(j)
            yield f"h{j}", gc.calogero_sutherland(h) - h.scale(ev)
            yield f"e{j}", gc.calogero_sutherland(e) - e.scale(-ev)
        for d in range(1, max_deg + 1):
            for la in pt.partitions_of(d):
                s = sf.schur(la)
                image = gc.calogero_sutherland(s)
                yield f"s_{la} eigenvector", image - s.scale(sf.hall(image, s))

    return _verdict("calogero_sutherland", cases(), f"|la| <= {max_deg}")


def check_recursion_uniqueness(max_N=8):
    def cases():
        for N in range(0, max_N + 1):
            for k in range(0, N + 1):
                d = k * (N - k)
                norm = gc.gr_integral(k, N, SymFunc.p_monomial(pt.rectangle(1, d)))
                table = gc.integrals_by_recursion(k, N, norm)
                for la in pt.partitions_of(d):
                    value = gc.gr_integral(k, N, SymFunc.p_monomial(la))
                    yield f"k={k} N={N} la={la}", table[la] - value

    return _verdict("recursion_uniqueness", cases(), f"N <= {max_N}")


def check_framed_class_is_primary():
    """Each framed class is a primary state of L_0 eigenvalue 0 and Fock degree dim M^f_d
    = f.d - 1 + virtual_dim(d), and the ample bundle prod_v det V_v has positive degree:
    (-1)^dim dim! times the sum of the class's coefficients on monomials in the p_1^(v)."""
    a1, a2 = qv.builtin("linear(1)"), qv.builtin("linear(2)")
    k3 = qv.builtin("kronecker(3)")
    diamond = qv.DgQuiver("0123", [("0", "1", 0), ("0", "2", 0), ("1", "3", 0), ("2", "3", 0)])
    rows = (
        ("Gr(2,4)", a1, (4,), (2,)),
        ("Gr(2,5)", a1, (5,), (2,)),
        ("A_2 (4,0; 2,1)", a2, (4, 0), (2, 1)),
        ("A_2 (2,1; 1,1)", a2, (2, 1), (1, 1)),
        ("K_3 (2,0; 2,3)", k3, (2, 0), (2, 3)),
        ("diamond (2,0,0,0; 2,1,1,1)", diamond, (2, 0, 0, 0), (2, 1, 1, 1)),
    )

    def cases():
        for name, quiver, f, d in rows:
            x = gc.framed_class(quiver, f, d)
            for label, residual in lv.primary_check(x.lattice, x, 0):
                yield f"{name} {label}", residual
            dim = sum(a * b for a, b in zip(f, d)) - 1
            dim += qv.virtual_dim(quiver, qv.DimVector(quiver, d))
            yield f"{name} Fock degree - dim", x.fock_degree() - dim
            ones = sum(c for (_, fock), c in x.nums.items() if all(k == 1 for _, k in fock))
            degree = F((-1) ** dim * factorial(dim) * ones, x.den)
            yield f"{name} degree of prod_v det V_v", None if degree > 0 else f"{degree} <= 0"

    names = ", ".join(row[0] for row in rows)
    return _verdict("framed_class_is_primary", cases(), f"primary, L_0 eigenvalue 0: {names}")


# -- heavier end-to-end suites (full) ------------------------------------------------


def check_schur_expansion_golden():
    s22 = sf.schur((2, 2))
    want = SymFunc(
        {(1, 1, 1, 1): F(1, 12), (2, 2): F(1, 4), (3, 1): F(-1, 3)}
    )
    return _verdict("schur22_golden", [("s_(2, 2)", s22 - want)], "")


def check_gr24_integrals():
    values = {(1, 1, 1, 1): 2, (2, 2): 2, (3, 1): -1, (4,): 0, (2, 1, 1): 0}
    cases = (
        (str(la), gc.gr_integral(2, 4, SymFunc.p_monomial(la)) - v) for la, v in values.items()
    )
    return _verdict("gr24_integrals", cases, "all five descendent integrals")


def check_constraints_grid(max_N=7, max_n=6):
    cases = (
        (f"k={k} N={N} {label}", residual)
        for N in range(0, max_N + 1)
        for k in range(0, N + 1)
        for label, residual in gc.constraint_check(k, N, max_n)
    )
    return _verdict("virasoro_constraints_grid", cases, f"N <= {max_N}, n <= {max_n}")


def check_wallcross_grid(max_N=8):
    # Both classes live on the (N, k) component, so their f parts are compared.
    cases = (
        (f"k={k} N={N}", gc.gr_class_wallcross(k, N).f - gc.gr_class_schur(k, N).f)
        for N in range(0, max_N + 1)
        for k in range(0, N + 1)
    )
    return _verdict("wallcross_equals_schur", cases, f"N <= {max_N}")


def check_singular_vector_grid():
    cases = (
        (f"r={r} s={s} beta^2={b2} {label}", residual)
        for r, s in product((1, 2, 3), repeat=2)
        if r * s <= 6
        for b2 in (F(2), F(3), F(5, 2))
        for label, residual in gc.singular_check(gc.FockParams(b2, r, s))
    )
    return _verdict("jack_singular_vectors", cases, "(r,s) grid, beta^2 in {2, 3, 5/2}")


def check_geometricity_grid(max_k=3, max_N=6, max_n=3, deg_max=6):
    cases = (
        (f"k={k} N={N} n={n} {label}", residual)
        for N in range(1, max_N + 1)
        for k in range(0, min(max_k, N) + 1)
        for n in range(1, max_n + 1)
        for label, residual in gc.geometricity_check(k, N, n, deg_max)
    )
    return _verdict("geometricity_grid", cases, f"k <= {max_k}, N <= {max_N}, n <= {max_n}")


def check_euler_goldens():
    def cases():
        want = [[1, -3, 6], [0, 1, -3], [0, 0, 1]]
        got = qv.euler_matrix(qv.builtin("beilinson_p2"))
        for i, j in product(range(3), repeat=2):
            yield f"beilinson matrix entry ({i},{j})", got[i][j] - want[i][j]
        a1 = qv.builtin("linear(1)")
        for n1, k1, k2 in [(3, 1, 2), (4, 2, 1), (2, 0, 3), (1, 1, 1), (4, 2, 2), (5, 0, 3)]:
            f1 = qv.FramingVector(a1, [n1])
            pairing = qv.framed_euler(a1, f1, qv.DimVector(a1, [k1]), qv.DimVector(a1, [k2]))
            label = f"n={n1} k1={k1} k2={k2}"
            yield f"grassmannian pairing {label}", pairing - k2 * (k1 - n1)
            kq = qv.builtin(f"kronecker({n1})")
            lifted = qv.euler_form(kq, qv.DimVector(kq, [1, k1]), qv.DimVector(kq, [0, k2]))
            yield f"kronecker cross-check {label}", lifted - pairing

    return _verdict("euler_goldens", cases(), "beilinson matrix and framed pairing")


FAST_CHECKS = [
    check_schur_orthonormality,
    check_annihilation_adjoint,
    check_newton_series_inverse,
    check_involution_on_schur,
    check_jack_at_one,
    check_schur_monomial_triangularity,
    check_euler_bilinearity,
    check_euler_triangularity,
    check_euler_sym_symmetry,
    check_framed_quiver_euler,
    check_descendent_virasoro_bracket,
    check_framed_virasoro_bracket,
    check_r_derivation,
    check_l_wt0_kernel,
    check_framed_matches_dual_virasoro,
    check_lattice_virasoro_bracket,
    check_field_translation_covariance,
    check_lattice_annihilation_dictionary,
    check_vacuum_field_identity,
    check_hecke_identities,
    check_rectangular_hecke_sym,
    check_virasoro_hecke_commutators,
    check_rectangle_constraints,
    check_calogero_sutherland,
    check_recursion_uniqueness,
    check_framed_class_is_primary,
]

FULL_CHECKS = FAST_CHECKS + [
    check_schur_expansion_golden,
    check_gr24_integrals,
    check_constraints_grid,
    check_wallcross_grid,
    check_singular_vector_grid,
    check_geometricity_grid,
    check_euler_goldens,
]


def run_selftest(suite="fast"):
    """Run the named suite; returns the list of per-check reports."""
    if suite == "fast":
        checks = FAST_CHECKS
    elif suite == "full":
        checks = FULL_CHECKS
    else:
        raise ValueError(f"unknown suite {suite!r}; use 'fast' or 'full'")
    return [fn() for fn in checks]
