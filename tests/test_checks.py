"""A failing check names its first non-zero residual, and the residual
functions the acceptance criteria call see the same faults.  Every check of the
full suite is shown to fail here under a broken operator."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from quivertex import checks as ck
from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import quiver as qv
from quivertex import symfunc as sf
from quivertex.symfunc import SymFunc


def _leading(residual):
    return "{1} * {0}".format(*residual.sorted_terms()[0])


def test_doubled_hecke_fails_with_a_residual_term(monkeypatch):
    hecke = gc.hecke
    monkeypatch.setattr(gc, "hecke", lambda n, f: hecke(n, f).scale(2))
    report = ck.check_hecke_identities()
    assert not report["ok"]
    # (1)-(3) are homogeneous in H, so a uniformly doubled H first breaks (4):
    # H_2 H_1 (1) = 4 s_21 leaves the residual 3 s_21.
    residual = ck.hecke_schur_chain((2, 1))
    assert residual and residual == sf.schur((2, 1)).scale(3)
    assert report["detail"] == f"(4) la=(2, 1): residual {_leading(residual)}"
    assert not ck.hecke_p_commutator(-1, 2, SymFunc.one())


def test_hecke_p_commutator_sees_a_broken_hecke(monkeypatch):
    hecke = gc.hecke
    assert not ck.hecke_p_commutator(-1, 2, SymFunc.one())
    # doubling only H_n for n > 0 breaks (1): [H_-1, p_2] 1 + 2 H_1 1 = h_1
    monkeypatch.setattr(gc, "hecke", lambda n, f: hecke(n, f).scale(2 if n > 0 else 1))
    assert ck.hecke_p_commutator(-1, 2, SymFunc.one()) == SymFunc.p(1)
    report = ck.check_hecke_identities()
    assert not report["ok"] and ": residual " in report["detail"]


def test_grid_checks_name_their_residual(monkeypatch):
    wallcross, recursion, fock = (
        gc.gr_class_wallcross,
        gc.integrals_by_recursion,
        gc.fock_virasoro,
    )
    monkeypatch.setattr(gc, "gr_class_wallcross", lambda k, N: wallcross(k, N).scale(2))
    monkeypatch.setattr(
        gc,
        "integrals_by_recursion",
        lambda k, N, norm: {la: 2 * v for la, v in recursion(k, N, norm).items()},
    )
    monkeypatch.setattr(gc, "fock_virasoro", lambda params, n, f: fock(params, n, f) + f)
    assert ck.check_wallcross_grid(2)["detail"] == "k=0 N=0: residual 1 * ()"
    assert ck.check_recursion_uniqueness(2)["detail"] == "k=0 N=0 la=(): residual 1"
    report = ck.check_singular_vector_grid()
    assert not report["ok"]
    # the residual L_1 w = w, named by its leading term
    w = gc.singular_vector(gc.FockParams(Fraction(2), 1, 1))
    assert report["detail"] == f"r=1 s=1 beta^2=2 L_1: residual {_leading(w)}"


def test_calogero_sutherland_check_names_its_residual(monkeypatch):
    cs = gc.calogero_sutherland
    monkeypatch.setattr(gc, "calogero_sutherland", lambda f: cs(f) + f)
    # CS h_1 = 0, so the broken operator leaves the residual h_1 = p_1
    report = ck.check_calogero_sutherland()
    assert not report["ok"]
    assert report["detail"] == f"h1: residual {_leading(SymFunc.p(1))}"


def test_symfunc_checks_name_their_residual(monkeypatch):
    pairing = sf.hall_deformed
    monkeypatch.setattr(sf, "hall_deformed", lambda f, g, alpha: 2 * pairing(f, g, alpha))
    # every Hall pairing doubles: <s_(), s_()> = 2 leaves the residual 1, and
    # Gram-Schmidt is unchanged, so P_(1)^(1) - <P_(1), s_(1)> s_(1) = -p_1
    assert ck.check_schur_orthonormality(2)["detail"] == "(),(): residual 1"
    assert ck.check_jack_at_one(2)["detail"] == f"(1,): residual {_leading(-SymFunc.p(1))}"
    assert ck.check_gr24_integrals()["detail"] == "(1, 1, 1, 1): residual 2"
    # the m-expansion reads no pairing: double every row of the p-to-m transition,
    # so that s_(1) = p_1 = 2 m_(1) leaves the residual 1
    step = sf._row_step
    monkeypatch.setattr(sf, "_row_step", lambda *args: {mu: 2 * n for mu, n in step(*args).items()})
    report = ck.check_schur_monomial_triangularity(2)
    assert report["detail"] == "(1,) coefficient of m_(1,): residual 1"


def test_euler_bilinearity_names_its_residual(monkeypatch):
    euler_form = qv.euler_form
    monkeypatch.setattr(qv, "euler_form", lambda q, d1, d2: euler_form(q, d1, d2) + 1)
    # (E + 1)(u + v, w) - (E + 1)(u, w) - (E + 1)(v, w) = -1
    report = ck.check_euler_bilinearity()
    assert not report["ok"]
    vector = r"\(-?\d+(, -?\d+)*\)"
    label = rf"left argument u={vector} v={vector} w={vector}"
    assert re.fullmatch(rf"{label}: residual -1", report["detail"]), report["detail"]


def test_constraints_grid_names_its_residual(monkeypatch):
    lowering = gc._lowering_part
    monkeypatch.setattr(
        gc, "_lowering_part", lambda n, lin, f, quad_coeff=1: lowering(n, lin, f, quad_coeff) + f
    )
    # on Gr(0,0), s = 1 and L_1 1 = 0, so the broken operator leaves the residual 1
    report = ck.check_constraints_grid(2)
    assert not report["ok"]
    assert report["detail"] == "k=0 N=0 L_1: residual 1 * ()"


def test_framed_class_check_names_the_mode_that_a_scaled_term_breaks(monkeypatch):
    framed_class = gc.framed_class

    def scaled(quiver, f, d):
        # every term has L_0 eigenvalue 0, so doubling one of them breaks an L_n, n > 0
        x = framed_class(quiver, f, d)
        top = max(x.terms)
        return lv.VAElem(x.lattice, {key: c * (1 + (key == top)) for key, c in x.terms.items()})

    monkeypatch.setattr(gc, "framed_class", scaled)
    report = ck.check_framed_class_is_primary()
    assert not report["ok"]
    assert re.fullmatch(r"Gr\(2,4\) L_[1-9]\d*: residual .+", report["detail"]), report["detail"]


def test_geometricity_grid_names_the_smallest_schur_coefficient(monkeypatch):
    r_n = gc.r_n_symfunc
    # p_1^2 = s_2 + s_11 leaves the ideal wherever the box holds (2) or (1, 1)
    outside = SymFunc.p_monomial((1, 1)).scale(3)
    monkeypatch.setattr(gc, "r_n_symfunc", lambda n, f: r_n(n, f) + outside)
    report = ck.check_geometricity_grid()
    assert not report["ok"]
    assert report["detail"] == "k=1 N=3 n=1 e2: residual 3 * (2,)"
    # in the box (2, 2) the coefficients come in partitions_of order, (2) before (1, 1)
    residual = dict(gc.geometricity_check(2, 4, 1, 4))["e3"]
    assert list(residual.items()) == [((2,), 3), ((1, 1), 3)]
    assert ck._verdict("g", [("e3", residual)])["detail"] == "e3: residual 3 * (1, 1)"


# how an operator op is broken: "plus input" adds the identity to it
BREAK = {
    "doubled": lambda op: lambda *args: op(*args).scale(2),
    "plus input": lambda op: lambda *args: op(*args) + args[-1],
    "plus one": lambda op: lambda *args: op(*args) + 1,
    "asymmetric": lambda op: lambda q, d1, d2: op(q, d1, d2) + d1.values[0],
    "all ones": lambda op: lambda q: [[1] * len(row) for row in op(q)],
    "identity": lambda op: lambda n, x: x,
}


# (check, module, operator, how it is broken); the checks above have their own tests
FAULTS = [
    (ck.check_annihilation_adjoint, sf, "annihilate", "doubled"),
    (ck.check_newton_series_inverse, sf, "elementary", "doubled"),
    (ck.check_involution_on_schur, sf, "involution", "doubled"),
    (ck.check_euler_triangularity, qv, "euler_matrix", "all ones"),
    (ck.check_euler_sym_symmetry, qv, "euler_sym", "asymmetric"),
    (ck.check_framed_quiver_euler, qv, "framed_euler", "plus one"),
    (ck.check_descendent_virasoro_bracket, dc, "l_op", "plus input"),
    (ck.check_framed_virasoro_bracket, dc, "l_op_framed", "plus input"),
    (ck.check_r_derivation, dc, "r_op", "plus input"),
    (ck.check_l_wt0_kernel, dc, "l_wt0", "plus input"),
    (ck.check_framed_matches_dual_virasoro, gc, "gr_virasoro_dual", "plus input"),
    (ck.check_lattice_virasoro_bracket, lv, "virasoro", "plus input"),
    (ck.check_field_translation_covariance, lv, "translate", "doubled"),
    (ck.check_lattice_annihilation_dictionary, lv, "annihilate_mode", "doubled"),
    (ck.check_vacuum_field_identity, lv, "field_mode", "doubled"),
    (ck.check_rectangular_hecke_sym, gc, "hecke_sym", "doubled"),
    (ck.check_virasoro_hecke_commutators, gc, "gr_virasoro_dual", "doubled"),
    (ck.check_rectangle_constraints, gc, "gr_virasoro", "identity"),
    (ck.check_schur_expansion_golden, sf, "schur", "doubled"),
    (ck.check_euler_goldens, qv, "framed_euler", "plus one"),
]


@pytest.mark.parametrize("check, module, name, broken", FAULTS, ids=[f[0].__name__ for f in FAULTS])
def test_a_broken_operator_fails_its_check(monkeypatch, check, module, name, broken):
    assert check()["ok"]
    monkeypatch.setattr(module, name, BREAK[broken](getattr(module, name)))
    report = check()
    assert not report["ok"] and ": residual " in report["detail"], report


def test_every_check_has_a_fault_injection_test():
    source = Path(__file__).read_text(encoding="utf-8")
    named = set(re.findall(r"\bck\.(check_\w+)", source))
    assert not (untested := [fn.__name__ for fn in ck.FULL_CHECKS if fn.__name__ not in named])
