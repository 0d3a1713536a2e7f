"""A failing check names its first non-zero residual, and the residual
functions the acceptance criteria call see the same faults."""

import re
from fractions import Fraction

from quivertex import checks as ck
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
