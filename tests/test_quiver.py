import random

import pytest

from quivertex import quiver as qv
from quivertex.quiver import DgQuiver, DimVector, FramingVector, QuiverError


def a1():
    return DgQuiver(["1"], [])


def test_validate_ok():
    a1()
    qv.builtin("beilinson_p2")


def test_validate_rejects_loop():
    with pytest.raises(QuiverError) as e:
        DgQuiver(["v"], [("v", "v", 0)])
    assert e.value.code == "cycle"


def test_validate_rejects_cycle():
    with pytest.raises(QuiverError) as e:
        DgQuiver(["a", "b"], [("a", "b", 0), ("b", "a", 0)])
    assert e.value.code == "cycle"


def test_validate_rejects_positive_degree():
    with pytest.raises(QuiverError) as e:
        DgQuiver(["a", "b"], [("a", "b", 1)])
    assert e.value.code == "positive_degree"


def test_validate_rejects_dangling():
    with pytest.raises(QuiverError) as e:
        DgQuiver(["a"], [("a", "b", 0)])
    assert e.value.code == "dangling_endpoint"


def test_builtin_shapes():
    b = qv.builtin("beilinson_p2")
    assert len(b.vertices) == 3
    assert [a[2] for a in b.arrows].count(0) == 6
    assert [a[2] for a in b.arrows].count(-1) == 6
    k2 = qv.builtin("kronecker(2)")
    assert len(k2.vertices) == 2 and len(k2.arrows) == 2
    p11 = qv.builtin("p1xp1")
    assert len(p11.vertices) == 4
    assert [a[2] for a in p11.arrows].count(0) == 8
    assert [a[2] for a in p11.arrows].count(-1) == 4
    lin = qv.builtin("linear(3)")
    assert len(lin.vertices) == 3 and len(lin.arrows) == 2
    with pytest.raises(QuiverError):
        qv.builtin("nonagon")


def test_euler_form_beilinson_golden():
    # closing display: d1d'1 + d2d'2 + d3d'3 - 3d1d'2 - 3d2d'3 + 6d1d'3
    b = qv.builtin("beilinson_p2")
    assert qv.euler_matrix(b) == [[1, -3, 6], [0, 1, -3], [0, 0, 1]]
    d = DimVector(b, [1, 0, 0])
    d2 = DimVector(b, [0, 1, 0])
    assert qv.euler_form(b, d, d2) == -3
    ones = DimVector(b, [1, 1, 1])
    assert qv.euler_form(b, ones, ones) == 3


def test_euler_form_p1xp1_golden():
    # matches the Euler pairing of the quadric's exceptional sequence:
    # chi(E_1,E_4) = chi(O(1,1)) = 4, the four -2 entries are -chi(O(1,0)),
    # -chi(O(0,1)), and chi(E_2,E_3) = chi(O(1,-1)) = 0
    q = qv.builtin("p1xp1")
    assert qv.euler_matrix(q) == [
        [1, -2, -2, 4],
        [0, 1, 0, -2],
        [0, 0, 1, -2],
        [0, 0, 0, 1],
    ]


def test_euler_form_a1():
    q = a1()
    assert qv.euler_form(q, DimVector(q, [3]), DimVector(q, [5])) == 15


def test_euler_form_bilinear():
    rng = random.Random(11)
    b = qv.builtin("p1xp1")
    for _ in range(30):
        u = DimVector(b, [rng.randint(-5, 5) for _ in range(4)])
        v = DimVector(b, [rng.randint(-5, 5) for _ in range(4)])
        w = DimVector(b, [rng.randint(-5, 5) for _ in range(4)])
        uv = DimVector(b, [a + c for a, c in zip(u.values, v.values)])
        assert qv.euler_form(b, uv, w) == qv.euler_form(b, u, w) + qv.euler_form(b, v, w)
        assert qv.euler_form(b, w, uv) == qv.euler_form(b, w, u) + qv.euler_form(b, w, v)


def test_euler_form_upper_triangular_for_plain_acyclic():
    for name in ("linear(4)", "kronecker(3)"):
        q = qv.builtin(name)
        mat = qv.euler_matrix(q)
        n = len(mat)
        for i in range(n):
            assert mat[i][i] == 1
            for j in range(i):
                assert mat[i][j] == 0


def test_euler_sym():
    q = a1()
    one = DimVector(q, [1])
    assert qv.euler_sym(q, one, one) == 2
    b = qv.builtin("beilinson_p2")
    d = DimVector(b, [1, 0, 0])
    d2 = DimVector(b, [0, 1, 0])
    assert qv.euler_sym(b, d, d2) == -3
    assert qv.euler_sym(b, d2, d) == -3
    zero = DimVector(b, [0, 0, 0])
    assert qv.euler_sym(b, d, zero) == 0


def test_framed_euler_grassmannian_convention():
    # chi_Gr((N1,k1),(N2,k2)) = k2(k1-N1) on the one-vertex quiver
    q = a1()
    for n1, k1, n2, k2 in [(4, 2, 1, 3), (2, 1, 2, 1), (5, 0, 3, 2)]:
        f1 = FramingVector(q, [n1]) if n1 else None
        d1 = DimVector(q, [k1])
        d2 = DimVector(q, [k2])
        if f1 is not None:
            assert qv.framed_euler(q, f1, d1, d2) == k2 * (k1 - n1)
    # d2 = 0 gives 0
    f1 = FramingVector(q, [3])
    assert qv.framed_euler(q, f1, DimVector(q, [2]), DimVector(q, [0])) == 0


def test_framed_quiver():
    q = a1()
    f = FramingVector(q, [3])
    k3 = qv.framed_quiver(q, f)
    # equal up to vertex names: the builtin names its vertices 1 and 2
    assert qv.euler_matrix(k3) == qv.euler_matrix(qv.builtin("kronecker(3)"))
    k3.validate()
    # linear(2) with framing (N, 0) gives the three-vertex flag quiver
    lin = qv.builtin("linear(2)")
    flag = qv.framed_quiver(lin, FramingVector(lin, [2, 0]))
    assert len(flag.vertices) == 3
    assert len(flag.arrows) == 3  # 2 framing arrows + 1 linear arrow


def test_framed_quiver_reads_plain_framings():
    lin = qv.builtin("linear(2)")
    want = qv.framed_quiver(lin, FramingVector(lin, [2, 0]))
    assert qv.framed_quiver(lin, [2, 0]) == want
    assert qv.framed_quiver(lin, {"1": 2}) == want  # a vertex left out has framing 0
    bad_framings = (([2], "index_mismatch"), ({"3": 1}, "unknown_vertex"), ([0, -1], "negative_framing"))
    for bad, code in bad_framings:
        with pytest.raises(QuiverError) as e:
            qv.framed_quiver(lin, bad)
        assert e.value.code == code


def test_topological_order():
    k3 = DgQuiver(["2", "1"], [("1", "2", 0)] * 3)  # listed sink first
    assert k3.topological_order == ("1", "2")
    arrows = [("0", "1", 0), ("0", "2", 0), ("1", "3", 0), ("2", "3", 0)]
    orders = set()
    for listed in (arrows, arrows[1::-1] + arrows[2:]):
        order = DgQuiver(["0", "1", "2", "3"], listed).topological_order
        assert all(order.index(s) < order.index(t) for s, t, _ in arrows)
        orders.add(order)
    assert len(orders) == 2  # the diamond's two orders


def test_framed_quiver_restricts_to_plain_euler():
    lin = qv.builtin("linear(2)")
    f = FramingVector(lin, [2, 1])
    qf = qv.framed_quiver(lin, f)
    rng = random.Random(5)
    for _ in range(20):
        d1 = [rng.randint(-3, 3) for _ in range(2)]
        d2 = [rng.randint(-3, 3) for _ in range(2)]
        inner1 = DimVector(lin, d1)
        inner2 = DimVector(lin, d2)
        ext1 = DimVector(qf, [0] + d1)
        ext2 = DimVector(qf, [0] + d2)
        assert qv.euler_form(qf, ext1, ext2) == qv.euler_form(lin, inner1, inner2)
        # chi_{Q^f}((1,d1),(0,d2)) = chi_Q(d1,d2) - f.d2 = framed_euler
        lifted1 = DimVector(qf, [1] + d1)
        assert qv.euler_form(qf, lifted1, ext2) == qv.framed_euler(lin, f, inner1, inner2)


def test_virtual_dim():
    q = a1()
    for k in range(5):
        assert qv.virtual_dim(q, DimVector(q, [k])) == 1 - k * k
    b = qv.builtin("beilinson_p2")
    assert qv.virtual_dim(b, DimVector(b, [1, 1, 1])) == -2
    assert qv.virtual_dim(b, DimVector(b, [0, 0, 0])) == 1
    deep = DgQuiver(["a", "b"], [("a", "b", -2)])
    with pytest.raises(QuiverError):
        qv.virtual_dim(deep, DimVector(deep, [1, 1]))


def test_index_mismatch_detected():
    q = a1()
    b = qv.builtin("beilinson_p2")
    with pytest.raises(QuiverError):
        qv.euler_form(q, DimVector(q, [1]), DimVector(b, [1, 0, 0]))


NOT_INTS = pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])


@NOT_INTS
def test_dimension_and_framing_vectors_take_only_int_entries(bad):
    q = qv.builtin("linear(2)")
    for vector in (DimVector, FramingVector):
        assert vector(q, [1, 0]).values == (1, 0)
        for entries in ([bad, 0], {"2": bad}):
            with pytest.raises(ValueError, match="expected an integer"):
                vector(q, entries)


@NOT_INTS
def test_arrow_degrees_take_only_ints(bad):
    assert DgQuiver(["a", "b"], [("a", "b", -1)]).arrows == (("a", "b", -1),)
    with pytest.raises(QuiverError, match="arrow a->b has degree") as e:
        DgQuiver(["a", "b"], [("a", "b", bad)])
    assert e.value.code == "malformed_degree"


def test_framing_vector_validation():
    q = a1()
    with pytest.raises(QuiverError):
        FramingVector(q, [0])
    with pytest.raises(QuiverError):
        FramingVector(q, [-1])
