"""Finite acyclic dg quivers with Euler forms and framing.

A plain quiver is the degree-0 special case; a quasi-smooth dg quiver has
arrow degrees in {0, -1}.  Relations are never modeled as path-algebra
elements: only the count and endpoints of the degree -1 arrows enter any
computation here, since that is all the Euler form consumes.  Acyclicity, over
arrows of every degree, is checked by the stdlib ``graphlib``, whose order, ties
broken by the listings of vertices and arrows, is ``DgQuiver.topological_order``.
"""

from graphlib import CycleError, TopologicalSorter

from .lincomb import integer


class QuiverError(ValueError):
    """Structural problem with a quiver or its associated data."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class DgQuiver:
    """Ordered vertices, graded arrows (src, tgt, deg <= 0), and a topological_order.
    Two quivers are equal when their vertices agree in order and their arrows as a
    multiset; that key and its hash are built once, as caches hash a quiver per call."""

    __slots__ = ("vertices", "arrows", "_index", "topological_order", "_key", "_hash")

    def __init__(self, vertices, arrows):
        self.arrows = tuple((str(s), str(t), d) for s, t, d in arrows)
        for s, t, d in self.arrows:
            integer(d, lambda d: QuiverError("malformed_degree", f"arrow {s}->{t} has degree {d!r}"))
        self.vertices = tuple(str(v) for v in vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise QuiverError("duplicate_vertex", "vertex identifiers must be unique")
        self.validate()
        self._key = (self.vertices, tuple(sorted(self.arrows)))
        self._hash = hash(self._key)

    def validate(self):
        """Check finiteness, endpoint sanity, degree signs, and acyclicity."""
        for s, t, d in self.arrows:
            if s not in self._index or t not in self._index:
                raise QuiverError("dangling_endpoint", f"arrow {s}->{t} leaves the vertex set")
            if d > 0:
                raise QuiverError("positive_degree", f"arrow {s}->{t} has degree {d} > 0")
        sorter = TopologicalSorter(dict.fromkeys(self.vertices, ()))
        for s, t, _ in self.arrows:
            sorter.add(t, s)
        try:
            self.topological_order = tuple(sorter.static_order())
        except CycleError:
            raise QuiverError("cycle", "quiver has an oriented cycle") from None

    def vertex_index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise QuiverError("unknown_vertex", f"unknown vertex {v!r}") from None

    def is_quasi_smooth(self):
        return all(d in (0, -1) for _, _, d in self.arrows)

    def unit_vector(self, v):
        self.vertex_index(v)
        return DimVector(self, {v: 1})

    def __repr__(self):
        return f"DgQuiver(vertices={list(self.vertices)}, arrows={len(self.arrows)})"

    def __eq__(self, other):
        return isinstance(other, DgQuiver) and self._key == other._key

    def __hash__(self):
        return self._hash


class _VertexMap:
    """Dense vector of values indexed by a quiver's ordered vertices, read from a list in
    vertex order, a dict over vertices, or a vertex map over the same vertices."""

    __slots__ = ("quiver", "values")

    def __init__(self, quiver, entries):
        self.quiver = quiver
        vals = [0] * len(quiver.vertices)
        if isinstance(entries, _VertexMap):
            _check_same_quiver(self, entries)
            entries = entries.values
        if isinstance(entries, dict):
            for v, x in entries.items():
                vals[quiver.vertex_index(str(v))] = integer(x)
        else:
            entries = list(entries)
            if len(entries) != len(quiver.vertices):
                raise QuiverError(
                    "index_mismatch",
                    f"expected {len(quiver.vertices)} entries, got {len(entries)}",
                )
            vals = [integer(x) for x in entries]
        self.values = tuple(vals)

    def __getitem__(self, v):
        return self.values[self.quiver.vertex_index(v)]

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.quiver == other.quiver
            and self.values == other.values
        )

    def __hash__(self):
        return hash((type(self).__name__, self.values))

    def __repr__(self):
        pairs = ", ".join(f"{v}: {x}" for v, x in zip(self.quiver.vertices, self.values))
        return f"{type(self).__name__}({{{pairs}}})"


class DimVector(_VertexMap):
    """Integer vector indexed by vertices (negative entries allowed for K-classes)."""


class FramingVector(_VertexMap):
    """Nonnegative framing multiplicities, not all zero."""

    def __init__(self, quiver, entries):
        super().__init__(quiver, entries)
        if any(x < 0 for x in self.values):
            raise QuiverError("negative_framing", "framing entries must be nonnegative")
        if not any(self.values):
            raise QuiverError("zero_framing", "framing vector must have a positive entry")


def _check_same_quiver(a, b):
    if a.quiver.vertices != b.quiver.vertices:
        raise QuiverError("index_mismatch", "vectors indexed by different vertex sets")


def euler_form(quiver, d, d2):
    """chi(d, d') = sum_v d_v d'_v - sum_arrows (-1)^deg d_src d'_tgt."""
    _check_same_quiver(d, d2)
    if d.quiver.vertices != quiver.vertices:
        raise QuiverError("index_mismatch", "dimension vectors belong to another quiver")
    total = sum(a * b for a, b in zip(d.values, d2.values))
    idx = quiver.vertex_index
    for s, t, deg in quiver.arrows:
        sign = 1 if deg % 2 == 0 else -1
        total -= sign * d.values[idx(s)] * d2.values[idx(t)]
    return total


def euler_sym(quiver, d, d2):
    """Symmetrized Euler form chi(d,d') + chi(d',d)."""
    return euler_form(quiver, d, d2) + euler_form(quiver, d2, d)


def euler_matrix(quiver):
    """Gram matrix of the Euler form in the unit-vector basis."""
    units = [quiver.unit_vector(v) for v in quiver.vertices]
    return [[euler_form(quiver, a, b) for b in units] for a in units]


def framed_euler(quiver, f1, d1, d2):
    """Framed pairing chi((f1,d1),(f2,d2)) = chi(d1,d2) - f1.d2, which no f2 enters."""
    _check_same_quiver(f1, d2)
    dot = sum(a * b for a, b in zip(f1.values, d2.values))
    return euler_form(quiver, d1, d2) - dot


def virtual_dim(quiver, d):
    """1 - chi(d, d), the expected dimension grading of the moduli class."""
    if not quiver.is_quasi_smooth():
        raise QuiverError("not_quasi_smooth", "virtual dimension needs degrees in {0,-1}")
    return 1 - euler_form(quiver, d, d)


FRAMING_VERTEX = "inf"


def framed_quiver(quiver, f):
    """Attach a framing vertex with f_v degree-0 arrows into each vertex v; f is a
    `FramingVector` or the entries of one (a list in vertex order, or a dict)."""
    f = FramingVector(quiver, f)
    if FRAMING_VERTEX in quiver.vertices:
        raise QuiverError("duplicate_vertex", f"vertex {FRAMING_VERTEX!r} already present")
    arrows = [(FRAMING_VERTEX, v, 0) for v in quiver.vertices for _ in range(f[v])]
    return DgQuiver((FRAMING_VERTEX,) + quiver.vertices, arrows + list(quiver.arrows))


def builtin(name):
    """Named example quivers: beilinson_p2, kronecker(N), linear(l), p1xp1."""
    name = name.strip()
    if name == "beilinson_p2":
        arrows = [("1", "2", 0)] * 3 + [("2", "3", 0)] * 3 + [("1", "3", -1)] * 6
        return DgQuiver(["1", "2", "3"], arrows)
    if name == "p1xp1":
        arrows = (
            [("1", "2", 0)] * 2
            + [("1", "3", 0)] * 2
            + [("2", "4", 0)] * 2
            + [("3", "4", 0)] * 2
            + [("1", "4", -1)] * 4
        )
        return DgQuiver(["1", "2", "3", "4"], arrows)
    for prefix in ("kronecker", "linear"):
        if name.startswith(prefix + "(") and name.endswith(")"):
            try:
                n = int(name[len(prefix) + 1 : -1])
            except ValueError:
                raise QuiverError("unknown_builtin", f"bad parameter in {name!r}") from None
            if n < 1:
                raise QuiverError("unknown_builtin", f"parameter must be >= 1 in {name!r}")
            if prefix == "kronecker":
                return DgQuiver(["1", "2"], [("1", "2", 0)] * n)
            verts = [str(i) for i in range(1, n + 1)]
            return DgQuiver(verts, [(str(i), str(i + 1), 0) for i in range(1, n)])
    raise QuiverError("unknown_builtin", f"unknown builtin quiver {name!r}")
