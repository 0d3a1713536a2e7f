"""Atiyah-Bott localization of descendent integrals over framed quiver moduli.

For an acyclic quiver with degree-0 arrows, a framed representation is stable when
the framing generates it, so M^f_d is a tower of Grassmannian bundles: V_v is a
rank-d_v quotient of E_v = C^{f_v} + sum over arrows a: u -> v of V_u, chosen in
topological order.  The torus that scales each framing line by t_{v,i} and each
arrow a by u_a has isolated fixed points F.  Each picks d_v of the weight lines of
E_v (the t_{v,i}, and w + u_a for each w picked at u), and its Euler class e(F) is
the product of picked - unpicked.  p_j^(v) is the sum of the j-th powers of the
weights picked at v, and the library's integral is (-1)^dim sum_F prod p(F) / e(F).
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod


def localization_integrals(quiver, f, d, monomials, seed=0):
    """[integral of prod_v p_{mu^(v)}] for each monomial, a {vertex: mu} dict; f and d
    map each vertex to its entry.  Summed exactly in int over the lcm of the e(F), at
    one seeded integer point, which is generic unless an Euler factor vanishes."""
    if any(deg for _, _, deg in quiver.arrows):
        raise ValueError("the tower of Grassmannian bundles needs degree-0 arrows only")
    rng = random.Random(seed)
    points, dim = [({}, 1)], 0  # (weights picked per vertex, Euler class)
    for v in quiver.topological_order:
        framing = [rng.randrange(1, 10**6) for _ in range(f[v])]
        shifts = [(s, rng.randrange(1, 10**6)) for s, t, _ in quiver.arrows if t == v]
        grown = []
        for picked, euler in points:
            lines = framing + [w + u for s, u in shifts for w in picked[s]]
            for chosen in combinations(range(len(lines)), d[v]):
                kept = [lines[i] for i in chosen]
                rest = [w for i, w in enumerate(lines) if i not in chosen]
                grown.append(({**picked, v: kept}, euler * prod(a - b for a in kept for b in rest)))
        points, dim = grown, dim + d[v] * (len(lines) - d[v])
    if any(euler == 0 for _, euler in points):
        raise ValueError(f"seed {seed} is not a generic point")
    den = lcm(*(euler for _, euler in points))
    sign = -1 if dim % 2 else 1
    power_sums = lambda picked: {
        (v, j): sum(w**j for w in ws) for v, ws in picked.items() for j in range(dim + 1)
    }
    weighted = [(den // euler, power_sums(picked)) for picked, euler in points]
    term = lambda mono, p: prod(p[v, j] for v in mono for j in mono[v])
    return [
        sign * Fraction(sum(c * term(mono, p) for c, p in weighted), den) for mono in monomials
    ]
