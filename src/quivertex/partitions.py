"""Integer partitions, stored as weakly decreasing tuples of positive ints.

The empty tuple () is the unique partition of 0.  All other modules use
these tuples directly as dictionary keys; inside, the kernels that multiply
p-monomials in bulk key them by an int code (``code_weights``) instead.
"""

from fractions import Fraction
from functools import lru_cache

from .lincomb import integer


def _bad_part(p):
    return ValueError(f"partition parts must be positive integers, got {p!r}")


def check_partition(parts):
    """Validate and canonicalize an iterable of parts into a partition tuple."""
    t = tuple(parts)
    for i, p in enumerate(t):
        if integer(p, _bad_part) < 1:
            raise _bad_part(p)
        if i > 0 and t[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {t}")
    return t


def size(la):
    """|la|, the number being partitioned."""
    return sum(la)


def length(la):
    """ell(la), the number of parts."""
    return len(la)


def multiplicity(la, i):
    """Number of parts of la equal to i."""
    return sum(1 for p in la if p == i)


def conjugate(la):
    """Transpose of the Young diagram."""
    if not la:
        return ()
    cols = [0] * la[0]
    for p in la:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def z_factor(la):
    """prod_i i^{m_i} m_i!  -- the Hall norm of a power-sum basis element."""
    return Fraction(z_int(la))


def z_int(la):
    """z_factor(la) as an int."""
    z = 1
    i = None
    m = 0
    for p in sorted(la):
        if p == i:
            m += 1
        else:
            i, m = p, 1
        z *= p * m
    return z


@lru_cache(maxsize=4096)
def partitions_of(n):
    """All partitions of n, as descending tuples, in descending lexicographic order.

    Those of m with first part f are f followed by those of m - f with parts <= f.
    The walk builds them bottom-up in a table local to the call, only for the
    m < n and f <= n - m that a partition of n reaches, and calls nothing: one
    that recursed n deep through this cache could end in a SystemError when
    memory ran out, where this one raises MemoryError.
    """
    if n <= 0:
        return ((),) if n == 0 else ()
    below = [[((),)]]  # below[m][j]: the partitions of m with parts <= j, descending
    for m in range(1, n):
        row = [[]]
        for f in range(1, min(m, n - m) + 1):
            row.append([(f,) + la for la in below[m - f][min(f, m - f)]] + row[-1])
        below.append(row)
    return tuple((f,) + la for f in range(n, 0, -1) for la in below[n - f][min(f, n - f)])


def contains(box, la):
    """Whether la fits inside the partition `box` (componentwise)."""
    if len(la) > len(box):
        return False
    return all(la[i] <= box[i] for i in range(len(la)))


def rectangle(width, height):
    """The partition (width)^height; empty if either side is 0."""
    if width == 0 or height == 0:
        return ()
    return (width,) * height


def merge(la, mu):
    """Union of parts as multisets, re-sorted descending."""
    return tuple(sorted(la + mu, reverse=True))


def remove_one(la, part):
    """la with a single copy of `part` removed; None when absent."""
    if part not in la:
        return None
    out = list(la)
    out.remove(part)
    return tuple(out)


def sign_of_conjugation(la):
    """(-1)^(|la| - ell(la)), the sign picked up by the p-basis involution."""
    return -1 if (size(la) - length(la)) % 2 else 1


def code_weights(top):
    """[w_0, ..., w_top] with w_p = p + B^p, B = 2^b and b = (top + 1).bit_length().

    The code of a partition la with |la| <= top is sum(w_p for p in la): its low
    b bits hold |la| and digit p in base B the multiplicity of p, so while sizes
    add up to at most top, the code of a union is the sum of the codes.  A list
    is indexed faster than a tuple, so each caller builds its own.
    """
    b = (top + 1).bit_length()
    return [p + (1 << b * p) for p in range(top + 1)]


def encode(pairs, weights):
    """[(code of la, x)] for each (la, x) of pairs, under the weights of code_weights;
    one call per batch, not per partition."""
    w = weights.__getitem__
    return [(sum(map(w, la)), x) for la, x in pairs]


def code_sizes(codes, weights):
    """{|la|} over the given codes, each read as code mod B."""
    mask = (1 << len(weights).bit_length()) - 1
    return {c & mask for c in codes}


def code_table(weights, degrees):
    """{code: la} for every partition of each of the degrees."""
    return dict(encode(((la, la) for d in degrees for la in partitions_of(d)), weights))
