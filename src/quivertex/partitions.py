"""Integer partitions, stored as weakly decreasing tuples of positive ints.

The empty tuple () is the unique partition of 0.  All other modules use
these tuples directly as dictionary keys; inside, the kernels that multiply
p-monomials in bulk, and the field modes their Fock monomials, key them by an int
code instead; this module owns it (``code_weights``, ``encode``, ``decode``) and the
vertex operators on it (``translate_codes``, ``create_codes``, and ``vertex_chain``,
which plans a chain's degrees and code width, so that its callers pass partitions).
"""

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, gcd
from operator import add

from .lincomb import _product_into, integer


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
    return la.count(i)


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


def code_weights(top, colours=1):
    """(w_0, ..., w_{colours T}), w_d = k + B^d for the part k of colour i at digit d =
    colours (k - 1) + i + 1; B = 2^b, b = max((top + 1).bit_length(), 2), T = 2^b - 2.

    The low b bits of the code sum(w_p for p in la) of a partition, |la| <= T, hold
    |la| and digit p the multiplicity of p, so while sizes add up to at most T, a union
    adds codes; T is the largest top of width b.  A Fock monomial, sorted (basis index
    i, mode k) pairs, is a partition of colours i.  Fewer than 1 colour reads as 1, the
    weights of an uncoloured partition, one cached tuple for both; a width of 64 bits or
    more, a tuple of over sys.maxsize weights, raises MemoryError before it is built.
    """
    return _code_weights(top, max(colours, 1))


@lru_cache(maxsize=64)
def _code_weights(top, colours):
    b = max((top + 1).bit_length(), 2)
    if colours * ((1 << b) - 2) + 1 > sys.maxsize:
        raise MemoryError(f"a partition code of width {b} bits needs more than sys.maxsize weights")
    return tuple(-(-d // colours) + (1 << b * d) for d in range(colours * ((1 << b) - 2) + 1))


def encode(pairs, weights, colours=0):
    """[(code of la, x)] for each (la, x) of pairs, under the weights of code_weights; with
    colours, la is a coloured partition of (colour, part) pairs.  One call per batch."""
    if colours:
        return [(sum([weights[colours * (k - 1) + i + 1] for i, k in la]), x) for la, x in pairs]
    w = list(weights).__getitem__  # map calls a list's faster than a tuple's
    return [(sum(map(w, la)), x) for la, x in pairs]


def decode(pairs, weights, colours=0):
    """[(la, x)] for each (code, x) of pairs with x != 0, la the partition of code under
    weights, read off its nonzero digits from the highest: descending as it comes, or with
    colours the sorted coloured partition of (colour, part) pairs that encode takes."""
    b = weights[1].bit_length() - 1
    out = []
    for code, x in pairs:
        if x:
            code >>= b  # the size
            la = []
            while code:
                s = code.bit_length() - 1
                s -= s % b  # the highest nonzero digit, of part k and colour i
                r = code >> s
                code ^= r << s
                d = s // b  # colours (k - 1) + i
                la += [(d % colours, d // colours + 1) if colours else d + 1] * r
            out.append((tuple(sorted(la)) if colours else tuple(la), x))
    return out


def translate_codes(terms, weights, row, least=0, most=None):
    """{m: [(code, c)]}, least <= m <= most and c != 0, with sum c0 prod_f (f - row[i_f]
    z^{-k_f}) = sum c z^{-m} (the monomial of code) + (other powers), for coded terms
    (code, c0) under weights, f running over the factors (e_i)_(-k) of each.

    This is exp(-sum_k w a_(k) z^{-k}/k), the annihilation half of the field modes and
    of vertex_chain.  A digit of multiplicity r has the r + 1 choices binom(r, s) (-w)^s.
    A term, keyed by code B + m, waits in the bucket of its highest digit with w != 0
    not yet translated, then goes to that of the next, where equal keys are summed; m
    only grows, so a term past most is dropped.
    """
    b, colours = weights[1].bit_length() - 1, len(row)
    mask, span = (1 << b) - 1, b * colours  # a digit, the digits of one part in every colour
    # in a key, the digits of the colours with w != 0 (those of the code, one digit up)
    live = -1 if all(row) else sum(mask << b * (i + 2) for i, w in enumerate(row) if w) * (
        ((1 << b * (len(weights) - 1)) - 1) // ((1 << span) - 1))  # once for every part
    buckets, done, most = {}, {}, mask if most is None else most
    for code, c in terms:
        if code & mask < least:  # m is at most the degree of the term
            continue
        key = code << b
        d = ((key & live).bit_length() - 1) // b - 1  # the highest live digit of the code
        into = done if d < 1 else buckets.get(d) or buckets.setdefault(d, {})
        into[key] = into.get(key, 0) + c
    while buckets:
        d = max(buckets)
        w, shift, below = row[(d - 1) % colours], b * (d + 1), live & ((1 << b * (d + 1)) - 1)
        step = (weights[d] & mask) - (weights[d] << b)  # one copy substituted
        for key, c in buckets.pop(d).items():
            if c and key & mask <= most:
                e = ((key & below).bit_length() - 1) // b - 1  # the next live digit
                into = done if e < 1 else buckets.get(e) or buckets.setdefault(e, {})
                get = into.get
                for t in _choices(key >> shift & mask, w, most):
                    into[key] = get(key, 0) + c * t
                    key += step
    out = {}
    for key, c in done.items():
        if c and least <= key & mask <= most:
            out.setdefault(key & mask, []).append((key >> b, c))
    return out


@lru_cache(maxsize=1024)
def _choices(r, w, most):
    """binom(r, s) (-w)^s for s = 0, ..., min(r, most), for a factor of weight w and
    multiplicity r: s copies substituted add at least s to m."""
    return tuple(comb(r, s) * (-w) ** s for s in range(min(r, most) + 1))


def create_codes(alpha, scale, shift, translated, weights):
    """The creation half of a vertex operator of alpha: {code: int}, the sum over the
    powers m of translated (translate_codes, m >= shift) of its terms at z^{-m} times
    scale / p! times p! S_p, p = m - shift, under weights (code_weights of len(alpha)
    colours; the series serve the largest top of its width, 2^b - 2, read off the weights
    alone, so every top and colour count of one width shares them); scale is divisible by
    every p!, and zeros stay."""
    top, coded = (1 << (weights[1].bit_length() - 1)) - 2, {}
    for m, piece in translated.items():
        p = m - shift
        _product_into(coded, scale // factorial(p), piece, _creation_series(alpha, p, top), add)
    return coded


@lru_cache(maxsize=1024)
def _creation_series(alpha, p, top):
    """p! S_p, S_p the z^p coefficient of exp(sum_{j>0} alpha_(-j)/j z^j), as (code, int
    coefficient) pairs under code_weights(top, len(alpha)), by p S_p = sum_{j=1}^{p}
    alpha_(-j) S_{p-j}: the series below p come from this cache, asked for in ascending
    order, so each is built once and no call nests more than two deep."""
    if not p:
        return ((0, 1),)
    weights, colours, out = code_weights(top, len(alpha)), len(alpha), {}
    for j in range(p, 0, -1):  # p - j ascends
        created = [(weights[colours * (j - 1) + i + 1], a) for i, a in enumerate(alpha) if a]
        lower = _creation_series(alpha, p - j, top)
        _product_into(out, factorial(p - 1) // factorial(p - j), created, lower, add)
    return tuple((code, c) for code, c in out.items() if c)


def vertex_chain(terms, steps, colours=0):
    """(d, [(la, c)]): the int terms (la, c0), la a partition or with colours a coloured one
    as encode takes, run through each step (alpha, row, shift, sign, most), every c over d:
    sign times the z^{-shift} coefficient of exp(sum_j alpha_(-j) z^j / j) exp(-sum_k row
    a_(k) z^{-k} / k), as translate_codes up to most (None: no bound), past which the caller
    knows it to vanish, create_codes with one lift (largest p)!, and the gcd divided out.
    The plan comes first: a step takes the Fock degree D to D - shift, from the largest of
    terms, and a plan below 0 is zero, (1, []); else terms are coded at its largest degree."""
    sizes = [sum([k for _, k in la]) if colours else sum(la) for la, _ in terms]
    plan = list(accumulate([-shift for _, _, shift, _, _ in steps], initial=max(sizes, default=0)))
    if min(plan) < 0:
        return 1, []
    weights = code_weights(max(plan), colours)
    terms, den = encode(terms, weights, colours), 1
    for alpha, row, shift, sign, most in steps:
        translated = translate_codes(terms, weights, row, shift, most)
        lift = factorial(max(translated, default=shift) - shift)
        coded = create_codes(alpha, sign * lift, shift, translated, weights)
        g = gcd(den * lift, *coded.values())
        terms, den = [(code, c // g) for code, c in coded.items() if c], den * lift // g
    return den, decode(terms, weights, colours)
