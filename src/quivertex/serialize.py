"""Text and JSON forms of the values that the command line reads and prints.

Serialization is canonical: terms ordered by (degree, partition) so that
identical inputs always produce byte-identical output.  Rationals are
`num` or `num/den`; JSON carries them as [num, den] pairs.
"""

import re
from fractions import Fraction

from . import quiver as qv
from .grasscalc import GrElem
from .lincomb import add_to, integer
from .symfunc import SymFunc


def rational_to_text(c):
    return str(Fraction(c))


def rational_from_text(s):
    s = s.strip()
    if not re.fullmatch(r"-?\d+(/\d+)?", s):
        raise ValueError(f"bad rational {s!r}")
    if re.fullmatch(r"-?\d+/0+", s):
        raise ValueError(f"zero denominator in rational {s!r}")
    return Fraction(s)


def rational_to_json(c):
    return [c.numerator, c.denominator]


def rational_from_json(pair):
    num, den = map(integer, pair)
    if den == 0:
        raise ValueError(f"zero denominator in rational {pair!r}")
    return Fraction(num, den)


def partition_from_text(s):
    s = s.strip()
    if s in ("", "-", "()"):
        return ()
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"bad partition {s!r}") from None
    from .partitions import check_partition

    return check_partition(parts)


# -- SymFunc ------------------------------------------------------------------


def _p_monomial_text(la):
    """Parts ascending, repeated parts grouped as powers: p1^2*p3."""
    factors = []
    for part in sorted(set(la)):
        m = la.count(part)
        factors.append(f"p{part}" if m == 1 else f"p{part}^{m}")
    return "*".join(factors)


def signed_sum_text(pairs, monomial_text):
    """Canonical text of a sum over (key, coefficient) pairs, in the given order.

    A term reads `c*mono`, or `mono` when |c| = 1; an empty monomial text
    leaves the bare number.  Signs join terms as ` + ` / ` - `; no terms is `0`.
    """
    chunks = []
    for key, c in pairs:
        mono = monomial_text(key)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{rational_to_text(mag)}*{mono}"
        else:
            body = rational_to_text(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def symfunc_to_text(f):
    return signed_sum_text(f.sorted_terms(), _p_monomial_text)


_TERM_SPLIT = re.compile(r"(?<![\^*/])\s*([+-])\s*")
_P_FACTOR = re.compile(r"p(\d+)(?:\^(\d+))?$")
# at most this many power-sum factors in one term, checked before they are listed
_MAX_TERM_FACTORS = 10_000


def symfunc_from_text(s):
    s = s.strip()
    if not s:
        raise ValueError("empty symmetric-function expression")
    pieces = _TERM_SPLIT.split(s)
    # pieces = [first, sign, term, sign, term, ...]; an empty first means a leading sign
    out = {}
    if pieces[0].strip():
        add_to(out, *_parse_sym_term(pieces[0], 1))
    for i in range(1, len(pieces), 2):
        sign = 1 if pieces[i] == "+" else -1
        add_to(out, *_parse_sym_term(pieces[i + 1], sign))
    return SymFunc._wrap(out)


def _parse_sym_term(term, sign):
    """(partition, coefficient) of one signed term."""
    term = term.strip()
    if not term:
        raise ValueError("empty term in symmetric-function expression")
    coeff = Fraction(sign)
    parts = []
    for factor in term.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"empty factor in term {term!r}")
        m = _P_FACTOR.fullmatch(factor)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError(f"bad power-sum index in {factor!r}")
            count = int(m.group(2) or 1)
            if len(parts) + count > _MAX_TERM_FACTORS:
                raise ValueError(f"more than {_MAX_TERM_FACTORS} factors in term {term!r}")
            parts.extend([idx] * count)
        else:
            coeff *= rational_from_text(factor)
    return tuple(sorted(parts, reverse=True)), coeff


def symfunc_to_json(f):
    return [[rational_to_json(c), list(la)] for la, c in f.sorted_terms()]


def symfunc_from_json(data):
    out = {}
    for pair, la in data:
        out[tuple(map(integer, la))] = rational_from_json(pair)
    return SymFunc(out)


# -- DescendentPoly -----------------------------------------------------------


def descendent_to_text(f):
    return signed_sum_text(
        f.sorted_terms(), lambda mono: "*".join(f"ch{k}({v})" for k, v in mono)
    )


# -- quiver values ------------------------------------------------------------


def quiver_to_json(q):
    return {
        "vertices": list(q.vertices),
        "arrows": [{"src": s, "tgt": t, "deg": d} for s, t, d in q.arrows],
    }


def quiver_from_json(data):
    try:
        vertices = data["vertices"]
        arrows = [(a["src"], a["tgt"], a.get("deg", 0)) for a in data["arrows"]]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed quiver JSON: {e}") from None
    if not isinstance(vertices, list):
        raise qv.QuiverError("malformed_vertices", f"vertices must be a list, got {vertices!r}")
    return qv.DgQuiver(vertices, arrows)


# -- Grassmannian elements ------------------------------------------------------


def grelem_to_text(x):
    prefix = []
    if x.N:
        prefix.append(f"Q^{x.N}")
    if x.k:
        prefix.append(f"q^{x.k}")
    head = " ".join(prefix) if prefix else "1"
    return f"{head} (x) {symfunc_to_text(x.f)}"


def grelem_to_json(x):
    return {"N": x.N, "k": x.k, "f": symfunc_to_json(x.f)}


def grelem_from_json(data):
    try:
        return GrElem(integer(data["N"]), integer(data["k"]), symfunc_from_json(data["f"]))
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed GrElem JSON: {e}") from None
