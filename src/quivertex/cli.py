"""Command-line front end.

Every subcommand maps to one library operation or check suite, prints
deterministic text (or JSON with --json), and exits 0 on success or
all-pass, 1 on a failed identity, 2 on malformed input.

The subcommands are described once, in ``_COMMANDS``.  A call builds the
parser of the command it names first alone, as building every subparser was
most of the cost of a small request; help, or an argv that names no known
command first, gets every command's parser.  Output and errors read the same.
The check suites, ``checks``, load only with the four commands that run them:
virasoro-bracket, gr-constraints, singular and selftest.
"""

import argparse
import json
import random
import re
import sys
from functools import partial
from itertools import product

from . import descendent as dc
from . import grasscalc as gc
from . import partitions as pt
from . import quiver as qv
from . import serialize as sz
from . import symfunc as sf


def _arg(parse):
    """An argparse type for parse that keeps the reason a value was rejected."""

    def convert(s):
        try:
            return parse(s)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"invalid value {s!r}: {e}") from None

    return convert


_PARTITION = _arg(sz.partition_from_text)
_SYMFUNC = _arg(sz.symfunc_from_text)
_RATIONAL = _arg(sz.rational_from_text)


def _json_int(digits):
    """A quiver file's integer, within Python's default 4,300-digit bound, which main
    lifts for output: int() takes time quadratic in the digits (1M digits, 9 s)."""
    if (n := len(digits.lstrip("-"))) > 4300:
        raise ValueError(f"quiver JSON holds an integer of {n} digits, more than 4300")
    return int(digits)


def _load_quiver(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError(f"quiver JSON in {path} is nested too deeply") from None
    return sz.quiver_from_json(data)


def _dimvector_arg(quiver, s):
    try:
        entries = [int(x) for x in s.split(",")]
    except ValueError:
        raise ValueError(f"bad dimension vector {s!r}") from None
    return qv.DimVector(quiver, entries)


def _emit(args, text, payload):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _coeff_map_text(pairs, symbol):
    return sz.signed_sum_text(
        pairs, lambda la: f"{symbol}({','.join(str(x) for x in la)})" if la else ""
    )


def _sorted_coeff_map(mapping):
    return sorted(mapping.items(), key=lambda kv: (pt.size(kv[0]), kv[0]))


def _emit_reports(args, reports, all_ok=None):
    """Print one line per check report, or their JSON; returns the exit code.
    The verdict is every report passing, stated on a last "overall" line,
    unless the caller passes its own all_ok."""
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}" + (f" ({r['detail']})" if r["detail"] else "")
        for r in reports
    ]
    if all_ok is None:
        all_ok = all(r["ok"] for r in reports)
        lines.append(f"{'PASS' if all_ok else 'FAIL'} overall")
    _emit(args, "\n".join(lines), {"reports": reports, "all_ok": all_ok})
    return 0 if all_ok else 1


def cmd_schur(args):
    f = sf.schur(args.partition)
    if args.basis == "p":
        _emit(args, sz.symfunc_to_text(f), sz.symfunc_to_json(f))
    else:
        expand, symbol = (sf.monomial_expand, "m") if args.basis == "m" else (sf.schur_expand, "s")
        pairs = _sorted_coeff_map(expand(f))
        rows = [[sz.rational_to_json(c), list(la)] for la, c in pairs]
        _emit(args, _coeff_map_text(pairs, symbol), rows)
    return 0


def cmd_hall(args):
    value = sf.hall(args.f, args.g)
    _emit(args, sz.rational_to_text(value), sz.rational_to_json(value))
    return 0


def cmd_jack(args):
    f = sf.jack(args.partition, args.alpha)
    _emit(args, sz.symfunc_to_text(f), sz.symfunc_to_json(f))
    return 0


def cmd_euler(args):
    quiver = _load_quiver(args.quiver)
    d1 = _dimvector_arg(quiver, args.d1)
    d2 = _dimvector_arg(quiver, args.d2)
    value = qv.euler_sym(quiver, d1, d2) if args.sym else qv.euler_form(quiver, d1, d2)
    _emit(args, str(value), value)
    return 0


def cmd_virasoro_bracket(args):
    from . import checks as ck
    if args.max_n < -1 or args.max_deg < 0:
        raise ValueError("virasoro-bracket needs --max-n >= -1 and --max-deg >= 0")
    quiver = _load_quiver(args.quiver)
    if not quiver.is_quasi_smooth():
        raise ValueError("virasoro-bracket needs a quasi-smooth quiver")
    if not quiver.vertices:
        raise qv.QuiverError("no_vertices", "virasoro-bracket needs a quiver with a vertex")
    rng = random.Random(2024)
    monos = [ck._random_monomial(rng, quiver, args.max_deg) for _ in range(4)]
    op = partial(dc.l_op, quiver)
    reports = [
        ck._verdict(
            f"[L_{n}, L_{m}]",
            ((sz.descendent_to_text(f), ck.bracket_residual(op, n, m, f)) for f in monos),
        )
        for n, m in product(range(-1, args.max_n + 1), repeat=2)
    ]
    return _emit_reports(args, reports)


def cmd_gr_class(args):
    if args.via == "wallcross":
        x = gc.gr_class_wallcross(args.k, args.N)
    else:
        x = gc.gr_class_schur(args.k, args.N)
    _emit(args, sz.grelem_to_text(x), sz.grelem_to_json(x))
    return 0


def cmd_gr_integral(args):
    value = gc.gr_integral(args.k, args.N, args.f)
    _emit(args, sz.rational_to_text(value), sz.rational_to_json(value))
    return 0


def cmd_gr_constraints(args):
    from . import checks as ck
    if args.max_n < 0:
        raise ValueError("gr-constraints needs --max-n >= 0")
    s_rect = f"s_{pt.rectangle(args.N - args.k, args.k)}"
    pairs = gc.constraint_check(args.k, args.N, args.max_n)
    return _emit_reports(args, [ck._verdict(label, [(s_rect, r)]) for label, r in pairs])


def cmd_gr_recursion(args):
    table = gc.integrals_by_recursion(args.k, args.N, args.norm)
    pairs = _sorted_coeff_map(table)
    lines = [
        f"p[{','.join(str(x) for x in la)}] = {sz.rational_to_text(c)}" for la, c in pairs
    ]
    payload = [[list(la), sz.rational_to_json(c)] for la, c in pairs]
    _emit(args, "\n".join(lines) if lines else "(empty)", payload)
    return 0


def cmd_hecke(args):
    op = gc.hecke_sym if args.sym else gc.hecke
    f = op(args.n, args.f)
    _emit(args, sz.symfunc_to_text(f), sz.symfunc_to_json(f))
    return 0


def cmd_cs(args):
    f = gc.calogero_sutherland(args.f)
    _emit(args, sz.symfunc_to_text(f), sz.symfunc_to_json(f))
    return 0


def cmd_singular(args):
    from . import checks as ck
    params = gc.FockParams(args.beta2, args.r, args.s)
    reports = []
    for v in gc.JACK_VARIANTS:
        pairs = gc.singular_check(params, v)
        reports.append(
            ck._verdict(f"variant {v} (Jack parameter {gc.jack_parameter(params, v)})", pairs)
        )
        reports += [ck._verdict(label, [(f"variant {v}", r)]) for label, r in pairs if r]
    # the first line decides: beta_sq/2 is the fixed convention, and 2/beta_sq is
    # shown for contrast, failing by design on most inputs
    return _emit_reports(args, reports, reports[0]["ok"])


def cmd_selftest(args):
    from . import checks as ck
    return _emit_reports(args, ck.run_selftest(args.suite))


_K_N = (("k", dict(type=int)), ("N", dict(type=int)))

# Each subcommand, in the order that -h lists them: name, help, handler, and its
# arguments as (name or flag, add_argument keywords) pairs.
_COMMANDS = (
    ("schur", "Schur polynomial of a partition", cmd_schur, (
        ("partition", dict(type=_PARTITION, help="e.g. 2,2 (use - for empty)")),
        ("--basis", dict(choices=("p", "m", "schur"), default="p")))),
    ("hall", "Hall pairing of two symmetric functions", cmd_hall, (
        ("f", dict(type=_SYMFUNC)),
        ("g", dict(type=_SYMFUNC)))),
    ("jack", "monic Jack polynomial P_la(alpha); fails only at a pole of P_la", cmd_jack, (
        ("partition", dict(type=_PARTITION)),
        ("alpha", dict(type=_RATIONAL)))),
    ("euler", "Euler form of a quiver on two dimension vectors", cmd_euler, (
        ("quiver", dict(help="path to a quiver JSON file")),
        ("d1", dict(help="comma-separated integers in vertex order")),
        ("d2", dict()),
        ("--sym", dict(action="store_true", help="symmetrized form")))),
    ("virasoro-bracket", "check [L_n, L_m] = (m-n) L_{n+m} on a quiver", cmd_virasoro_bracket, (
        ("quiver", dict()),
        ("--max-n", dict(type=int, default=3)),
        ("--max-deg", dict(type=int, default=6)))),
    ("gr-class", "class of Gr(k,N) in the state space", cmd_gr_class, (
        *_K_N,
        ("--via", dict(choices=("schur", "wallcross"), default="schur")))),
    ("gr-integral", "descendent integral over Gr(k,N)", cmd_gr_integral, (
        *_K_N,
        ("f", dict(type=_SYMFUNC)))),
    ("gr-constraints", "Virasoro constraints on s_{(N-k)^k}", cmd_gr_constraints, (
        *_K_N,
        ("--max-n", dict(type=int, default=6)))),
    ("gr-recursion", "all degree-d integrals from the Virasoro recursion", cmd_gr_recursion, (
        *_K_N,
        ("--norm", dict(type=_RATIONAL, required=True, help="value of <p_1^d, f>")))),
    ("hecke", "apply a Hecke operator", cmd_hecke, (
        ("n", dict(type=int)),
        ("f", dict(type=_SYMFUNC)),
        ("--sym", dict(action="store_true", help="symmetrized variant")))),
    ("cs", "apply the Calogero-Sutherland operator", cmd_cs, (
        ("f", dict(type=_SYMFUNC)),)),
    ("singular", "Jack singular-vector check for a Fock module", cmd_singular, (
        ("r", dict(type=int)),
        ("s", dict(type=int)),
        ("beta2", dict(type=_RATIONAL)))),
    ("selftest", "run the identity suites", cmd_selftest, (
        ("--suite", dict(choices=("fast", "full"), default="fast")),)),
)
_NAMES = tuple(name for name, *_ in _COMMANDS)


def build_parser(names):
    """The parser of the named subcommands, in ``_COMMANDS`` order."""
    parser = argparse.ArgumentParser(
        prog="quivertex",
        description="Exact computations with quiver Euler forms, symmetric "
        "functions, lattice vertex algebras and Grassmannian Virasoro constraints.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    # with fewer commands built, the usage line that an error prints still lists them all
    metavar = None if set(names) >= set(_NAMES) else "{" + ",".join(_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, text, handler, arguments in _COMMANDS:
        if name in names:
            s = sub.add_parser(name, help=text)
            for flag, kwargs in arguments:
                s.add_argument(flag, **kwargs)
            s.set_defaults(func=handler)

    # argparse takes -7/3 or -p1 for an option, as only -<digits> and -<decimal> look
    # negative; every option here but the exactly matched -h is long, so read them as values.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-[^-]")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # exact results print in full, at any size
        sys.set_int_max_str_digits(0)
    # the command named first (after an exact --json) alone; else, as for -h or --js, all
    head = argv[1:2] if argv[:1] == ["--json"] else argv[:1]
    try:
        args = build_parser(head if head and head[0] in _NAMES else _NAMES).parse_args(argv)
        return args.func(args)
    except MemoryError:  # reported below, once leaving this block frees what filled memory
        pass
    except (ValueError, OSError, json.JSONDecodeError) as e:
        code = getattr(e, "code", None)
        prefix = f"error[{code}]" if code else "error"
        print(f"{prefix}: {e}", file=sys.stderr)
        return 2
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
