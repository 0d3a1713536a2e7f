import argparse
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivertex import checks as ck
from quivertex import cli
from quivertex import descendent as dc
from quivertex import grasscalc as gc
from quivertex import latticeva as lv
from quivertex import quiver as qv
from quivertex import serialize as sz
from quivertex import symfunc as sf
from quivertex.cli import _coeff_map_text

BUILD_PARSER = cli.build_parser


def _outcome(argv):
    """How cli.main ended (returned or exited, with its code), its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ended = ("returned", cli.main(list(argv)))
        except SystemExit as e:
            ended = ("exited", e.code)
    return ended, out.getvalue(), err.getvalue()


def main(argv):
    """cli.main, which builds the parser of the command it is given alone, checked
    against a run on the parser of every command: the two must agree byte for byte
    on exit code, stdout and stderr, which are then passed on."""
    got = _outcome(argv)
    with mock.patch.object(cli, "build_parser", lambda names: BUILD_PARSER(cli._NAMES)):
        assert _outcome(argv) == got, argv
    (ended, code), out, err = got
    sys.stdout.write(out)
    sys.stderr.write(err)
    if ended == "exited":
        raise SystemExit(code)
    return code


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schur_golden(capsys):
    code, out, _ = run(capsys, "schur", "2,2")
    assert code == 0
    assert out.strip() == "1/12*p1^4 + 1/4*p2^2 - 1/3*p1*p3"


def test_schur_bases(capsys):
    code, out, _ = run(capsys, "schur", "2,1", "--basis", "m")
    assert code == 0
    assert out.strip() == "2*m(1,1,1) + m(2,1)"
    pairs = [((), Fraction(-1, 2)), ((1,), Fraction(1)), ((2, 1), Fraction(-3, 4))]
    assert _coeff_map_text(pairs, "m") == "-1/2 + m(1) - 3/4*m(2,1)"
    code, out, _ = run(capsys, "schur", "2,1", "--basis", "schur")
    assert out.strip() == "s(2,1)"
    code, out, _ = run(capsys, "schur", "-", "--basis", "p")
    assert out.strip() == "1"


def test_hall(capsys):
    code, out, _ = run(capsys, "hall", "p2", "p2")
    assert code == 0 and out.strip() == "2"


def test_jack(capsys):
    code, out, _ = run(capsys, "jack", "2", "1/2")
    assert code == 0
    # P_(2) at alpha = 1/2: m_2 + 4/3 m_11 = 2/3 p1^2 + 1/3 p2
    assert out.strip() == "2/3*p1^2 + 1/3*p2"


def test_jack_where_gram_schmidt_fails(capsys):
    # P_21 = m_21 + 6/(alpha + 2) m_111 exists at alpha = -1, where the norm of P_111 vanishes
    code, out, _ = run(capsys, "jack", "2,1", "-1")
    assert code == 0 and out.strip() == "p1^3 - 2*p1*p2 + p3"
    # P_2 = m_2 + 2/(1 + alpha) m_11 has a pole at alpha = -1
    code, out, err = run(capsys, "jack", "2", "-1")
    assert code == 2 and not out
    assert err.startswith("error: P_(2,) has a pole at alpha=-1"), err
    code, out, _ = run(capsys, "jack", "3,1,1", "-7/3")
    assert code == 0
    assert out.strip() == (
        "9/40*p1^5 - 9/4*p1^3*p2 + 21/8*p1*p2^2 + 5*p1^2*p3 - 7/2*p2*p3 - 7*p1*p4 + 49/10*p5"
    )


def test_gr_integral_golden(capsys):
    code, out, _ = run(capsys, "gr-integral", "2", "4", "p1^4")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "gr-integral", "2", "4", "p1*p3")
    assert out.strip() == "-1"


def test_gr_class_both_routes_agree(capsys):
    code, out1, _ = run(capsys, "gr-class", "2", "4")
    code2, out2, _ = run(capsys, "gr-class", "2", "4", "--via", "wallcross")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.strip().startswith("Q^4 q^2 (x) ")


def test_gr_class_json(capsys):
    code, out, _ = run(capsys, "--json", "gr-class", "1", "2")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 2 and data["k"] == 1
    assert data["f"] == [[[-1, 1], [1]]]


def test_euler_with_file(tmp_path, capsys):
    path = tmp_path / "beilinson.json"
    path.write_text(json.dumps(sz.quiver_to_json(qv.builtin("beilinson_p2"))))
    code, out, _ = run(capsys, "euler", str(path), "1,0,0", "0,1,0")
    assert code == 0 and out.strip() == "-3"
    code, out, _ = run(capsys, "euler", str(path), "1,0,0", "0,1,0", "--sym")
    assert code == 0 and out.strip() == "-3"


def test_virasoro_bracket_command(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(sz.quiver_to_json(qv.builtin("beilinson_p2"))))
    code, out, _ = run(capsys, "virasoro-bracket", str(path), "--max-n", "2", "--max-deg", "4")
    assert code == 0
    assert "PASS overall" in out


def test_gr_constraints_command(capsys):
    code, out, _ = run(capsys, "gr-constraints", "2", "4", "--max-n", "3")
    assert code == 0
    assert "PASS overall" in out


def test_gr_recursion_command(capsys):
    code, out, _ = run(capsys, "gr-recursion", "2", "4", "--norm", "2")
    assert code == 0
    assert "p[2,2] = 2" in out and "p[3,1] = -1" in out


def test_hecke_command(capsys):
    code, out, _ = run(capsys, "hecke", "2", "1")
    assert code == 0 and out.strip() == "1/2*p1^2 + 1/2*p2"
    code, out, _ = run(capsys, "hecke", "0", "p2", "--sym")
    assert code == 0


def test_cs_command(capsys):
    code, out, _ = run(capsys, "cs", "p1")
    assert code == 0 and out.strip() == "0"


GR24_CLASS = [[[1, 12], [1, 1, 1, 1]], [[1, 4], [2, 2]], [[-1, 3], [3, 1]]]
# each value command's argv: its text and JSON payload at exit 0, or the one stderr
# line with which it exits 2; "@dg" names a quiver with a degree -1 arrow
VALUE_GOLDENS = {
    ("hall", "p1^2 + p2", "1/2*p1^2 - p2"): ("-1", [-1, 1]),
    ("jack", "2,1", "1/2"): (
        "2/5*p1^3 - 1/5*p1*p2 - 1/5*p3",
        [[[2, 5], [1, 1, 1]], [[-1, 5], [2, 1]], [[-1, 5], [3]]],
    ),
    ("jack", "2", "-1"): "error: P_(2,) has a pole at alpha=-1 (coefficient of m_(1, 1))",
    ("euler", "@dg", "2,1", "1,3"): ("-1", -1),
    ("euler", "@dg", "2,1", "1,3", "--sym"): ("3", 3),
    **{
        ("gr-class", "2", "4", *via): (
            "Q^4 q^2 (x) 1/12*p1^4 + 1/4*p2^2 - 1/3*p1*p3",
            {"N": 4, "k": 2, "f": GR24_CLASS},
        )
        for via in ((), ("--via", "schur"), ("--via", "wallcross"))
    },
    ("gr-integral", "2", "4", "p1^4 - 2*p1*p3"): ("4", [4, 1]),
    ("hecke", "2", "p1"): ("1/3*p1^3 - 1/3*p3", [[[1, 3], [1, 1, 1]], [[-1, 3], [3]]]),
    ("hecke", "2", "p2", "--sym"): (
        "-1/12*p1^4 + 1/4*p2^2 - 2/3*p1*p3 - 1/2*p4",
        [[[-1, 12], [1, 1, 1, 1]], [[1, 4], [2, 2]], [[-2, 3], [3, 1]], [[-1, 2], [4]]],
    ),
    ("cs", "p1^2"): ("p2", [[[1, 1], [2]]]),
    ("gr-recursion", "0", "0", "--norm", "3/2"): ("p[] = 3/2", [[[], [3, 2]]]),
}


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
@pytest.mark.parametrize("argv", list(VALUE_GOLDENS), ids=" ".join)
def test_value_commands_print_their_goldens(tmp_path, capsys, argv, as_json):
    path = tmp_path / "dg.json"
    arrows = [{"src": "a", "tgt": "b", "deg": deg} for deg in (0, 0, -1)]
    path.write_text(json.dumps({"vertices": ["a", "b"], "arrows": arrows}))
    golden = VALUE_GOLDENS[argv]
    if isinstance(golden, str):
        expected = (2, "", golden + "\n")
    else:
        text, payload = golden
        expected = (0, (json.dumps(payload, indent=2) if as_json else text) + "\n", "")
    argv = [str(path) if token == "@dg" else token for token in argv]
    assert run(capsys, *(["--json"] if as_json else []), *argv) == expected


def test_singular_command(capsys):
    code, out, _ = run(capsys, "singular", "2", "1", "3")
    assert code == 0
    assert "PASS variant beta_sq/2" in out
    assert "FAIL variant 2/beta_sq" in out


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "--json", "gr-class", "2", "4", "--via", "wallcross")
    _, out2, _ = run(capsys, "--json", "gr-class", "2", "4", "--via", "wallcross")
    assert out1 == out2


def test_input_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "gr-class", "3", "2")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "euler", "/nonexistent.json", "1", "1")
    assert code == 2
    path = tmp_path / "degree_minus_two.json"
    arrows = [{"src": "1", "tgt": "2", "deg": -2}]
    path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": arrows}))
    for argv in (("euler", str(path), "1,x", "1,0"), ("virasoro-bracket", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error"), argv


def test_quiver_error_carries_machine_code(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["a", "b"],
                "arrows": [{"src": "a", "tgt": "b", "deg": 0}, {"src": "b", "tgt": "a", "deg": 0}],
            }
        )
    )
    code, _, err = run(capsys, "euler", str(path), "1,1", "1,1")
    assert code == 2
    assert err.startswith("error[cycle]:")


_GR, _ONE = lv.grassmannian_lattice(), sf.SymFunc.one()
_A1, _B = qv.builtin("linear(1)"), qv.builtin("beilinson_p2")
# each contract branch: its call, and the QuiverError code or the ValueError text it raises
TYPED_ERRORS = {
    "duplicate vertex": (lambda: qv.DgQuiver(["a", "a"], []), "duplicate_vertex"),
    "linear(x)": (lambda: qv.builtin("linear(x)"), "unknown_builtin"),
    "kronecker(0)": (lambda: qv.builtin("kronecker(0)"), "unknown_builtin"),
    "euler_form": (lambda: qv.euler_form(_A1, *map(_B.unit_vector, "12")), "index_mismatch"),
    "p_0": (lambda: sf.SymFunc.p(0), "positive integers"),
    "annihilate 0": (lambda: sf.annihilate(0, sf.SymFunc.p(1)), "must be >= 1"),
    "Lattice": (lambda: lv.Lattice(B=[[2, 1]], b=[[1, 0]]), "square"),
    "basis index": (lambda: lv.VAElem(_GR, {((0, 0), ((2, 1),)): 1}), "out of range"),
    "mode 0": (lambda: lv.VAElem(_GR, {((0, 0), ((0, 0),)): 1}), "must be >= 1"),
    "create": (lambda: lv.create(_GR, (0, 1), 0, lv.VAElem(_GR)), "must be >= 1"),
    "annihilate_mode": (lambda: lv.annihilate_mode(_GR, (0, 1), -1, lv.VAElem(_GR)), ">= 0"),
    "virasoro": (lambda: lv.virasoro(_GR, -2, lv.VAElem(_GR)), "n >= -1"),
    "GrElem": (lambda: gc.GrElem(-1, 0, _ONE), "nonnegative"),
    "gr_virasoro": (lambda: gc.gr_virasoro(-1, gc.GrElem(2, 1, _ONE)), "n >= 0"),
    "gr_virasoro_dual": (lambda: gc.gr_virasoro_dual(-1, 2, 1, _ONE), "n >= 0"),
    "fock_virasoro": (lambda: gc.fock_virasoro(gc.FockParams(2, 1, 1), 0, _ONE), "n >= 1"),
    "r_n_symfunc": (lambda: gc.r_n_symfunc(0, _ONE), "n >= 1"),
    "geometricity_check": (lambda: gc.geometricity_check(1, 2, 0, 3), "n >= 1"),
    "ch_-1": (lambda: dc.DescendentPoly({((-1, "1"),): 1}), "nonnegative"),
    "partition text": (lambda: sz.partition_from_text("a"), "bad partition"),
    "blank": (lambda: sz.symfunc_from_text(" "), "empty symmetric-function"),
    "p1 +": (lambda: sz.symfunc_from_text("p1 +"), "empty term"),
    "p1**p2": (lambda: sz.symfunc_from_text("p1**p2"), "empty factor"),
    "GrElem JSON": (lambda: sz.grelem_from_json({}), "malformed GrElem JSON"),
    "suite": (lambda: ck.run_selftest("bogus"), "unknown suite"),
}


@pytest.mark.parametrize("call, want", TYPED_ERRORS.values(), ids=TYPED_ERRORS)
def test_a_contract_branch_raises_its_typed_error(call, want):
    # the CLI maps these to exit code 2; a QuiverError is named by its code
    with pytest.raises(ValueError) as e:
        call()
    assert e.value.code == want if isinstance(e.value, qv.QuiverError) else want in str(e.value)


def test_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        main(["hall", "p2", "bogus$"])
    assert e.value.code == 2


def test_zero_denominator_is_malformed_input(capsys):
    for argv in (
        ["jack", "2", "1/0"],
        ["hall", "p1", "1/0*p1"],
        ["gr-recursion", "2", "4", "--norm", "1/0"],
    ):
        # argparse reports a rejected argument by raising SystemExit
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        err = capsys.readouterr().err
        assert "invalid" in err
        assert "zero denominator" in err, err
        assert not re.search(r"_\w+_arg", err), err



def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


def test_out_of_memory_is_malformed_input():
    # schur 200 builds h_200 from every partition of 200, more than 400 MB holds
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "quivertex.cli", "schur", "200"],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_out_of_memory_in_the_wall_crossing_is_malformed_input():
    # the creation series of degree 1199 has p(1199) terms; the report is printed after the
    # except block, so the frames that filled memory are freed before it is written
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "quivertex.cli", "gr-class", "1", "1200", "--via", "wallcross"],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_a_code_of_64_bits_or_more_is_refused_before_it_is_built():
    # code_weights(10**20) would be a tuple of 2^67 weights: it raises at once, and so do the
    # commands that ask for such a code, so the child stays far below its address space
    code = textwrap.dedent(
        """
        import resource
        from quivertex import cli, partitions as pt
        try:
            pt.code_weights(10 ** 20)
        except MemoryError:
            pass
        else:
            raise SystemExit("built")
        big = "99999999999999999999"
        for argv in (["hecke", big, "p1"], ["schur", big], ["gr-class", "1", big]):
            print(cli.main(argv))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10)  # peak MB
        """
    )
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "error: out of memory\n" * 3), done.stderr
    *codes, peak_mb = map(int, done.stdout.split())
    assert codes == [2, 2, 2] and peak_mb < 100, done.stdout


def _fresh_interpreter(*args):
    """Run sys.executable on args with this checkout's package first on its path."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_the_check_suites_load_only_with_the_commands_that_run_them():
    # neither the package nor the CLI imports quivertex.checks; a command that checks does
    code = (
        "import sys; import quivertex; a = 'quivertex.checks' in sys.modules; "
        "from quivertex import cli; b = 'quivertex.checks' in sys.modules; "
        "cli.main(['schur', '2']); c = 'quivertex.checks' in sys.modules; "
        "cli.main(['gr-constraints', '1', '2', '--max-n', '0']); "
        "print(a, b, c, 'quivertex.checks' in sys.modules)"
    )
    done = _fresh_interpreter("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "False False False True"
    done = _fresh_interpreter("-m", "quivertex.cli", "gr-constraints", "2", "4")
    want = "".join(f"PASS L_{n}\n" for n in range(7)) + "PASS overall\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_results_of_any_size_print_in_full(capsys):
    # <p_1^9000, p_1^9000> = 9000!, 31,682 digits, past Python's default int/str limit
    code, out, err = run(capsys, "hall", "p1^9000", "p1^9000")
    # main has lifted the limit in this process too, so the expected text can be built
    assert (code, out, err) == (0, f"{factorial(9000)}\n", "")


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["schur", "2,1", "--bogus"], 2, "err", "unrecognized arguments: --bogus"),
        (["--json", "hecke", "2", "p1", "--x"], 2, "err", "unrecognized arguments: --x"),
        (["-h"], 0, "out", "run the identity suites"),
        (["schur", "-h"], 0, "out", "usage: quivertex schur [-h]"),
        (["bogus", "1"], 2, "err", "invalid choice: 'bogus'"),
        (["--json"], 2, "err", "the following arguments are required: command"),
        (["--js", "schur", "2,1"], 0, "out", "[\n  [\n    [\n      1,\n      3\n"),
    ],
)
def test_the_parser_of_one_command_reads_as_that_of_every_command(capsys, argv, code, stream, text):
    try:
        got = main(argv)  # asserts the byte identity
    except SystemExit as e:
        got = e.code
    captured = capsys.readouterr()
    assert got == code
    assert text in (captured.out if stream == "out" else captured.err)
    if code == 2:  # every top-level usage line lists all commands
        assert "{" + ",".join(cli._NAMES) + "}" in captured.err


@pytest.mark.parametrize(
    "argv, built",
    [
        (["schur", "2,1"], 1),
        (["--json", "gr-class", "2", "4"], 1),
        (["-h"], 13),
        (["bogus", "1"], 13),
    ],
)
def test_a_call_builds_the_subparser_of_the_command_it_names_alone(argv, built):
    add_parser = argparse._SubParsersAction.add_parser
    names = []

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    with mock.patch.object(argparse._SubParsersAction, "add_parser", counted):
        _outcome(argv)
    assert len(names) == built, names


def test_selftest_full(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "full")
    assert code == 0
    assert "PASS overall" in out


def test_selftest_fast(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "fast")
    assert code == 0
    assert "PASS overall" in out


def test_malformed_quiver_json_is_rejected_with_a_code(tmp_path, capsys):
    arrow = {"src": "a", "tgt": "b"}
    for data, code in (
        ({"vertices": "ab", "arrows": [arrow]}, "malformed_vertices"),
        ({"vertices": ["a", "b"], "arrows": [{**arrow, "deg": -0.5}]}, "malformed_degree"),
        ({"vertices": ["a", "b"], "arrows": [{**arrow, "deg": True}]}, "malformed_degree"),
        ({"vertices": ["a", "b"], "arrows": [{**arrow, "deg": "x"}]}, "malformed_degree"),
    ):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(data))
        exit_code, out, err = run(capsys, "euler", str(path), "1,0", "0,1")
        assert (exit_code, out) == (2, ""), data
        assert err.startswith(f"error[{code}]:"), (data, err)
    path.write_text(json.dumps({"vertices": ["a", "b"], "arrows": [{**arrow, "deg": -1}]}))
    assert run(capsys, "euler", str(path), "1,0", "0,1")[:2] == (0, "1\n")


def test_minus_led_arguments_are_values(capsys):
    # argparse takes only -<digits> and -<decimal> as negative numbers; these
    # must read as values, the same as after -- or with --norm=
    for argv, spelled in (
        (["gr-recursion", "1", "3", "--norm", "-7/3"], ["gr-recursion", "1", "3", "--norm=-7/3"]),
        (["jack", "2", "-1/2"], ["jack", "2", "--", "-1/2"]),
        (["hall", "-p1", "p1"], ["hall", "--", "-p1", "p1"]),
        (["hecke", "-1", "-p1"], ["hecke", "--", "-1", "-p1"]),
        (
            ["--json", "hecke", "-1", "-1/2*p1^2", "--sym"],
            ["--json", "hecke", "--sym", "--", "-1", "-1/2*p1^2"],
        ),
    ):
        want = run(capsys, *spelled)
        assert want[0] == 0 and want[1], spelled
        assert run(capsys, *argv) == want, argv
    assert run(capsys, "jack", "2", "-1/2")[1].strip() == "2*p1^2 - p2"


def test_minus_led_arguments_keep_their_rejections(capsys):
    for argv, message in (
        (["hall", "-p1"], "the following arguments are required: g"),
        (["jack", "2", "1/2", "-x"], "unrecognized arguments: -x"),
        (["jack", "2", "1/2", "--bogus"], "unrecognized arguments: --bogus"),
        (["gr-recursion", "1", "3", "--norm"], "expected one argument"),
        (["jack", "2", "-1/0"], "zero denominator"),
        (["hall", "-p1", "-bogus$"], "invalid value"),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_quiver_without_vertices_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "arrows": []}))
    code, out, err = run(capsys, "virasoro-bracket", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[no_vertices]:"), err


def test_check_bounds_that_run_no_check_are_malformed_input(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(sz.quiver_to_json(qv.builtin("linear(2)"))))
    for argv in (
        ["virasoro-bracket", str(path), "--max-n", "-2"],
        ["virasoro-bracket", str(path), "--max-deg", "-3"],
        ["gr-constraints", "2", "4", "--max-n", "-5"],
        ["gr-constraints", "2", "4", "--max-n", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "needs --max-n" in err, err
    # the smallest bounds still run a check
    code, out, _ = run(capsys, "virasoro-bracket", str(path), "--max-n", "-1", "--max-deg", "0")
    assert code == 0 and out.startswith("PASS [L_-1, L_-1]"), out
    code, out, _ = run(capsys, "gr-constraints", "2", "4", "--max-n", "0")
    assert (code, out) == (0, "PASS L_0\nPASS overall\n")


def test_deeply_nested_quiver_json_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    for argv in (["euler", str(path), "1", "1"], ["virasoro-bracket", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "nested too deeply" in err, err


def test_a_huge_integer_in_quiver_json_is_malformed_input(tmp_path, capsys):
    # main lifts the int/str digit limit for output; a quiver file keeps the default bound
    path = tmp_path / "huge.json"
    text = json.dumps({"vertices": ["a", "b"], "arrows": [{"src": "a", "tgt": "b", "deg": -1}]})
    path.write_text(text.replace("-1", "-" + "1" * 4301))
    code, out, err = run(capsys, "euler", str(path), "1,0", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: quiver JSON holds an integer of 4301 digits, more than 4300\n"
    path.write_text(text.replace("-1", "-" + "1" * 4300))  # an odd degree, as -1
    assert run(capsys, "euler", str(path), "1,0", "0,1") == (0, "1\n", "")


# -- exit-code contract: random argv exits 0 (ok) or 2 (malformed input) ------------------

# Quiver files by placeholder token; "@missing" names a file that is never written.
QUIVER_FILES = {
    "@beilinson_p2": json.dumps(sz.quiver_to_json(qv.builtin("beilinson_p2"))),
    "@linear_2": json.dumps(sz.quiver_to_json(qv.builtin("linear(2)"))),
    "@empty": json.dumps({"vertices": [], "arrows": []}),
    "@nested": "[" * 200000,
    "@bad_json": '{"vertices": ["a"',
    "@not_a_quiver": "[1, 2]",
    "@bad_arrow": '{"vertices": ["a"], "arrows": [1]}',
    "@cyclic": json.dumps(
        {"vertices": ["a"], "arrows": [{"src": "a", "tgt": "a", "deg": -1}]}
    ),
    "@not_quasi_smooth": json.dumps(
        {"vertices": ["a", "b"], "arrows": [{"src": "a", "tgt": "b", "deg": -2}]}
    ),
}
HOSTILE = ["1/0", "p0", "--p1", "2,,1", "", "-", "x", "-1/2", "@missing", "@bad_json", "p1^99999999999"]
QUIVERS = list(QUIVER_FILES) + ["@missing"]
PARTITIONS = ["-", "1", "2,1", "2,2", "3,1,1", "1,2", "0,1"]
SYMFUNCS = ["0", "1", "p1", "-p1", "p2^2", "1/2*p1*p2", "p1 - p3"]
RATIONALS = ["0", "1", "2", "-1", "1/2", "-3/2", "5/2"]
SMALL = [str(i) for i in range(-1, 7)]  # k and N: N <= 6
DIMVECTORS = ["1,0,0", "0,1", "1,1,1", "-1,2,0", "1,0,0,0"]
# each command: its slots, every slot a list of tokens, None for an omitted option;
# singular keeps r*s <= 6, virasoro-bracket keeps n <= 2 and weight <= 4
GRAMMAR = {
    "schur": [PARTITIONS, [None, "--basis=m", "--basis=schur", "--basis=q"]],
    "hall": [SYMFUNCS, SYMFUNCS],
    "jack": [PARTITIONS, RATIONALS],
    "euler": [QUIVERS, DIMVECTORS, DIMVECTORS, [None, "--sym"]],
    "virasoro-bracket": [QUIVERS, ["--max-n=1", "--max-n=2", "--max-n=-2"], ["--max-deg=4"]],
    "gr-class": [SMALL, SMALL, [None, "--via=wallcross", "--via=schur"]],
    "gr-integral": [SMALL, SMALL, SYMFUNCS],
    "gr-constraints": [SMALL, SMALL, [None, "--max-n=2", "--max-n=-1"]],
    "gr-recursion": [SMALL, SMALL, ["--norm=1", "--norm=-7/3", None]],
    "hecke": [["-2", "-1", "0", "3"], SYMFUNCS, [None, "--sym"]],
    "cs": [SYMFUNCS],
    "singular": [["0", "1", "2", "3"], ["1", "2"], RATIONALS],
    "selftest": [["--suite=bogus", "--help"]],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    for slot in GRAMMAR[command]:
        hostile = draw(st.integers(0, 5)) == 0  # about one slot in six
        token = draw(st.sampled_from(slot + HOSTILE if hostile else slot))
        if token is not None:
            argv.append(token)
    return argv


@pytest.fixture(scope="module")
def quiver_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("quivers")
    for token, text in QUIVER_FILES.items():
        (folder / f"{token[1:]}.json").write_text(text)
    return {token: str(folder / f"{token[1:]}.json") for token in QUIVERS}


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
@example(argv=["virasoro-bracket", "@empty"])
@example(argv=["euler", "@nested", "1", "1"])
@example(argv=["hall", "p1^99999999999", "p1"])
def test_exit_code_is_0_or_2(quiver_files, argv):
    argv = [quiver_files.get(token, token) for token in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 2), argv
