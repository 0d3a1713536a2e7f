"""Invariants of the library source, read from src/quivertex/*.py.

Operators sum into one dict (``quivertex.lincomb``), so no line may rebuild
an element by adding to itself, which copies the partial sum on every term;
``_ints`` adopts that dict as the element's numerators, so every caller hands
it a dict built for the one call and read no more;
and invariants are raised as exceptions, never asserted, since ``python -O``
strips ``assert`` statements.  The integer kernels sum in int over one
denominator and store int numerators, so no loop in them makes a Fraction
per term and none reads ``.terms``, whose values are Fractions built on read.
The readers between element types (``to_symfunc``, and ``gr_class_wallcross``,
which reads the A_1 framed class as a Grassmannian class) are int kernels too.
Fractions cross into the int core only at the public constructor and the parsers: ``.terms`` is read only by ``sorted_terms``, and
outside ``lincomb`` only ``serialize`` calls ``add_to`` or ``_wrap``.
Every memo is an ``lru_cache``, which a cold start can clear, or local to one
call: no module-level name holds a dict, set or list display, except the list
of fast checks.  The int code of a partition has one owner,
``partitions.code_weights``, and so do the vertex operators on it: the products
of ``partitions.create_codes``, the creation half, add codes instead of merging
tuples, after ``partitions.translate_codes``, the annihilation half.
``latticeva.field_mode`` runs the two halves, and ``partitions.vertex_chain`` runs
them step after step for ``symfunc.schur``, the Hecke modes
(``grasscalc._translated_mode``) and the wall-crossing chain
(``grasscalc.framed_class``), which call nothing else of them, nor the code.
``lincomb._product_into`` is the one product loop, with three callers: the
creation half, the creation series and ``Algebra.__mul__``.  The operators that are
normal-ordered in the p_n and p_{-n} (``symfunc.annihilate`` and ``skew_by``, the
lowering and raising parts of ``grasscalc``, ``calogero_sutherland`` and
``r_n_symfunc``) are each a table of rows through one int kernel,
``symfunc._heisenberg``.
A check's outcome has one form:
``checks._verdict`` alone builds the report dict, no other function outside the
JSON writers of ``cli`` and ``serialize`` builds a dict keyed by field names, and
the Grassmannian and primary-state checks return residuals, never text.  A command
that prints one value is a ``_COMMANDS`` row through ``cli._value``, so ``cli._print``
is called there and by ``cmd_schur`` alone.  Every
public def, class, method and property of the package has a caller in ``src/``
outside its own body and outside ``__init__.py``, or in ``perfbench/``, or is
called by one that has, or is one of the ``ENTRY_POINTS`` that README.md names;
so no name is kept for its test alone.
"""

import ast
import re
from pathlib import Path

import quivertex

SOURCES = sorted(Path(quivertex.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
SELF_ACCUMULATION = re.compile(r"\b(\w+) = \1 [+-] ")
INTEGER_KERNELS = {
    "_ints",
    "_add",
    "__neg__",
    "scale",
    "_map",
    "__mul__",
    "hall_deformed",
    "schur",
    "_translated_mode",
    "_lowering_part",
    "_raising_part",
    "_l0",
    "calogero_sutherland",
    "r_n_symfunc",
    "annihilate",
    "skew_by",
    "_heisenberg",
    "create",
    "annihilate_mode",
    "virasoro",
    "substitute_ch0",
    "field_mode",
    "create_codes",
    "_creation_series",
    "vertex_chain",
    "framed_class",
    "translate_codes",
    "_from_monomials",
    "_row_step",
    "monomial_expand",
    "_jack",
    "integrals_by_recursion",
    "_virasoro",
    "l_wt0",
    "to_symfunc",
    "gr_class_wallcross",
}
PER_TERM_FRACTION = {"Fraction", "add_to", "add_all"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lincomb.py", "symfunc.py", "checks.py"}


def test_no_quadratic_accumulation():
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in SOURCES
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if SELF_ACCUMULATION.search(line)
    ]
    assert not hits, hits


def test_no_assert_statements():
    hits = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not hits, hits


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_integer_kernels_make_no_fraction_per_term():
    found, hits = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in INTEGER_KERNELS:
                found.add(node.name)
                hits |= {
                    f"{path.name}:{call.lineno} in {node.name}: {_called_name(call)}"
                    for loop in ast.walk(node)
                    if isinstance(loop, LOOPS)
                    for call in ast.walk(loop)
                    if isinstance(call, ast.Call) and _called_name(call) in PER_TERM_FRACTION
                }
    assert found == INTEGER_KERNELS
    assert not hits, hits


def test_integer_kernels_read_no_fraction_terms():
    hits = [
        f"{path.name}:{attr.lineno} in {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in INTEGER_KERNELS
        for attr in ast.walk(node)
        if isinstance(attr, ast.Attribute) and attr.attr == "terms"
    ]
    assert not hits, hits


MUTABLE_DISPLAYS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)


def test_no_module_level_mutable_display():
    bound = {
        f"{path.stem}.{ast.unparse(target)}"
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, MUTABLE_DISPLAYS)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    assert bound == {"checks.FAST_CHECKS"}, bound


def _dict_builders(node, module, keyed, function=None):
    """module.function, innermost, of each dict display with a constant key that keyed accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Dict) and any(
            isinstance(key, ast.Constant) and keyed(key.value) for key in child.keys
        ):
            yield f"{module}.{function}"
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        yield from _dict_builders(child, module, keyed, inner)


def _builders(keyed):
    return {
        scope
        for path in SOURCES
        for scope in _dict_builders(ast.parse(path.read_text(encoding="utf-8")), path.stem, keyed)
    }


def test_only_verdict_builds_a_report():
    assert _builders(lambda key: key == "ok") == {"checks._verdict"}


def test_only_verdict_and_the_json_writers_build_records():
    # a dict display keyed by field names is a record: a report, or a JSON payload of
    # cli or serialize; a map keyed by data, as vertex names like "1", is not one
    builders = _builders(lambda key: isinstance(key, str) and key.isidentifier())
    assert {scope for scope in builders if scope.split(".")[0] not in ("cli", "serialize")} == {
        "checks._verdict"
    }


def test_only_the_value_adapter_and_schur_print_a_value():
    # each reference to cli._print, by the module-level statement that holds it
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    holders = sorted(
        getattr(statement, "name", "<module>")
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and node.id == "_print"
    )
    assert holders == ["_value", "cmd_schur"], holders


def test_grasscalc_imports_nothing_from_serialize():
    path = SOURCES[0].parent / "grasscalc.py"
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            "serialize" in f"{getattr(node, 'module', None) or ''}.{alias.name}".split(".")
            for alias in node.names
        )
    ]
    assert not hits, hits


def test_only_partitions_builds_partition_codes():
    hits, owner = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            weight_shift = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.LShift)
                and isinstance(node.right, ast.BinOp)
                and isinstance(node.right.op, ast.Mult)
            )
            if weight_shift or isinstance(node, ast.Call) and _called_name(node) == "bit_length":
                found = owner if path.name == "partitions.py" else hits
                found.append(f"{path.name}:{node.lineno}")
            if (
                path.stem in ("symfunc", "grasscalc")
                and isinstance(node, ast.Call)
                and _called_name(node) == "_product_into"
                and any(ast.unparse(arg) == "pt.merge" for arg in node.args)
            ):
                hits.append(f"{path.name}:{node.lineno}: _product_into keyed by pt.merge")
    assert owner, "partitions.py builds no code weights"
    assert not hits, hits


def test_field_mode_products_add_codes():
    # the field modes and the vertex chain multiply only through create_codes, whose
    # one product loop is keyed by add; schur, the Hecke modes and the wall-crossing
    # chain reach the two halves and the code only through vertex_chain
    defs = {
        node.name: node
        for path in SOURCES
        if path.stem in ("partitions", "symfunc", "latticeva", "grasscalc")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }

    def calls(name, callee):
        return [c for c in ast.walk(defs[name]) if isinstance(c, ast.Call) and _called_name(c) == callee]

    keys = [ast.unparse(call.args[-1]) for call in calls("create_codes", "_product_into")]
    assert keys == ["add"], keys
    for name in ("field_mode", "vertex_chain"):
        assert calls(name, "create_codes") and not calls(name, "_product_into"), name
    for name in ("schur", "_translated_mode", "framed_class"):
        assert calls(name, "vertex_chain"), name
        inner = ("translate_codes", "create_codes", "_product_into", "code_weights", "encode", "decode")
        assert not any(calls(name, f) for f in inner), name


PRODUCT_LOOP_CALLERS = {
    "create_codes",
    "_creation_series",
    "Algebra.__mul__",
}


def test_one_product_loop_serves_every_product():
    defined, callers = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [
            (f"{node.name}.{item.name}", item)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        ]
        for name, fn in scopes:
            if name == "_product_into":
                defined.append(path.name)
            if any(
                isinstance(call, ast.Call) and _called_name(call) == "_product_into"
                for call in ast.walk(fn)
            ):
                callers.add(name)
    assert defined == ["lincomb.py"], defined
    assert callers == PRODUCT_LOOP_CALLERS, sorted(callers ^ PRODUCT_LOOP_CALLERS)


# Public names kept with no caller in src/ or perfbench/, each named in README.md:
ENTRY_POINTS = {
    "t_element",  # perfbench traces it by name
    "framed_t_element",  # T_n^{f->*}, the framed sibling of t_element
    "create",  # library entry points
    "VAElem.group_element",
    "DescendentPoly.ch",
    "SymFunc.coefficient",
    "skew_by",  # the tests build their Hecke and pairing references from these two
    "z_factor",
}


def _public_defs(tree):
    """(name, node, is_method) of each public module-level def and class, and of each
    public method or property of a class; a method is named Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _references(node, public, enclosing=()):
    """(reference, the public def nodes around it) for each Name ("name") and
    Attribute (".name") below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield child.id, enclosing
        elif isinstance(child, ast.Attribute):
            yield f".{child.attr}", enclosing
        inner = enclosing + (child,) if child in public else enclosing
        yield from _references(child, public, inner)


def _reference_keys(name, is_method):
    """A method is reached as an attribute; a module-level name also bare."""
    bare = name.rpartition(".")[2]
    return [f".{bare}"] if is_method else [bare, f".{bare}"]


def test_every_public_name_has_a_caller():
    nodes, named, refs = {}, {}, []  # name -> node; key -> names; (key, enclosing nodes)
    for path in SOURCES:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            public = set()
            for name, node, is_method in _public_defs(tree):
                public.add(node)
                nodes[name] = node
                for key in _reference_keys(name, is_method):
                    named.setdefault(key, []).append(name)
            refs += _references(tree, public)
    perfbench = {
        key
        for path in PERFBENCH
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for key in (
            [node.id] if isinstance(node, ast.Name)
            else [f".{node.attr}"] if isinstance(node, ast.Attribute) else []
        )
    }
    used = set(ENTRY_POINTS) | {name for key in perfbench for name in named.get(key, ())}
    # a reference counts when every public def around it is used, and it is not
    # inside the def it names; so a name that only a used one calls is used too
    grown = used
    while grown:
        live = {nodes[name] for name in used}
        grown = {
            name
            for key, enclosing in refs
            if live.issuperset(enclosing)
            for name in named.get(key, ())
            if name not in used and nodes[name] not in enclosing
        }
        used |= grown
    assert PERFBENCH, "perfbench/ not found"
    assert ENTRY_POINTS <= set(nodes), sorted(ENTRY_POINTS - set(nodes))
    assert not (unused := sorted(set(nodes) - used)), unused
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    unnamed = sorted(name for name in ENTRY_POINTS if not re.search(rf"`{re.escape(name)}[`(]", readme))
    assert not unnamed, f"entry points README.md does not name: {unnamed}"


def test_fractions_enter_only_at_the_boundary():
    hits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "sorted_terms"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "terms" and id(node) not in allowed:
                hits.append(f"{path.name}:{node.lineno}: .terms read")
            if (
                path.name not in ("lincomb.py", "serialize.py")
                and isinstance(node, ast.Call)
                and _called_name(node) in ("add_to", "_wrap")
            ):
                hits.append(f"{path.name}:{node.lineno}: {_called_name(node)}")
            if isinstance(node, ast.FunctionDef) and node.name in ("add_all", "_like"):
                hits.append(f"{path.name}:{node.lineno}: defines {node.name}")
    assert not hits, hits


def _fresh_dict(node):
    """A dict display, a comprehension, a dict(...) call, or a choice between two of them."""
    if isinstance(node, ast.IfExp):
        return _fresh_dict(node.body) and _fresh_dict(node.orelse)
    called = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    return isinstance(node, (ast.Dict, ast.DictComp)) or called and node.func.id == "dict"


def _scope_nodes(fn):
    """The nodes of fn's own scope: nested defs and lambdas are not entered."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _fresh_bindings(target, value):
    """The Name targets of one assignment that it binds to a fresh dict."""
    if isinstance(target, ast.Name) and _fresh_dict(value):
        yield target
    elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
        if len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                yield from _fresh_bindings(t, v)


def _handed_over(arg, fn, call):
    """arg is a fresh dict, or a name of fn that only ever holds a fresh dict and that
    no statement reads after call, which no loop of fn repeats; inside _ints and
    _like_ints themselves, their own nums parameter is passed through."""
    if _fresh_dict(arg):
        return True
    if not (isinstance(arg, ast.Name) and fn is not None):
        return False
    params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    if fn.name in ("_ints", "_like_ints") and arg.id == "nums" and "nums" in params:
        return True
    nodes = list(_scope_nodes(fn))
    fresh = {
        id(name)
        for node in nodes
        if isinstance(node, ast.Assign)
        for target in node.targets
        for name in _fresh_bindings(target, node.value)
    }
    named = [node for node in nodes if isinstance(node, ast.Name) and node.id == arg.id]
    end = (call.end_lineno, call.end_col_offset)
    in_loop = any(
        isinstance(loop, (ast.For, ast.While)) and call in ast.walk(loop) for loop in nodes
    )
    return (
        arg.id not in params
        and bool(fresh)
        and all(id(n) in fresh for n in named if isinstance(n.ctx, ast.Store))
        and not any(isinstance(n.ctx, ast.Load) and (n.lineno, n.col_offset) > end for n in named)
        and not in_loop
    )


def test_ints_is_handed_a_dict_no_one_keeps():
    # _ints adopts the dict it is given as the element's nums, so each caller hands it
    # a dict built for that one call and never read again
    calls, hits = 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree] + [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef))
        ]
        for scope in scopes:
            owner = scope if isinstance(scope, ast.FunctionDef) else None
            for call in _scope_nodes(scope):
                if isinstance(call, ast.Call) and _called_name(call) in ("_ints", "_like_ints"):
                    calls += 1
                    arg = call.args[0] if call.args else next(
                        (k.value for k in call.keywords if k.arg == "nums"), None
                    )
                    if not _handed_over(arg, owner, call):
                        hits.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert calls >= 20, calls
    assert not hits, hits
